(** Litmus scenarios packaged for the schedule explorer.

    Each {!run} builds a fresh 4-node cluster under the given
    {!Sim.Engine.schedule} with the per-message invariant checker on and
    every shared access traced, runs the protocol to quiescence, and
    returns the violations found by {e any} layer:

    - the per-message coherence invariant checker
      ({!Protocol.Engine.check_msg} via [check_invariants]);
    - the quiescence sweep ({!Protocol.Engine.check_quiescent});
    - the scenario's own outcome check (e.g. Figure 2 legality);
    - the trace oracle ({!Trace.check}), with a full-SC witness demanded
      of [Sc]-model scenarios.

    A clean protocol must produce an empty list for every schedule; the
    mutation harness ({!Mutation}) relies on at least one layer firing
    when a bug is seeded. *)

module C = Shasta.Cluster
module R = Shasta.Runtime

type scenario = {
  name : string;
  model : Protocol.Config.model;
  full_sc : bool;  (** demand a global SC witness of the trace *)
  deadline : float;
      (** simulated-time bound on a run; a deadlocked run (e.g. under
          the skip-inval-ack mutation) spins until here and is then
          reported by the finished/quiescence checks.  App-sized
          scenarios ({!Txn}) need a larger bound than the kernels. *)
  tweak : Protocol.Config.t -> Protocol.Config.t;
      (** scenario-specific protocol knobs (e.g. a home-migration
          policy), applied on top of the litmus base config; the
          identity for plain memory-model kernels *)
  body : C.t -> Trace.t -> (unit -> string list);
      (** spawns the processes; the returned thunk is the outcome check,
          run after the cluster quiesces *)
}

let no_tweak (p : Protocol.Config.t) = p

let config ?(tweak = no_tweak) ~model ~schedule () =
  {
    Shasta.Config.default with
    Shasta.Config.net =
      { Mchan.Net.default_config with Mchan.Net.nodes = 4; cpus_per_node = 1 };
    schedule;
    protocol =
      tweak
        {
          Protocol.Config.default with
          Protocol.Config.shared_size = 256 * 1024;
          model;
          check_invariants = true;
        };
  }

(* Litmus kernels quiesce in well under a simulated millisecond. *)
let default_deadline = 5.0e-3

let spin h addr =
  while R.load_int h addr <> 1 do
    R.work_cycles h 30;
    R.flush h;
    Sim.Proc.work 1e-7
  done

type outcome = {
  violations : string list;
  mutation_fired : int;  (** times the seeded bug actually triggered *)
  events : int;  (** traced shared accesses *)
  legal_transients : int;
      (** times the invariant checker observed (and exempted) the
          documented legal transient: an owner in S/I with its exclusive
          grant still in flight *)
}

(** [run ?mutation scenario schedule] — one fresh, fully-checked run,
    with [mutation] seeded into its protocol engine. *)
let run ?mutation scenario schedule =
  let cl = C.create (config ~tweak:scenario.tweak ~model:scenario.model ~schedule ()) in
  Option.iter (Protocol.Engine.seed_mutation (C.protocol_engine cl)) mutation;
  let tr = Trace.create () in
  let outcome_check = scenario.body cl tr in
  let violations = ref [] in
  let note v = violations := !violations @ v in
  let completed = ref false in
  (try
     ignore (C.run ~until:scenario.deadline cl);
     completed := true
   with
  | Protocol.Engine.Coherence_violation { block; time; violations = v } ->
      note
        (List.map
           (fun s -> Printf.sprintf "invariant (block %d, t=%.9g): %s" block time s)
           v)
  | C.Worker_failed (name, e) ->
      note [ Printf.sprintf "worker %s failed: %s" name (Printexc.to_string e) ]);
  let peng = C.protocol_engine cl in
  if !completed then begin
    List.iter
      (fun (h : R.t) ->
        if not (Sim.Proc.finished h.R.proc) then
          note
            [
              Printf.sprintf "%s: pid %d still running at t=%g (deadlock?)"
                scenario.name (R.pid h) scenario.deadline;
            ])
      (C.app_runtimes cl);
    note (List.map (fun s -> "quiescence: " ^ s) (Protocol.Engine.check_quiescent peng));
    note (outcome_check ());
    note (Trace.check ~full:scenario.full_sc tr)
  end;
  {
    violations = !violations;
    mutation_fired = Protocol.Engine.mutation_fires peng;
    events = Trace.length tr;
    legal_transients = Protocol.Engine.legal_transients peng;
  }

(* --- the scenarios ------------------------------------------------- *)

let traced_spawn cl tr cpu name body =
  let h = C.spawn cl ~cpu name body in
  Trace.attach tr h

(** Figure 2 of the paper: two writers publish [a] behind double flags;
    both readers must agree on which writer they observed. *)
let figure2 =
  {
    name = "figure2";
    model = Protocol.Config.Rc;
    full_sc = false;
    deadline = default_deadline;
    tweak = no_tweak;
    body =
      (fun cl tr ->
        let a = C.alloc cl 64 in
        let f1 = C.alloc cl 64 and f2 = C.alloc cl 64 in
        let f3 = C.alloc cl 64 and f4 = C.alloc cl 64 in
        let r1 = ref (-1) and r2 = ref (-1) in
        traced_spawn cl tr 0 "P1" (fun h ->
            R.store_int h a 1;
            R.mb h;
            R.store_int h f1 1;
            R.mb h;
            R.store_int h f2 1);
        traced_spawn cl tr 1 "P2" (fun h ->
            R.store_int h a 2;
            R.mb h;
            R.store_int h f3 1;
            R.mb h;
            R.store_int h f4 1);
        traced_spawn cl tr 2 "P3" (fun h ->
            spin h f1;
            spin h f3;
            R.mb h;
            r1 := R.load_int h a);
        traced_spawn cl tr 3 "P4" (fun h ->
            spin h f2;
            spin h f4;
            R.mb h;
            r2 := R.load_int h a);
        fun () ->
          (* Both readers waited for both writers' flags, so each must
             see the final winner of the a-race — and agree on it. *)
          if (!r1 = 1 && !r2 = 1) || (!r1 = 2 && !r2 = 2) then []
          else
            [
              Printf.sprintf "figure2: outcome (r1,r2)=(%d,%d) not in {(1,1),(2,2)}"
                !r1 !r2;
            ]);
  }

(** Message passing: data published behind a flag with an MB on each
    side; the reader must see the payload. *)
let message_passing =
  {
    name = "message-passing";
    model = Protocol.Config.Rc;
    full_sc = false;
    deadline = default_deadline;
    tweak = no_tweak;
    body =
      (fun cl tr ->
        let data = C.alloc cl 64 and flag = C.alloc cl 64 in
        let seen = ref (-1) in
        traced_spawn cl tr 0 "writer" (fun h ->
            R.store_int h data 42;
            R.mb h;
            R.store_int h flag 1);
        traced_spawn cl tr 2 "reader" (fun h ->
            spin h flag;
            R.mb h;
            seen := R.load_int h data);
        fun () ->
          if !seen = 42 then []
          else [ Printf.sprintf "message-passing: reader saw %d, expected 42" !seen ]);
  }

(** Dekker under Sc: store-then-load on crossed locations; sequential
    consistency forbids both processes reading 0. *)
let dekker =
  {
    name = "dekker";
    model = Protocol.Config.Sc;
    full_sc = true;
    deadline = default_deadline;
    tweak = no_tweak;
    body =
      (fun cl tr ->
        let x = C.alloc cl 64 and y = C.alloc cl 64 in
        let r1 = ref (-1) and r2 = ref (-1) in
        traced_spawn cl tr 0 "P0" (fun h ->
            R.store_int h x 1;
            r1 := R.load_int h y);
        traced_spawn cl tr 2 "P1" (fun h ->
            R.store_int h y 1;
            r2 := R.load_int h x);
        fun () ->
          if !r1 = 0 && !r2 = 0 then
            [ "dekker: (r1,r2)=(0,0) is forbidden under sequential consistency" ]
          else []);
  }

(** LL/SC atomicity: 4 processes × 25 fetch-and-adds must sum exactly. *)
let atomic_increment =
  {
    name = "atomic-increment";
    model = Protocol.Config.Rc;
    full_sc = false;
    deadline = default_deadline;
    tweak = no_tweak;
    body =
      (fun cl tr ->
        let counter = C.alloc cl 64 in
        for p = 0 to 3 do
          traced_spawn cl tr p (Printf.sprintf "inc%d" p) (fun h ->
              for _ = 1 to 25 do
                ignore (R.atomic_add h counter 1);
                R.work_cycles h 50
              done)
        done;
        fun () ->
          match Apps.Harness.read_valid cl counter with
          | Some 100L -> []
          | Some v ->
              [ Printf.sprintf "atomic-increment: counter = %Ld, expected 100" v ]
          | None ->
              [ "atomic-increment: no domain holds a valid copy of the counter" ]);
  }

(** Home migration: sequenced bursts of exclusive updates from two
    different domains make the block's directory entry migrate twice
    under the migratory policy while a third process polls the same
    block, so its read misses race the {!Protocol.Ptypes.Home_transfer}
    messages and exercise the bounce/forwarding-hint path.  Wherever the
    block's static home lies, at least one of the bursts comes from a
    remote domain, so a clean run always performs a transfer. *)
let home_transfer =
  let per = 6 in
  {
    name = "home-transfer";
    model = Protocol.Config.Rc;
    full_sc = false;
    deadline = default_deadline;
    tweak =
      (fun p ->
        {
          p with
          Protocol.Config.homing = Protocol.Config.Migratory;
          (* Threshold 1: a burst issues one exclusive request and then
             owns the block, so a longer streak never forms here. *)
          migration_threshold = 1;
        });
    body =
      (fun cl tr ->
        let x = C.alloc cl 64 and flag = C.alloc cl 64 in
        traced_spawn cl tr 0 "burst0" (fun h ->
            for _ = 1 to per do
              ignore (R.atomic_add h x 1);
              R.work_cycles h 40
            done;
            R.mb h;
            R.store_int h flag 1);
        traced_spawn cl tr 1 "burst1" (fun h ->
            spin h flag;
            for _ = 1 to per do
              ignore (R.atomic_add h x 1);
              R.work_cycles h 40
            done);
        traced_spawn cl tr 3 "watcher" (fun h ->
            while R.load_int h x < 2 * per do
              R.work_cycles h 30;
              R.flush h;
              Sim.Proc.work 1e-7
            done);
        fun () ->
          let errs = ref [] in
          (match Apps.Harness.read_valid cl x with
          | Some v when v = Int64.of_int (2 * per) -> ()
          | Some v ->
              errs :=
                Printf.sprintf "home-transfer: x = %Ld, expected %d" v (2 * per)
                :: !errs
          | None -> errs := "home-transfer: no domain holds a valid copy of x" :: !errs);
          let migrations, _bounces, in_flight =
            Protocol.Engine.migration_stats (C.protocol_engine cl)
          in
          if migrations < 1 then
            errs := "home-transfer: migratory policy performed no home transfer" :: !errs;
          if in_flight <> 0 then
            errs :=
              Printf.sprintf "home-transfer: %d home transfer(s) still in flight"
                in_flight
              :: !errs;
          List.rev !errs);
  }

let all = [ figure2; message_passing; dekker; atomic_increment; home_transfer ]

(** [as_scenario s] — adapt to the {!Explore} driver signature. *)
let as_scenario s schedule = (run s schedule).violations
