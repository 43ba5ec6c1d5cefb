(** Schedule-exploration drivers.

    A {e scenario} here is a function from a {!Sim.Engine.schedule} to
    the list of violations that run produced (empty = clean).  It must
    build a fresh cluster on every call, so runs are independent and —
    given the same schedule — bit-identical, which is what lets a
    violating seed from CI be replayed locally.

    All drivers (seeded sampling with optional jitter, bounded
    exhaustive, and {!Dpor.explore}) run the scenario under
    {!Sim.Engine.Guided} with a chooser from this module or DPOR's own,
    and return the same {!result}: the failures plus
    {!stats} saying how many runs were spent, whether the search space
    was covered completely, and how many Mazurkiewicz equivalence
    classes ({!Vclock.class_signature}) the explored runs fell into —
    the ratio of runs to classes is the driver's redundancy. *)

type failure = {
  f_schedule : string;  (** how to reproduce: the schedule, printably *)
  f_seed : int option;  (** the seed, for seeded/jittered schedules *)
  f_violations : string list;
}

type stats = {
  s_runs : int;
  s_complete : bool;
      (** the whole (possibly bounded) search space was covered: every
          schedule not explored is equivalent to one that was.  Always
          false for the sampling drivers. *)
  s_truncated : bool;
      (** part of the space was silently cut: choice points past the
          exhaustive driver's [max_depth], or branches pruned by the
          DPOR preemption bound *)
  s_classes : int;
      (** distinct equivalence classes among completed runs *)
  s_choice_points : int;  (** deepest multi-candidate tie-set seen *)
}

type result = { failures : failure list; stats : stats }

(* --- the result tally every driver keeps --- *)

(* Runs started, the deepest multi-candidate tie-set seen, the classes
   of the runs that completed and their failures (newest first).  A
   driver bumps [t_runs] as it starts a run and hands a completed run to
   {!settle}; {!result_of} turns the tally into the common {!result}. *)
type tally = {
  mutable t_runs : int;
  mutable t_deepest : int;
  mutable t_failures : failure list;
  t_classes : (int, unit) Hashtbl.t;
}

let tally () = { t_runs = 0; t_deepest = 0; t_failures = []; t_classes = Hashtbl.create 64 }

(** [settle t ~depth ~labels ?seed ~schedule violations] — account one
    completed run: [depth] multi-candidate tie-sets, [labels] fired
    (newest first) and its violations; [schedule ()] names a failing
    run. *)
let settle t ~depth ~labels ?seed ~schedule violations =
  Hashtbl.replace t.t_classes (Vclock.class_signature (Array.of_list (List.rev labels))) ();
  if depth > t.t_deepest then t.t_deepest <- depth;
  if violations <> [] then
    t.t_failures <-
      { f_schedule = schedule (); f_seed = seed; f_violations = violations } :: t.t_failures

let result_of t ~complete ~truncated =
  {
    failures = List.rev t.t_failures;
    stats =
      {
        s_runs = t.t_runs;
        s_complete = complete;
        s_truncated = truncated;
        s_classes = Hashtbl.length t.t_classes;
        s_choice_points = t.t_deepest;
      };
  }

(* --- stock choosers for {!Sim.Engine.Guided} --- *)

(** [seeded rng] — the stock random chooser: a uniform pick from each
    multi-candidate tie-set, drawn from [rng].  Singletons draw nothing,
    so over [Rng.create k] it fires ties in exactly the permutation the
    engine's former per-seed schedule produced. *)
let seeded rng (cands : Sim.Engine.choice array) =
  let n = Array.length cands in
  if n = 1 then 0 else Sim.Rng.int rng n

(** [decisions ds] — a single-use chooser replaying decision vector
    [ds]: the [k]-th multi-candidate tie-set takes index [ds.(k)] (0
    past the end; singletons draw nothing). *)
let decisions ds =
  let ds = Array.of_list ds in
  let k = ref 0 in
  fun (cands : Sim.Engine.choice array) ->
    if Array.length cands = 1 then 0
    else begin
      let i = if !k < Array.length ds then ds.(!k) else 0 in
      incr k;
      i
    end

(** [schedule_of_decisions ds] — a single-use schedule replaying [ds]
    through {!decisions}.  This is how an [Exhaustive [...]] or
    [Dpor [...]] failure line is replayed locally. *)
let schedule_of_decisions ds =
  Sim.Engine.Guided { choose = decisions ds; jitter = None }

(** The delay injection of [litmus --jitter], as [(prob, max_delay)]:
    a quarter of all events delayed by up to 2 us, about one Memory
    Channel hop. *)
let default_jitter = (0.25, 2.0e-6)

(** [seed_schedule ?jitter seed] — the schedule {!seeds} runs as
    [seed]: FIFO for seed 0, otherwise the {!seeded} chooser.  With
    [jitter = (prob, max_delay)] the engine draws delays from
    [Rng.create seed] and the chooser draws from a stream split off it,
    so tie order and delays stay independent.  This is how a reported
    seed is replayed locally. *)
let seed_schedule ?jitter seed =
  if seed = 0 then Sim.Engine.Fifo
  else
    let rng = Sim.Rng.create seed in
    match jitter with
    | None -> Sim.Engine.Guided { choose = seeded rng; jitter = None }
    | Some (prob, max_delay) ->
        Sim.Engine.Guided
          {
            choose = seeded (Sim.Rng.split rng);
            jitter = Some { Sim.Engine.seed; prob; max_delay };
          }

(** [seeds ?base ?jitter ~n scenario] — the seeded driver: FIFO as seed
    0, then seeds [base .. base+n-1] under {!seed_schedule} (so [n + 1]
    runs).  Every run goes through a chooser that records the fired
    labels, so class statistics are reported for jittered runs too;
    FIFO is observed as the chooser that always fires the oldest
    candidate, which is the same order.  Failures print their seed and
    replay under [seed_schedule ?jitter seed]. *)
let seeds ?(base = 1) ?jitter ~n scenario =
  let t = tally () in
  let run seed =
    t.t_runs <- t.t_runs + 1;
    let labels = ref [] in
    let depth = ref 0 in
    let observed choose (cands : Sim.Engine.choice array) =
      let i = choose cands in
      if Array.length cands > 1 then incr depth;
      labels := cands.(i).Sim.Engine.ch_label :: !labels;
      i
    in
    let schedule =
      match seed_schedule ?jitter seed with
      | Sim.Engine.Fifo -> Sim.Engine.Guided { choose = observed (fun _ -> 0); jitter = None }
      | Sim.Engine.Guided g -> Sim.Engine.Guided { g with choose = observed g.choose }
    in
    let violations = scenario schedule in
    settle t ~depth:!depth ~labels:!labels ~seed violations ~schedule:(fun () ->
        if seed = 0 then "fifo"
        else
          match jitter with
          | None -> Printf.sprintf "seed %d" seed
          | Some (prob, max_delay) ->
              Printf.sprintf "seed %d, jitter prob %g max_delay %g" seed prob max_delay)
  in
  List.iter run (0 :: List.init n (fun k -> base + k));
  result_of t ~complete:false ~truncated:false

(** [exhaustive ?max_runs ?max_depth scenario] — bounded DFS over
    tie-break decision vectors.  The first [max_depth] multi-candidate
    tie-sets of a run are choice points enumerated lexicographically,
    replayed from scratch each run.  Choice points beyond [max_depth]
    collapse to index 0; when that happens the result carries
    [s_truncated = true] — covering the bounded tree ([s_runs] within
    [max_runs]) is then {e not} full coverage, and [s_complete] stays
    false. *)
let exhaustive ?(max_runs = 200) ?(max_depth = 8) scenario =
  let t = tally () in
  let truncated = ref false in
  let prefix = ref (Some []) in
  while !prefix <> None && t.t_runs < max_runs do
    let p = Option.get !prefix in
    t.t_runs <- t.t_runs + 1;
    let sizes = Hashtbl.create 32 in
    let pos = ref 0 in
    let labels = ref [] in
    let replay = decisions p in
    let chooser (cands : Sim.Engine.choice array) =
      let n = Array.length cands in
      if n > 1 then begin
        if !pos < max_depth then Hashtbl.replace sizes !pos n else truncated := true;
        incr pos
      end;
      let i = min (replay cands) (n - 1) in
      labels := cands.(i).Sim.Engine.ch_label :: !labels;
      i
    in
    let violations = scenario (Sim.Engine.Guided { choose = chooser; jitter = None }) in
    settle t ~depth:!pos ~labels:!labels violations ~schedule:(fun () ->
        Printf.sprintf "Exhaustive [%s]" (String.concat ";" (List.map string_of_int p)));
    (* Lexicographic successor of the decision vector actually used. *)
    let depth = min !pos max_depth in
    let d_at i = Option.value (List.nth_opt p i) ~default:0 in
    let size_at i = Option.value (Hashtbl.find_opt sizes i) ~default:1 in
    let rec next i =
      if i < 0 then None
      else if d_at i + 1 < size_at i then
        Some (List.init (i + 1) (fun j -> if j = i then d_at j + 1 else d_at j))
      else next (i - 1)
    in
    prefix := next (depth - 1)
  done;
  result_of t ~complete:(!prefix = None && not !truncated) ~truncated:!truncated
