(** Mutation harness: seed deliberate bugs and prove the checking
    layers convict them.

    Every family of seeded bugs goes through one conviction sweep,
    {!sweep}.  A family is data: its mutations, the targets it seeds
    them into, how a target yields trials, and the checker that judges a
    trial.  A mutation counts as caught only by a trial that both
    {e fired} the bug (the mutated code path executed, or a site
    matched) and was convicted — a conviction where the bug never
    triggered would be a false alarm, not a catch. *)

(* --- the one conviction sweep --- *)

(** A family of seeded mutations.  [trials m target k] hands [k] every
    trial of mutation [m] on [target], in order: [Some o] when the
    mutation fired in that trial, [o] being what [convicts] judges, and
    [None] when it did not.  [convicts] is a field so a test can
    substitute its own checker.  [title] names the family and what
    convicts it, [noun] what one trial is (["run"], ["site"]); both
    label the family's {!table}. *)
type ('m, 't, 'o) family = {
  mutations : ('m * string) list;
  targets : (string * 't) list;
  trials : 'm -> 't -> ('o option -> unit) -> unit;
  convicts : 'o -> bool;
  title : string;
  noun : string;
}

type report = {
  label : string;
  caught : (string * int) option;
      (** [(target, trial)] of the first conviction, [trial] counting
          from 0 within that target: the site index for program
          rewrites, the run of the explorer (0 = FIFO under
          {!Explore.seeds}) for protocol bugs *)
  fired : bool;  (** the mutation fired in at least one trial *)
  spent : int;  (** trials run before the conviction (or giving up) *)
}

(** [sweep family] — for each mutation, walk the targets in order and
    stop at the first trial that fired and was convicted.  The stop is
    an exception raised from inside [trials], which every trial source
    (the site loop, each explorer) lets escape, so [spent] is exactly
    the trials run to conviction. *)
let sweep f =
  List.map
    (fun (m, label) ->
      let caught = ref None in
      let fired = ref false in
      let spent = ref 0 in
      let exception Convicted in
      (try
         List.iter
           (fun (name, target) ->
             let trial = ref 0 in
             f.trials m target (fun o ->
                 incr spent;
                 (match o with
                 | Some o ->
                     fired := true;
                     if f.convicts o then begin
                       caught := Some (name, !trial);
                       raise Convicted
                     end
                 | None -> ());
                 incr trial))
           f.targets
       with Convicted -> ());
      { label; caught = !caught; fired = !fired; spent = !spent })
    f.mutations

let all_caught reports = List.for_all (fun r -> r.caught <> None) reports

(** [table family reports] — one row per mutation: its verdict
    ([caught], or [MISSED] with whether the bug ever fired), the target
    and trial of the conviction, and the trials spent. *)
let table f reports =
  let row r =
    ( r.label,
      match r.caught with
      | Some (target, trial) -> Sim.Stats.[ Str "caught"; Str target; Int trial; Int r.spent ]
      | None ->
          Sim.Stats.
            [ Str (if r.fired then "MISSED (fired)" else "MISSED (never fired)"); Str "-"; Str "-";
              Int r.spent ] )
  in
  {
    Sim.Stats.title = f.title;
    columns = [ "mutation"; "verdict"; "target"; f.noun; "trials" ];
    rows = List.map row reports;
  }

(* --- protocol mutations ---

   The seeded coherence-engine bugs ({!Protocol.Engine.mutation}),
   convicted by the checking layers of {!Litmus.run}: the invariant
   checker, the quiescence sweep, the outcome check and the SC oracle. *)

(** [protocol ~explore ?scenarios ()] — every seeded protocol bug over
    the litmus [scenarios] (default {!Litmus.all}); a scenario's trials
    are the runs [explore] drives it through ({!Explore.seeds},
    {!Explore.exhaustive} or {!Dpor.explore}), and a run convicts when
    any layer reported a violation. *)
let protocol ~explore ?(scenarios = Litmus.all) () =
  {
    mutations =
      [
        (Protocol.Engine.Skip_invalidate, "skip-invalidate");
        (Protocol.Engine.Skip_inval_ack, "skip-inval-ack");
        (Protocol.Engine.Keep_private_on_recall, "keep-private-on-recall");
        (Protocol.Engine.Skip_one_invalidation, "skip-one-invalidation");
        (Protocol.Engine.Wrong_block_extent, "wrong-block-extent");
      ];
    targets = List.map (fun (sc : Litmus.scenario) -> (sc.Litmus.name, sc)) scenarios;
    trials =
      (fun mutation sc k ->
        ignore
          (explore (fun schedule ->
               let o = Litmus.run ~mutation sc schedule in
               k (if o.Litmus.mutation_fired > 0 then Some o else None);
               o.Litmus.violations)));
    convicts = (fun o -> o.Litmus.violations <> []);
    title = "protocol mutations (convicted by the litmus checking layers)";
    noun = "run";
  }

(* --- program-rewrite mutations ---

   The instrumenter and sync families seed bugs into programs; the site
   index plays the role of the seed.  Both walk a program with the same
   site walker and differ only in which instruction patterns are sites
   and how a site is rewritten. *)

(* [rewrite_site rule ~site prog]: [rule insns] is
   [Some (replacement, rest)] when the head of [insns] is an applicable
   site — rewriting it emits [replacement] and resumes at [rest] — and
   [None] otherwise.  Rewrites the [site]-th applicable site and returns
   the program, whether that site exists (the mutation fired), and the
   number of applicable sites, so callers can sweep them all. *)
let rewrite_site rule ~site prog =
  let sites = ref 0 in
  let rec go = function
    | [] -> []
    | x :: rest as insns -> (
        match rule insns with
        | Some (replacement, resume) when !sites = site ->
            incr sites;
            replacement @ go resume
        | Some _ ->
            incr sites;
            x :: go rest
        | None -> x :: go rest)
  in
  let prog' = Alpha.Program.map_procedures prog (fun p -> go (Alpha.Program.to_insn_list p)) in
  (prog', site >= 0 && site < !sites, !sites)

(* Every applicable site of [m] in [prog], in order. *)
let site_trials apply m prog k =
  let _, _, nsites = apply m ~site:(-1) prog in
  for site = 0 to nsites - 1 do
    let prog', fired, _ = apply m ~site prog in
    k (if fired then Some prog' else None)
  done

(* --- instrumenter mutations ---

   Bugs in the {e rewriter} output, convicted statically by the
   translation validator ({!Rewrite.Verify}) — no run needed. *)

type imutation =
  | Drop_check  (** delete one check pseudo-instruction *)
  | Wrong_width  (** narrow a 64-bit check guarding a 64-bit access to 32-bit *)
  | Check_after_poll  (** swap an adjacent [Poll; check] pair — the pre-fix pass-3 ordering bug *)
  | Wrong_batch_base  (** point one batch entry at the wrong base register *)

let all_imutations =
  [
    (Drop_check, "drop-check");
    (Wrong_width, "wrong-width");
    (Check_after_poll, "check-after-poll");
    (Wrong_batch_base, "wrong-batch-base");
  ]

let is_check = function
  | Alpha.Insn.Load_check _ | Alpha.Insn.Store_check _ | Alpha.Insn.Batch_check _
  | Alpha.Insn.Ll_check _ | Alpha.Insn.Sc_check _ ->
      true
  | _ -> false

let imutation_site m insns =
  let module I = Alpha.Insn in
  let rec narrow_first = function
    | [] -> []
    | e :: es when e.I.b_width = I.W64 -> { e with I.b_width = I.W32 } :: es
    | e :: es -> e :: narrow_first es
  in
  match (m, insns) with
  | Drop_check, x :: rest when is_check x -> Some ([], rest)
  | Wrong_width, I.Load_check (I.W64, d, off, b) :: rest ->
      Some ([ I.Load_check (I.W32, d, off, b) ], rest)
  | Wrong_width, I.Store_check (I.W64, off, b) :: rest -> Some ([ I.Store_check (I.W32, off, b) ], rest)
  | Wrong_width, I.Sc_check (I.W64, r, off, b) :: rest ->
      Some ([ I.Sc_check (I.W32, r, off, b) ], rest)
  | Wrong_width, I.Batch_check es :: rest when List.exists (fun e -> e.I.b_width = I.W64) es ->
      Some ([ I.Batch_check (narrow_first es) ], rest)
  | Check_after_poll, I.Poll :: c :: rest when is_check c -> Some ([ c; I.Poll ], rest)
  | Wrong_batch_base, I.Batch_check (e :: es) :: rest ->
      let wrong = if e.I.b_base <> 1 then 1 else 2 in
      Some ([ I.Batch_check ({ e with I.b_base = wrong } :: es) ], rest)
  | _ -> None

(** [apply_imutation m ~site program] — rewrite the [site]-th applicable
    site of an {e instrumented} program.  Returns the mutated program,
    whether the mutation fired (a site matched), and the total number of
    applicable sites (so callers can sweep them all). *)
let apply_imutation m ~site prog = rewrite_site (imutation_site m) ~site prog

(** [instrumenter ?options ()] — every instrumenter mutation over the IR
    corpus instrumented under [options]; the trials are every applicable
    site, and a site convicts when the validator draws a diagnostic. *)
let instrumenter ?(options = Rewrite.Instrument.default_options) () =
  {
    mutations = all_imutations;
    targets =
      List.map
        (fun (e : Apps.Ircorpus.entry) ->
          (e.Apps.Ircorpus.e_name, fst (Rewrite.Instrument.instrument ~options e.Apps.Ircorpus.e_program)))
        Apps.Ircorpus.all;
    trials = site_trials apply_imutation;
    convicts = (fun prog -> not (Rewrite.Verify.ok (Rewrite.Verify.verify prog)));
    title = "instrumenter mutations (convicted by the translation validator)";
    noun = "site";
  }

(* --- sync (race) mutations ---

   Synchronisation bugs in the application itself — the four classic
   ways properly-synchronised SPMD code goes wrong — convicted by the
   static race detector ({!Rewrite.Races}).  The substrate is the sync
   corpus ({!Apps.Ircorpus.sync}), whose kernels are race-free as
   written, so any conviction is attributable to the mutation. *)

type smutation =
  | Drop_lock  (** delete one [sync_lock] call: its critical section runs bare *)
  | Wrong_lock_id  (** acquire a different lock than the data's convention *)
  | Drop_barrier  (** elide one [sync_barrier] call: phases collapse *)
  | Publish_after_barrier
      (** move a store from before a barrier to after it — the publish
          lands in the readers' phase (a phase-skew, not a missing
          barrier) *)

let all_smutations =
  [
    (Drop_lock, "drop-lock");
    (Wrong_lock_id, "wrong-lock-id");
    (Drop_barrier, "barrier-elided");
    (Publish_after_barrier, "phase-skewed-publish");
  ]

let smutation_site m insns =
  let module I = Alpha.Insn in
  let lock = Alpha.Runtime.sync_lock_proc and barrier = Alpha.Runtime.sync_barrier_proc in
  (* Straight-line separators a publish may be carried across: constant
     loads, register moves/arithmetic, and labels (the store must stay
     on its own side of any branch, so control flow ends the search). *)
  let rec split_to_barrier acc = function
    | ((I.Li _ | I.Binop _ | I.Label _) as x) :: rest -> split_to_barrier (x :: acc) rest
    | I.Call n :: rest when n = barrier -> Some (List.rev acc, rest)
    | _ -> None
  in
  match (m, insns) with
  | Drop_lock, I.Call n :: rest when n = lock -> Some ([], rest)
  | Wrong_lock_id, I.Li (r, v) :: (I.Call n :: _ as rest) when r = 16 (* a0 *) && n = lock ->
      Some ([ I.Li (r, Int64.add v 1L) ], rest)
  | Drop_barrier, I.Call n :: rest when n = barrier -> Some ([], rest)
  | Publish_after_barrier, (I.St _ as st) :: rest ->
      Option.map (fun (sep, tail) -> (sep @ [ I.Call barrier; st ], tail)) (split_to_barrier [] rest)
  | _ -> None

(** [apply_smutation m ~site program] — rewrite the [site]-th applicable
    site, on the same (mutated program, fired, sites) contract as
    {!apply_imutation}.  Works on uninstrumented programs: the sync
    calls are in the source kernel, not inserted by the rewriter. *)
let apply_smutation m ~site prog = rewrite_site (smutation_site m) ~site prog

(** [sync ?nprocs ()] — every sync mutation over the sync corpus; the
    trials are every applicable site, and a site convicts when the race
    detector, reasoning about [nprocs] threads (any count >= 2 should
    convict), reports a race. *)
let sync ?(nprocs = 4) () =
  {
    mutations = all_smutations;
    targets =
      List.map
        (fun (e : Apps.Ircorpus.entry) -> (e.Apps.Ircorpus.e_name, e.Apps.Ircorpus.e_program))
        Apps.Ircorpus.sync;
    trials = site_trials apply_smutation;
    (* The name only labels the detector's report. *)
    convicts =
      (fun prog -> (Rewrite.Races.analyze ~nprocs prog).Rewrite.Races.rep_races <> []);
    title = "sync mutations (convicted by the race detector)";
    noun = "site";
  }

(* --- decoded-form mutations ---

   Seeded corruptions of the interpreter's decoded form, each of which
   the validator ({!Rewrite.Batch}) must convict:
   - batch-boundary: a pure run lengthened by one instruction, so the
     batched main loop would execute the dispatch point that follows
     it — a poll, a check, a memory access — as if it were register
     arithmetic;
   - register-past-file: a register operand moved past the register
     file, which the loop would read or write unchecked. *)

type dmutation = Batch_boundary | Register_past_file

(** [swallow_dispatch proc] — [proc]'s freshly decoded form with its
    first extensible pure run grown by one, or [None] when the
    procedure has no pure run followed by another instruction. *)
let swallow_dispatch (proc : Alpha.Program.procedure) =
  let m = Alpha.Interp.decode proc in
  let n = Array.length proc.Alpha.Program.code in
  let pure = Array.copy m.Alpha.Interp.m_pure in
  match List.find_opt (fun pc -> pure.(pc) > 0 && pc + pure.(pc) < n) (List.init n Fun.id) with
  | None -> None
  | Some pc ->
      pure.(pc) <- pure.(pc) + 1;
      Some (pc, { m with Alpha.Interp.m_pure = pure })

(** [register_past_file proc] — [proc]'s freshly decoded form with the
    destination of its first load-immediate moved one slot past the
    register file, or [None] when it has no load-immediate. *)
let register_past_file (proc : Alpha.Program.procedure) =
  let m = Alpha.Interp.decode proc in
  let ops = Array.copy m.Alpha.Interp.m_ops in
  List.find_map
    (fun pc ->
      match ops.(pc) with
      | Alpha.Interp.Li (_, v) ->
          ops.(pc) <- Alpha.Interp.Li (Alpha.Interp.sink + 1, v);
          Some (pc, { m with Alpha.Interp.m_ops = ops })
      | _ -> None)
    (List.init (Array.length ops) Fun.id)

(** [batch targets] — the decoded-form mutations over named programs; a
    program's trials are its procedures, one firing where the mutation
    finds a site, and convicting when the validator reports a violation
    of the corrupted form. *)
let batch targets =
  {
    mutations = [ (Batch_boundary, "batch-boundary"); (Register_past_file, "register-past-file") ];
    targets;
    trials =
      (fun mu prog k ->
        let seed =
          match mu with
          | Batch_boundary -> swallow_dispatch
          | Register_past_file -> register_past_file
        in
        List.iter
          (fun p -> k (Option.map (fun (_, meta) -> (p, meta)) (seed p)))
          (Alpha.Program.procedures prog));
    convicts = (fun (p, meta) -> Rewrite.Batch.validate_meta p meta <> []);
    title = "decoded-form mutations (convicted by the batch validator)";
    noun = "procedure";
  }
