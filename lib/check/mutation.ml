(** Mutation harness: seed each deliberate protocol bug
    ({!Protocol.Config.mutation}) and prove the checking layers catch
    it.  A mutation counts as caught only when a run both {e fired} the
    bug (the mutated code path executed) and reported a violation —
    a violation in a run where the bug never triggered would be a false
    alarm, not a catch. *)

type report = {
  m_mutation : Protocol.Config.mutation;
  m_label : string;
  m_caught : (string * int) option;
      (** [(scenario, run)] of the first catching run, [run] counting
          from 0 within that scenario's exploration; under {!hunt} it is
          the seed (0 = FIFO) *)
  m_fired : bool;  (** the mutated path executed at least once *)
  m_runs : int;  (** runs spent before the catch (or giving up) *)
}

let all_mutations =
  [
    (Protocol.Config.Skip_invalidate, "skip-invalidate");
    (Protocol.Config.Skip_inval_ack, "skip-inval-ack");
    (Protocol.Config.Keep_private_on_recall, "keep-private-on-recall");
    (Protocol.Config.Skip_one_invalidation, "skip-one-invalidation");
    (Protocol.Config.Wrong_block_extent, "wrong-block-extent");
  ]

let all_caught reports = List.for_all (fun r -> r.m_caught <> None) reports

(* Shared driver for the hunts: [explore] runs one scenario function
   under an exploration driver; the wrapped scenario counts runs and
   raises [Exit] on the first convicting run (a run where the bug fired
   {e and} a checking layer reported a violation), which aborts the
   driver early — every driver lets an exception from the scenario
   escape, so [m_runs] is exactly runs-to-conviction. *)
let hunt_systematic ~explore ?(scenarios = Litmus.all) () =
  List.map
    (fun (mutation, label) ->
      let caught = ref None in
      let fired = ref false in
      let runs = ref 0 in
      (try
         List.iter
           (fun (sc : Litmus.scenario) ->
             let run = ref 0 in
             let scenario schedule =
               incr runs;
               incr run;
               let o = Litmus.run ~mutation sc schedule in
               if o.Litmus.mutation_fired > 0 then begin
                 fired := true;
                 if o.Litmus.violations <> [] then begin
                   caught := Some (sc.Litmus.name, !run - 1);
                   raise Exit
                 end
               end;
               o.Litmus.violations
             in
             ignore (explore scenario))
           scenarios
       with Exit -> ());
      {
        m_mutation = mutation;
        m_label = label;
        m_caught = !caught;
        m_fired = !fired;
        m_runs = !runs;
      })
    all_mutations

(** [hunt ?seeds ?scenarios ()] — for each mutation, run every scenario
    under {!Explore.seeds} (FIFO, then seeds [1..seeds]) until a run
    catches it. *)
let hunt ?(seeds = 64) ?scenarios () =
  hunt_systematic ~explore:(Explore.seeds ~n:seeds) ?scenarios ()

(** [hunt_dpor ?max_runs ?scenarios ()] — convict every protocol
    mutation under the DPOR driver.  [m_runs] is the number of runs
    spent before the first conviction. *)
let hunt_dpor ?(max_runs = 400) ?scenarios () =
  hunt_systematic ~explore:(fun s -> Dpor.explore ~max_runs s) ?scenarios ()

(** [hunt_exhaustive ?max_runs ?max_depth ?scenarios ()] — the same
    conviction sweep under the bounded-exhaustive driver, for run-count
    comparisons against {!hunt_dpor}. *)
let hunt_exhaustive ?(max_runs = 400) ?(max_depth = 8) ?scenarios () =
  hunt_systematic
    ~explore:(fun s -> Explore.exhaustive ~max_runs ~max_depth s)
    ?scenarios ()

(* --- instrumenter mutations ---

   The protocol mutations above seed bugs in the coherence engine; these
   seed bugs in the {e rewriter} output and ask the translation
   validator ({!Rewrite.Verify}) to convict them statically — no run
   needed.  Each mutation family has many possible sites per program;
   the site index plays the role of the seed, and a family counts as
   caught only when a site that actually changed the code (fired) draws
   a diagnostic. *)

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

(** [apply_imutation m ~site program] — rewrite the [site]-th applicable
    site of an {e instrumented} program.  Returns the mutated program,
    whether the mutation fired (a site matched), and the total number of
    applicable sites (so callers can sweep them all). *)
let apply_imutation m ~site (prog : Alpha.Program.t) =
  let counter = ref (-1) in
  let fired = ref false in
  let hit () =
    incr counter;
    if !counter = site then begin
      fired := true;
      true
    end
    else false
  in
  let module I = Alpha.Insn in
  let rec go insns =
    match insns with
    | [] -> []
    | x :: rest -> (
        match (m, x, rest) with
        | Drop_check, x, _ when is_check x -> if hit () then go rest else x :: go rest
        | Wrong_width, I.Load_check (I.W64, d, off, b), _ ->
            if hit () then I.Load_check (I.W32, d, off, b) :: go rest else x :: go rest
        | Wrong_width, I.Store_check (I.W64, off, b), _ ->
            if hit () then I.Store_check (I.W32, off, b) :: go rest else x :: go rest
        | Wrong_width, I.Sc_check (I.W64, r, off, b), _ ->
            if hit () then I.Sc_check (I.W32, r, off, b) :: go rest else x :: go rest
        | Wrong_width, I.Batch_check es, _
          when List.exists (fun e -> e.I.b_width = I.W64) es ->
            if hit () then begin
              let narrowed = ref false in
              let es' =
                List.map
                  (fun e ->
                    if (not !narrowed) && e.I.b_width = I.W64 then begin
                      narrowed := true;
                      { e with I.b_width = I.W32 }
                    end
                    else e)
                  es
              in
              I.Batch_check es' :: go rest
            end
            else x :: go rest
        | Check_after_poll, I.Poll, c :: r2 when is_check c ->
            if hit () then c :: I.Poll :: go r2 else x :: go rest
        | Wrong_batch_base, I.Batch_check (e :: es), _ ->
            if hit () then begin
              let wrong = if e.I.b_base <> 1 then 1 else 2 in
              I.Batch_check ({ e with I.b_base = wrong } :: es) :: go rest
            end
            else x :: go rest
        | _ -> x :: go rest)
  in
  let prog' =
    Alpha.Program.map_procedures prog (fun p -> go (Alpha.Program.to_insn_list p))
  in
  (prog', !fired, !counter + 1)

type ireport = {
  i_mutation : imutation;
  i_label : string;
  i_caught : (string * int) option;  (** [(kernel, site)] of the first conviction *)
  i_fired : bool;
  i_sites : int;  (** fired sites examined before the catch (or giving up) *)
}

(** [hunt_instrumenter ()] — for each instrumenter-mutation family,
    sweep every applicable site of every instrumented corpus kernel
    until the validator convicts one. *)
let hunt_instrumenter ?(options = Rewrite.Instrument.default_options) () =
  let corpus =
    List.map
      (fun (e : Apps.Ircorpus.entry) ->
        let instrumented, _ = Rewrite.Instrument.instrument ~options e.Apps.Ircorpus.e_program in
        (e.Apps.Ircorpus.e_name, instrumented))
      Apps.Ircorpus.all
  in
  List.map
    (fun (m, label) ->
      let caught = ref None in
      let fired = ref false in
      let examined = ref 0 in
      (try
         List.iter
           (fun (name, instrumented) ->
             let _, _, nsites = apply_imutation m ~site:(-1) instrumented in
             for site = 0 to nsites - 1 do
               let prog', f, _ = apply_imutation m ~site instrumented in
               if f then begin
                 fired := true;
                 incr examined;
                 if not (Rewrite.Verify.ok (Rewrite.Verify.verify prog')) then begin
                   caught := Some (name, site);
                   raise Exit
                 end
               end
             done)
           corpus
       with Exit -> ());
      { i_mutation = m; i_label = label; i_caught = !caught; i_fired = !fired; i_sites = !examined })
    all_imutations

let all_icaught reports = List.for_all (fun r -> r.i_caught <> None) reports

let pp_ireport ppf r =
  match r.i_caught with
  | Some (kernel, site) ->
      Format.fprintf ppf "%-18s caught by the validator in %s at site %d (%d site%s)" r.i_label
        kernel site r.i_sites
        (if r.i_sites = 1 then "" else "s")
  | None ->
      Format.fprintf ppf "%-18s MISSED after %d sites (mutation %s)" r.i_label r.i_sites
        (if r.i_fired then "fired but drew no diagnostic" else "never fired")

let pp_report ppf r =
  match r.m_caught with
  | Some (scenario, run) ->
      Format.fprintf ppf "%-24s caught by %s at run %d (%d run%s)" r.m_label
        scenario run r.m_runs
        (if r.m_runs = 1 then "" else "s")
  | None ->
      Format.fprintf ppf "%-24s MISSED after %d runs (bug %s)" r.m_label r.m_runs
        (if r.m_fired then "fired but was never detected" else "never even fired")

(* --- sync (race) mutations ---

   The protocol and instrumenter mutations seed bugs under and around
   the application; these seed {e synchronisation} bugs in the
   application itself — the four classic ways properly-synchronised
   SPMD code goes wrong — and ask the static race detector
   ({!Rewrite.Races}) to convict them, again with the site index as the
   seed.  The substrate is the sync corpus ({!Apps.Ircorpus.sync}),
   whose kernels are race-free as written, so any conviction is
   attributable to the mutation. *)

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

(** [apply_smutation m ~site program] — rewrite the [site]-th applicable
    site, on the same (mutated program, fired, sites) contract as
    {!apply_imutation}.  Works on uninstrumented programs: the sync
    calls are in the source kernel, not inserted by the rewriter. *)
let apply_smutation m ~site (prog : Alpha.Program.t) =
  let counter = ref (-1) in
  let fired = ref false in
  let hit () =
    incr counter;
    if !counter = site then begin
      fired := true;
      true
    end
    else false
  in
  let module I = Alpha.Insn in
  (* Straight-line separators a publish may be carried across: constant
     loads, register moves/arithmetic, and labels (the store must stay
     on its own side of any branch, so control flow ends the search). *)
  let rec split_to_barrier acc = function
    | ((I.Li _ | I.Binop _ | I.Label _) as x) :: rest -> split_to_barrier (x :: acc) rest
    | I.Call n :: rest when n = Alpha.Runtime.sync_barrier_proc ->
        Some (List.rev acc, rest)
    | _ -> None
  in
  let rec go insns =
    match insns with
    | [] -> []
    | x :: rest -> (
        match (m, x, rest) with
        | Drop_lock, I.Call n, _ when n = Alpha.Runtime.sync_lock_proc ->
            if hit () then go rest else x :: go rest
        | Wrong_lock_id, I.Li (r, v), I.Call n :: _
          when r = 16 (* a0 *) && n = Alpha.Runtime.sync_lock_proc ->
            if hit () then I.Li (r, Int64.add v 1L) :: go rest else x :: go rest
        | Drop_barrier, I.Call n, _ when n = Alpha.Runtime.sync_barrier_proc ->
            if hit () then go rest else x :: go rest
        | Publish_after_barrier, (I.St _ as st), _ -> (
            match split_to_barrier [] rest with
            | Some (sep, tail) ->
                if hit () then
                  sep @ (I.Call Alpha.Runtime.sync_barrier_proc :: st :: go tail)
                else st :: go rest
            | None -> st :: go rest)
        | _ -> x :: go rest)
  in
  let prog' =
    Alpha.Program.map_procedures prog (fun p -> go (Alpha.Program.to_insn_list p))
  in
  (prog', !fired, !counter + 1)

type sreport = {
  s_mutation : smutation;
  s_label : string;
  s_caught : (string * int) option;  (** [(kernel, site)] of the first conviction *)
  s_fired : bool;
  s_sites : int;  (** fired sites examined before the catch (or giving up) *)
}

(** [hunt_sync ()] — for each sync-mutation family, sweep every
    applicable site of every sync-corpus kernel until the static race
    detector convicts one.  [nprocs] is the thread count the detector
    reasons about (any count >= 2 should convict). *)
let hunt_sync ?(nprocs = 4) () =
  let corpus =
    List.map (fun (e : Apps.Ircorpus.entry) -> (e.Apps.Ircorpus.e_name, e.Apps.Ircorpus.e_program)) Apps.Ircorpus.sync
  in
  List.map
    (fun (m, label) ->
      let caught = ref None in
      let fired = ref false in
      let examined = ref 0 in
      (try
         List.iter
           (fun (name, prog) ->
             let _, _, nsites = apply_smutation m ~site:(-1) prog in
             for site = 0 to nsites - 1 do
               let prog', f, _ = apply_smutation m ~site prog in
               if f then begin
                 fired := true;
                 incr examined;
                 let r = Rewrite.Races.analyze ~nprocs ~name prog' in
                 if r.Rewrite.Races.rep_races <> [] then begin
                   caught := Some (name, site);
                   raise Exit
                 end
               end
             done)
           corpus
       with Exit -> ());
      { s_mutation = m; s_label = label; s_caught = !caught; s_fired = !fired; s_sites = !examined })
    all_smutations

let all_scaught reports = List.for_all (fun r -> r.s_caught <> None) reports

let pp_sreport ppf r =
  match r.s_caught with
  | Some (kernel, site) ->
      Format.fprintf ppf "%-20s caught by the race detector in %s at site %d (%d site%s)"
        r.s_label kernel site r.s_sites
        (if r.s_sites = 1 then "" else "s")
  | None ->
      Format.fprintf ppf "%-20s MISSED after %d sites (mutation %s)" r.s_label r.s_sites
        (if r.s_fired then "fired but drew no race report" else "never fired")

(* --- batch-boundary mutation ---

   One seeded corruption of the interpreter's dispatch metadata: a pure
   run lengthened by one instruction, so the batched main loop would
   execute the dispatch point that follows it — a poll, a check, a
   memory access — as if it were register arithmetic.  The batch-safety
   validator ({!Rewrite.Batch}) must convict it. *)

(** [swallow_dispatch proc] — [proc]'s freshly built metadata with its
    first extensible pure run grown by one, or [None] when the
    procedure has no pure run followed by another instruction. *)
let swallow_dispatch (proc : Alpha.Program.procedure) =
  let m = Alpha.Interp.build_meta proc in
  let n = Array.length proc.Alpha.Program.code in
  let pure = Array.copy m.Alpha.Interp.m_pure in
  let site = ref None in
  (try
     for pc = 0 to n - 1 do
       if !site = None && pure.(pc) > 0 && pc + pure.(pc) < n then begin
         site := Some pc;
         pure.(pc) <- pure.(pc) + 1;
         raise Exit
       end
     done
   with Exit -> ());
  match !site with
  | None -> None
  | Some pc -> Some (pc, { m with Alpha.Interp.m_pure = pure })
