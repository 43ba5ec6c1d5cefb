(* Memory-model litmus tests (Figure 2 of the paper, message passing,
   Dekker under Sc, LL/SC atomicity) run through the schedule explorer
   and coherence-checking layers of lib/check.

     dune exec bin/litmus.exe -- [--seeds N] [--jitter] [--explore]
                                 [--dpor] [--preemption-bound K]
                                 [--mutate] [--only NAME] [--out FILE]

   Every run executes with the per-message invariant checker on, a
   quiescence sweep, the scenario's outcome check and the SC trace
   oracle.  Exit status is 1 when any violation is found (or, under
   --mutate, when a seeded protocol bug goes undetected).  Each driver
   prints one table, a row per scenario (runs, classes, choice points,
   complete, truncated, failures); each mutation hunt prints its
   conviction table; a "failing schedules" table lists every violation
   with its schedule.  --out FILE writes all of them in the shared
   BENCH_*.json envelope so CI can upload them as artifacts.  Under
   --dpor every scenario (litmus kernels plus the minidb
   two-transaction scenario) is explored to a partial-order-reduction
   fixed point, optionally under --preemption-bound.  --only NAME runs
   one scenario of either set (a driver whose set lacks it runs
   nothing).  --seeds N covers FIFO plus seeds 1..N.  A failure names
   its schedule: [seed K] (with jitter, [seed K, jitter ...]) replays in
   OCaml as [Check.Litmus.run sc (Check.Explore.seed_schedule K)]
   (adding [~jitter:Check.Explore.default_jitter]), and a decision
   vector ([Exhaustive [...]] or [Dpor [...]]) as
   [Check.Explore.schedule_of_decisions [...]]. *)

let () =
  let seeds = ref 16 in
  let jitter = ref false in
  let explore = ref false in
  let dpor = ref false in
  let pbound = ref (-1) in
  let mutate = ref false in
  let only = ref "" in
  let out = ref "" in
  let spec =
    [
      ("--seeds", Arg.Set_int seeds, "N  seeded schedules per scenario (default 16)");
      ("--jitter", Arg.Set jitter, " also run delay-injection schedules");
      ("--explore", Arg.Set explore, " bounded exhaustive tie-set exploration");
      ("--dpor", Arg.Set dpor, " partial-order-reduced exploration to a fixed point");
      ( "--preemption-bound",
        Arg.Set_int pbound,
        "K  bound preemptions per run under --dpor (default unbounded)" );
      ("--mutate", Arg.Set mutate, " mutation harness: seeded protocol bugs must be caught");
      ( "--only",
        Arg.Set_string only,
        "NAME  restrict to the named scenario (skips the DPOR mutation pass)" );
      ("--out", Arg.Set_string out, "FILE  write every table (shared JSON envelope) for CI");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "litmus [options]";
  seeds := Cli.at_least "--seeds" 0 !seeds;
  if !only <> "" then
    ignore
      (Cli.choice "--only"
         (List.map
            (fun (sc : Check.Litmus.scenario) -> (sc.Check.Litmus.name, ()))
            (Check.Litmus.all @ [ Check.Txn.scenario ]))
         !only);
  if !out <> "" then Cli.writable "--out" !out;
  let pick =
    List.filter (fun (sc : Check.Litmus.scenario) -> !only = "" || sc.Check.Litmus.name = !only)
  in
  (* Every table of the run in print order, the failing schedules, and
     whether anything failed. *)
  let tables = ref [] in
  let failing = ref [] in
  let failed = ref false in
  let report t =
    Cli.print t;
    tables := t :: !tables
  in
  let fail ~driver scenario schedule violation =
    failed := true;
    failing := (scenario, Sim.Stats.[ Str driver; Str schedule; Str violation ]) :: !failing
  in
  (* One driver over the picked scenarios: a row of run statistics per
     scenario and a failing-schedules row per violation; under
     [must_complete] a run that stops short of a fixed point fails. *)
  let drive ~driver ~title ?(must_complete = false) scenarios explore =
    let row (sc : Check.Litmus.scenario) =
      let name = sc.Check.Litmus.name in
      let r = explore (Check.Litmus.as_scenario sc) in
      let st = r.Check.Explore.stats in
      List.iter
        (fun (f : Check.Explore.failure) ->
          List.iter (fail ~driver name f.Check.Explore.f_schedule) f.Check.Explore.f_violations)
        r.Check.Explore.failures;
      if must_complete && not st.Check.Explore.s_complete then
        fail ~driver name "-"
          (Printf.sprintf "no fixed point in %d runs" st.Check.Explore.s_runs);
      ( name,
        Sim.Stats.
          [ Int st.Check.Explore.s_runs; Int st.Check.Explore.s_classes;
            Int st.Check.Explore.s_choice_points; Str (string_of_bool st.Check.Explore.s_complete);
            Str (string_of_bool st.Check.Explore.s_truncated);
            Int (List.length r.Check.Explore.failures) ] )
    in
    report
      {
        Sim.Stats.title;
        columns =
          [ "scenario"; "runs"; "classes"; "choice_points"; "complete"; "truncated"; "failures" ];
        rows = List.map row (pick scenarios);
      }
  in
  (* One protocol-mutation hunt: its table; a missed bug fails the run. *)
  let convict ~title family =
    let reports = Check.Mutation.sweep family in
    if not (Check.Mutation.all_caught reports) then failed := true;
    report (Check.Mutation.table { family with Check.Mutation.title } reports)
  in

  drive ~driver:"seeds"
    ~title:(Printf.sprintf "litmus: FIFO + %d seeded schedules per scenario" !seeds)
    Check.Litmus.all (Check.Explore.seeds ~n:!seeds);

  if !jitter then
    drive ~driver:"jittered"
      ~title:(Printf.sprintf "litmus: FIFO + %d jittered (delay-injection) schedules" !seeds)
      Check.Litmus.all
      (Check.Explore.seeds ~jitter:Check.Explore.default_jitter ~n:!seeds);

  if !explore then
    drive ~driver:"exhaustive" ~title:"litmus: bounded exhaustive tie-set exploration"
      Check.Litmus.all
      (Check.Explore.exhaustive ~max_runs:100 ~max_depth:6);

  if !dpor then begin
    let bound = if !pbound >= 0 then Some !pbound else None in
    drive ~driver:"dpor"
      ~title:
        ("litmus: DPOR exploration"
        ^ match bound with Some b -> Printf.sprintf " (preemption bound %d)" b | None -> "")
      ~must_complete:true
      (Check.Litmus.all @ [ Check.Txn.scenario ])
      (* The run budget leaves room above minidb-txn2's fixed point at
         preemption bound 2 (80 runs). *)
      (Check.Dpor.explore ~max_runs:10_000 ?preemption_bound:bound);

    if !only = "" then
      convict ~title:"litmus: mutation conviction under DPOR"
        (Check.Mutation.protocol ~explore:(Check.Dpor.explore ~max_runs:400) ())
  end;

  if !mutate then
    convict
      ~title:(Printf.sprintf "litmus: mutation harness (%d seeds per bug)" !seeds)
      (Check.Mutation.protocol ~explore:(Check.Explore.seeds ~n:!seeds) ());

  if !failing <> [] then
    report
      {
        Sim.Stats.title = "failing schedules";
        columns = [ "scenario"; "driver"; "schedule"; "violation" ];
        rows = List.rev !failing;
      };
  if !out <> "" then
    Load.Json.emit ~file:!out ~bench:"litmus"
      ~meta:
        (("seeds", Load.Json.Int !seeds)
        :: (if !pbound >= 0 then [ ("preemption_bound", Load.Json.Int !pbound) ] else []))
      [ Load.Json.tables (List.rev !tables) ];
  if !failed then begin
    print_endline "LITMUS: FAILED";
    exit 1
  end
  else print_endline "LITMUS: all checks passed"
