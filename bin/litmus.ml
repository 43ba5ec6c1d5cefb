(* Memory-model litmus tests (Figure 2 of the paper, message passing,
   Dekker under Sc, LL/SC atomicity) run through the schedule explorer
   and coherence-checking layers of lib/check.

     dune exec bin/litmus.exe -- [--seeds N] [--jitter] [--explore]
                                 [--dpor] [--preemption-bound K]
                                 [--mutate] [--only NAME] [--out FILE]

   Every run executes with the per-message invariant checker on, a
   quiescence sweep, the scenario's outcome check and the SC trace
   oracle.  Exit status is 1 when any violation is found (or, under
   --mutate, when a seeded protocol bug goes undetected); failing
   schedules are appended to --out so CI can upload them as artifacts.
   Under --dpor every scenario (litmus kernels plus the minidb
   two-transaction scenario) is explored to a partial-order-reduction
   fixed point, optionally under --preemption-bound; per-scenario
   run/class statistics of every driver are appended to --out as JSON
   lines.  --seeds N covers FIFO plus seeds 1..N.  A failure names its
   schedule: [seed K] (with jitter, [seed K, jitter ...]) replays in
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
      ("--out", Arg.Set_string out, "FILE  append failing schedules + stats JSON for CI");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "litmus [options]";
  seeds := Cli.at_least "--seeds" 0 !seeds;
  if !out <> "" then Cli.writable "--out" !out;
  let pick scenarios =
    match !only with
    | "" -> scenarios
    | name -> (
        match
          List.filter (fun (sc : Check.Litmus.scenario) -> sc.Check.Litmus.name = name)
            scenarios
        with
        | [] ->
            prerr_endline ("litmus: no scenario named " ^ name);
            exit 2
        | picked -> picked)
  in
  let artifact = Buffer.create 256 in
  let failed = ref false in
  let record fmt =
    Printf.ksprintf
      (fun s ->
        failed := true;
        Buffer.add_string artifact (s ^ "\n");
        print_endline ("  FAIL " ^ s))
      fmt
  in
  let stats_line ~driver ~scenario (st : Check.Explore.stats) =
    let bound = if !pbound >= 0 then [ ("preemption_bound", Load.Json.Int !pbound) ] else [] in
    Buffer.add_string artifact
      (Load.Json.(
         to_string
           (Obj
              ([ ("driver", Str driver); ("scenario", Str scenario);
                 ("runs", Int st.s_runs); ("classes", Int st.s_classes);
                 ("choice_points", Int st.s_choice_points); ("complete", Bool st.s_complete);
                 ("truncated", Bool st.s_truncated) ]
              @ bound)))
      ^ "\n")
  in
  (* One driver over the picked scenarios: a stats line each, then an ok
     line (with [status] of the stats) or every failing schedule; under
     [must_complete] a run that stops short of a fixed point fails. *)
  let drive ~driver ~status ?(must_complete = false) scenarios explore =
    List.iter
      (fun (sc : Check.Litmus.scenario) ->
        let r = explore (Check.Litmus.as_scenario sc) in
        let st = r.Check.Explore.stats in
        stats_line ~driver ~scenario:sc.Check.Litmus.name st;
        if r.Check.Explore.failures = [] then
          Printf.printf "  ok   %-18s (%d runs, %d classes%s)\n%!"
            sc.Check.Litmus.name st.Check.Explore.s_runs
            st.Check.Explore.s_classes (status st)
        else
          List.iter
            (fun (f : Check.Explore.failure) ->
              List.iter
                (fun v ->
                  record "scenario=%s schedule=%S %s" sc.Check.Litmus.name
                    f.Check.Explore.f_schedule v)
                f.Check.Explore.f_violations)
            r.Check.Explore.failures;
        if must_complete && not st.Check.Explore.s_complete then
          record "scenario=%s %s did not reach a fixed point in %d runs"
            sc.Check.Litmus.name driver st.Check.Explore.s_runs)
      (pick scenarios)
  in
  let sampled _ = "" in
  (* One protocol-mutation hunt: a report line per seeded bug, and a
     failure for every bug it missed. *)
  let convict ~under family =
    List.iter
      (fun (r : Check.Mutation.report) ->
        Format.printf "  %a@." (Check.Mutation.pp_report family) r;
        if r.Check.Mutation.caught = None then
          record "mutation=%s missed%s after %d runs" r.Check.Mutation.label under
            r.Check.Mutation.spent)
      (Check.Mutation.sweep family)
  in

  Printf.printf "== litmus: FIFO + %d seeded schedules per scenario ==\n%!" !seeds;
  drive ~driver:"seeds" ~status:sampled Check.Litmus.all (Check.Explore.seeds ~n:!seeds);

  if !jitter then begin
    Printf.printf "== litmus: FIFO + %d jittered (delay-injection) schedules ==\n%!" !seeds;
    drive ~driver:"jittered" ~status:sampled Check.Litmus.all
      (Check.Explore.seeds ~jitter:Check.Explore.default_jitter ~n:!seeds)
  end;

  if !explore then begin
    Printf.printf "== litmus: bounded exhaustive tie-set exploration ==\n%!";
    drive ~driver:"exhaustive"
      ~status:(fun st ->
        if st.Check.Explore.s_complete then ", complete"
        else if st.Check.Explore.s_truncated then ", truncated"
        else ", budget-limited")
      Check.Litmus.all
      (Check.Explore.exhaustive ~max_runs:100 ~max_depth:6)
  end;

  if !dpor then begin
    let bound = if !pbound >= 0 then Some !pbound else None in
    Printf.printf "== litmus: DPOR exploration%s ==\n%!"
      (match bound with
      | Some b -> Printf.sprintf " (preemption bound %d)" b
      | None -> "");
    drive ~driver:"dpor"
      ~status:(fun st ->
        if st.Check.Explore.s_complete then
          if st.Check.Explore.s_truncated then ", bounded fixed point" else ", complete"
        else ", budget-limited")
      ~must_complete:true
      (Check.Litmus.all @ [ Check.Txn.scenario ])
      (* The run budget leaves room above minidb-txn2's fixed point at
         preemption bound 2 (80 runs). *)
      (Check.Dpor.explore ~max_runs:10_000 ?preemption_bound:bound);

    if !only = "" then begin
      Printf.printf "== litmus: mutation conviction under DPOR ==\n%!";
      convict ~under:" under dpor"
        (Check.Mutation.protocol ~explore:(Check.Dpor.explore ~max_runs:400) ())
    end
  end;

  if !mutate then begin
    Printf.printf "== litmus: mutation harness (%d seeds per bug) ==\n%!" !seeds;
    convict ~under:"" (Check.Mutation.protocol ~explore:(Check.Explore.seeds ~n:!seeds) ())
  end;

  if !out <> "" && Buffer.length artifact > 0 then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 !out in
    Buffer.output_buffer oc artifact;
    close_out oc
  end;
  if !failed then begin
    print_endline "LITMUS: FAILED";
    exit 1
  end
  else print_endline "LITMUS: all checks passed"
