(* CLI: run the binary rewriter, the translation validator, the
   redundant-check optimizer, and the whole-program static analyzer
   (race detector, batch-safety validator, affinity lint).

     dune exec bin/shasta_instrument.exe -- --program lock --no-batch
     dune exec bin/shasta_instrument.exe -- --verify --lint-report lint.json
     dune exec bin/shasta_instrument.exe -- --optimize
     dune exec bin/shasta_instrument.exe -- --mutants
     dune exec bin/shasta_instrument.exe -- --races --batch-verify --affinity

   Each lint mode reports typed tables (a row per target, kernel, hint
   or seeded mutation), printed as text; [--lint-report FILE] writes the
   same tables, with [nprocs] and the failure count, in the shared
   BENCH_*.json envelope ({!Load.Json.emit}), so CI artifacts from the
   lint job have the same shape as the bench/serve trajectory files.
   [--nprocs] is at least 2: the race detector needs two threads to
   race. *)

let demo_programs =
  [
    ( "lock",
      "the paper's Figure 1: LL/SC lock acquire around a critical section",
      Alpha.Asm.(
        program
          [
            proc "main"
              [
                label "outer";
                label "try_again";
                ll W32 t0 0 a0;
                bne t0 "try_again";
                li t0 1L;
                sc W32 t0 0 a0;
                beq t0 "try_again";
                mb;
                ldq t1 0 a1;
                addi t1 1 t1;
                stq t1 0 a1;
                mb;
                stl zero 0 a0;
                subi a2 1 a2;
                bgt a2 "outer";
                halt;
              ];
          ]) );
    ( "stream",
      "a streaming loop: batched loads and stores over consecutive lines",
      Alpha.Asm.(
        program
          [
            proc "main"
              [
                li t9 100L;
                label "loop";
                ldq t0 0 a0;
                ldq t1 8 a0;
                ldq t2 16 a0;
                add t0 t1 t3;
                add t3 t2 t3;
                stq t3 24 a0;
                stq t3 32 a0;
                addi a0 64 a0;
                subi t9 1 t9;
                bgt t9 "loop";
                halt;
              ];
          ]) );
    ( "mixed",
      "mixed private (stack) and shared accesses: the dataflow analysis\n\
      \   proves the stack accesses private and skips their checks",
      Alpha.Asm.(
        program
          [
            proc "main"
              [
                li t9 10L;
                label "loop";
                ldq t0 0 a0;
                stq t0 0 sp;
                ldq t1 8 sp;
                stq t1 8 a0;
                mb;
                subi t9 1 t9;
                bgt t9 "loop";
                ret;
              ];
          ]) );
  ]

(* Everything the lint job sweeps: the IR corpus (one kernel per
   registry app + minidb) plus the demos above. *)
let lint_targets () =
  List.map
    (fun (e : Apps.Ircorpus.entry) -> (e.Apps.Ircorpus.e_name, e.Apps.Ircorpus.e_program))
    Apps.Ircorpus.all
  @ List.map (fun (n, _, p) -> (n, p)) demo_programs

(* Each lint mode returns the tables it reports and how many of its
   checks failed; the same tables are printed and, under --lint-report,
   written. *)

let verdict ok = Sim.Stats.Str (if ok then "OK" else "FAIL")

(* Each finding of [results] (a name and its findings) as [pp] prints
   it, one row under its name; no table when there is none. *)
let findings ~title ~columns pp results =
  let row name x = (name, [ Sim.Stats.Str (Format.asprintf "%a" pp x) ]) in
  match List.concat_map (fun (name, xs) -> List.map (row name) xs) results with
  | [] -> []
  | rows -> [ { Sim.Stats.title; columns; rows } ]

let verify_mode ~options () =
  let mode = if options.Rewrite.Instrument.redundant_elim then "optimized" else "default" in
  let results =
    List.map
      (fun (name, prog) ->
        let instrumented, stats = Rewrite.Instrument.instrument ~options prog in
        let reports = Rewrite.Verify.verify instrumented in
        (name, reports, stats, Rewrite.Verify.diags reports))
      (lint_targets ())
  in
  let row (name, reports, stats, ds) =
    let accesses = List.fold_left (fun a r -> a + r.Rewrite.Verify.r_accesses) 0 reports in
    ( name,
      verdict (ds = [])
      :: Sim.Stats.ints
           [ accesses; List.length ds; stats.Rewrite.Instrument.checks_eliminated;
             stats.Rewrite.Instrument.checks_hoisted ] )
  in
  ( {
      Sim.Stats.title = Printf.sprintf "translation validation (%s options)" mode;
      columns = [ "target"; "verdict"; "accesses"; "uncovered"; "eliminated"; "hoisted" ];
      rows = List.map row results;
    }
    :: findings
         ~title:(Printf.sprintf "uncovered accesses (%s options)" mode)
         ~columns:[ "target"; "diagnostic" ] Rewrite.Verify.pp_diag
         (List.map (fun (name, _, _, ds) -> (name, ds)) results),
    List.length (List.filter (fun (_, _, _, ds) -> ds <> []) results) )

(* One seeded-mutation family through the conviction sweep: its table,
   and one failure if any mutation was missed. *)
let conviction family =
  let reports = Check.Mutation.sweep family in
  (Check.Mutation.table family reports, if Check.Mutation.all_caught reports then 0 else 1)

let mutants_mode () =
  let table, failures = conviction (Check.Mutation.instrumenter ()) in
  ([ table ], failures)

(* --- whole-program static analysis modes (PR 10) --- *)

(* Exoneration sweep + seeded-mutation conviction: the sync corpus must
   be race-free at [nprocs] threads, the single-process corpus at its
   deployment concurrency of one, and every seeded sync mutation must
   draw a race report. *)
let races_mode ~nprocs () =
  let scan ~nprocs (e : Apps.Ircorpus.entry) =
    (e.Apps.Ircorpus.e_name, nprocs, Rewrite.Races.analyze ~nprocs e.Apps.Ircorpus.e_program)
  in
  let results =
    List.map (scan ~nprocs) Apps.Ircorpus.sync @ List.map (scan ~nprocs:1) Apps.Ircorpus.all
  in
  let row (name, nprocs, r) =
    ( name,
      verdict (r.Rewrite.Races.rep_races = [])
      :: Sim.Stats.ints
           [ nprocs; List.length r.Rewrite.Races.rep_atoms; r.Rewrite.Races.rep_unresolved;
             List.length r.Rewrite.Races.rep_races ] )
  in
  let mutations, missed = conviction (Check.Mutation.sync ~nprocs ()) in
  ( ({
       Sim.Stats.title =
         Printf.sprintf "static race detection (%d threads on the sync corpus)" nprocs;
       columns = [ "kernel"; "verdict"; "threads"; "atoms"; "unresolved"; "races" ];
       rows = List.map row results;
     }
    :: findings ~title:"race pairs" ~columns:[ "kernel"; "race" ] Rewrite.Races.pp_race
         (List.map (fun (name, _, r) -> (name, r.Rewrite.Races.rep_races)) results))
    @ [ mutations ],
    missed + List.length (List.filter (fun (_, _, r) -> r.Rewrite.Races.rep_races <> []) results) )

(* Validate every decoded form the interpreter would build — raw,
   instrumented, and instrumented+optimized — then prove the validator
   still has teeth by seeding the decoded-form corruptions. *)
let batch_mode ~options () =
  let optimized prog =
    fst
      (Rewrite.Instrument.instrument
         ~options:{ options with Rewrite.Instrument.redundant_elim = true }
         prog)
  in
  let targets =
    List.concat_map
      (fun (name, prog) ->
        [
          (name ^ ".raw", prog);
          (name ^ ".inst", fst (Rewrite.Instrument.instrument ~options prog));
          (name ^ ".opt", optimized prog);
        ])
      (lint_targets ()
      @ List.map
          (fun (e : Apps.Ircorpus.entry) -> (e.Apps.Ircorpus.e_name, e.Apps.Ircorpus.e_program))
          Apps.Ircorpus.sync)
  in
  let results =
    List.map (fun (name, prog) -> (name, Rewrite.Batch.validate_program prog)) targets
  in
  (* Decoded-form mutations: lengthen one pure run, move one register
     operand past the file, and demand a conviction of each — a
     validator that cannot convict proves nothing. *)
  let mutation, missed = conviction (Check.Mutation.batch targets) in
  ( ({
       Sim.Stats.title = "batch-safety validation (raw / instrumented / optimized metadata)";
       columns = [ "target"; "verdict"; "violations" ];
       rows =
         List.map (fun (name, vs) -> (name, [ verdict (vs = []); Int (List.length vs) ])) results;
     }
    :: findings ~title:"batch-safety violations" ~columns:[ "target"; "violation" ]
         Rewrite.Batch.pp_violation results)
    @ [ mutation ],
    missed + List.length (List.filter (fun (_, vs) -> vs <> []) results) )

(* Static affinity/false-sharing report over the sync corpus, under the
   coarse 512B reference layout the granularity bench starts from. *)
let affinity_mode ~nprocs () =
  let bindings =
    [
      { Rewrite.Affinity.bd_arg = 0; bd_region = "hot"; bd_block = 512; bd_size = 64 * 1024 };
      { Rewrite.Affinity.bd_arg = 1; bd_region = "bulk"; bd_block = 512; bd_size = 64 * 1024 };
    ]
  in
  let rows (e : Apps.Ircorpus.entry) =
    let r = Rewrite.Races.analyze ~nprocs e.Apps.Ircorpus.e_program in
    List.map
      (fun (h : Rewrite.Affinity.hint) ->
        ( e.Apps.Ircorpus.e_name,
          Sim.Stats.
            [ Str h.h_region; Int h.h_arg; Int h.h_block; Int h.h_suggest;
              Str (Rewrite.Affinity.kind_name h.h_kind); Int h.h_reads; Int h.h_writes;
              Int h.h_stride; Int h.h_locked_writes;
              Str (Option.fold ~none:"-" ~some:Rewrite.Affinity.homing_name h.h_homing) ] ))
      (Rewrite.Affinity.report ~bindings r)
  in
  ( [
      {
        Sim.Stats.title = "static affinity hints (sync corpus, reference block 512B)";
        columns =
          [ "kernel"; "region"; "arg"; "block"; "suggest"; "kind"; "reads"; "writes"; "stride";
            "locked_writes"; "homing" ];
        rows = List.concat_map rows Apps.Ircorpus.sync;
      };
    ],
    0 )

let () =
  let name = ref "lock" in
  let batching = ref true in
  let flag_loads = ref true in
  let polls = ref true in
  let prefetch = ref true in
  let redundant_elim = ref false in
  let verify = ref false in
  let optimize = ref false in
  let mutants = ref false in
  let races = ref false in
  let batch_verify = ref false in
  let affinity = ref false in
  let nprocs = ref 4 in
  let lint_report = ref "" in
  let args =
    [
      ( "--program",
        Arg.Set_string name,
        Printf.sprintf " demo program (%s)" (String.concat ", " (List.map (fun (n, _, _) -> n) demo_programs)) );
      ("--no-batch", Arg.Clear batching, " disable batching");
      ("--no-flag", Arg.Clear flag_loads, " state-table checks instead of the flag technique");
      ("--no-polls", Arg.Clear polls, " no loop-backedge polls");
      ("--no-prefetch", Arg.Clear prefetch, " no prefetch-exclusive before LL/SC loops");
      ("--redundant-elim", Arg.Set redundant_elim, " inter-block redundant-check elimination + hoisting");
      ("--verify", Arg.Set verify, " validate check coverage over the IR corpus + demos");
      ("--optimize", Arg.Set optimize, " like --verify, with redundant_elim on (reports eliminated/hoisted)");
      ("--mutants", Arg.Set mutants, " sweep seeded instrumenter mutations; the validator must catch all");
      ("--races", Arg.Set races, " static race detection over the corpus + seeded sync mutations");
      ("--batch-verify", Arg.Set batch_verify, " validate the interpreter's decoded form and tables");
      ("--affinity", Arg.Set affinity, " static affinity/false-sharing hints for the sync corpus");
      ("--nprocs", Arg.Set_int nprocs, "N SPMD thread count for --races/--affinity (default 4)");
      ("--lint-report", Arg.Set_string lint_report, "FILE write a JSON report (shared BENCH envelope) to FILE");
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "shasta_instrument [options]";
  let nprocs = Cli.at_least "--nprocs" 2 !nprocs in
  if !lint_report <> "" then Cli.writable "--lint-report" !lint_report;
  let options =
    {
      Rewrite.Instrument.default_options with
      Rewrite.Instrument.batching = !batching;
      flag_loads = !flag_loads;
      polls = !polls;
      prefetch_ll_sc = !prefetch;
      redundant_elim = !redundant_elim;
    }
  in
  let modes =
    [
      (!verify, verify_mode ~options);
      (!optimize, verify_mode ~options:{ options with Rewrite.Instrument.redundant_elim = true });
      (!mutants, mutants_mode);
      (!races, races_mode ~nprocs);
      (!batch_verify, batch_mode ~options);
      (!affinity, affinity_mode ~nprocs);
    ]
  in
  if List.exists fst modes then begin
    let tables, failures =
      List.fold_left
        (fun (tables, failures) (on, mode) ->
          if not on then (tables, failures)
          else
            let ts, n = mode () in
            List.iter Cli.print ts;
            (tables @ ts, failures + n))
        ([], 0) modes
    in
    if !lint_report <> "" then
      Load.Json.emit ~file:!lint_report ~bench:"lint"
        ~meta:[ ("nprocs", Load.Json.Int nprocs); ("failures", Load.Json.Int failures) ]
        [ Load.Json.tables tables ];
    exit (if failures > 0 then 1 else 0)
  end;
  let _, descr, prog =
    match List.find_opt (fun (n, _, _) -> n = !name) demo_programs with
    | Some p -> p
    | None ->
        Printf.eprintf "unknown program %S\n" !name;
        exit 1
  in
  Printf.printf "program %S: %s\n\noriginal:\n" !name descr;
  List.iter
    (fun p ->
      Printf.printf "%s:\n" p.Alpha.Program.name;
      Array.iteri (fun i insn -> Format.printf "  %3d: %a@." i Alpha.Insn.pp insn) p.Alpha.Program.code)
    (Alpha.Program.procedures prog);
  let instrumented, stats = Rewrite.Instrument.instrument ~options prog in
  Printf.printf "\ninstrumented:\n";
  List.iter
    (fun p ->
      Printf.printf "%s:\n" p.Alpha.Program.name;
      Array.iteri (fun i insn -> Format.printf "  %3d: %a@." i Alpha.Insn.pp insn) p.Alpha.Program.code)
    (Alpha.Program.procedures instrumented);
  Format.printf "\nper-pass statistics:@\n%a@." Rewrite.Instrument.pp_stats stats
