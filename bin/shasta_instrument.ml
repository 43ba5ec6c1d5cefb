(* CLI: run the binary rewriter, the translation validator, the
   redundant-check optimizer, and the whole-program static analyzer
   (race detector, batch-safety validator, affinity lint).

     dune exec bin/shasta_instrument.exe -- --program lock --no-batch
     dune exec bin/shasta_instrument.exe -- --verify --lint-report lint.json
     dune exec bin/shasta_instrument.exe -- --optimize
     dune exec bin/shasta_instrument.exe -- --mutants
     dune exec bin/shasta_instrument.exe -- --races --batch-verify --affinity

   [--lint-report FILE] writes the machine-readable results of every
   selected mode as one JSON document in the shared BENCH_*.json
   envelope ({!Load.Json.emit}), so CI artifacts from the lint job have
   the same shape as the bench/serve trajectory files. *)

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

(* Accumulate structured results (what --lint-report emits inside the
   shared JSON envelope). *)
let json_fields : (string * Load.Json.t) list ref = ref []
let add_json key v = json_fields := (key, v) :: !json_fields

let verify_mode ~options () =
  let mode = if options.Rewrite.Instrument.redundant_elim then "optimized" else "default" in
  Printf.printf "translation validation (%s options)\n\n" mode;
  let failures = ref 0 in
  let rows = ref [] in
  List.iter
    (fun (name, prog) ->
      let instrumented, stats = Rewrite.Instrument.instrument ~options prog in
      let reports = Rewrite.Verify.verify instrumented in
      let accesses = List.fold_left (fun a r -> a + r.Rewrite.Verify.r_accesses) 0 reports in
      let ds = Rewrite.Verify.diags reports in
      rows :=
        Load.Json.Obj
          [
            ("target", Load.Json.Str name);
            ("ok", Load.Json.Bool (ds = []));
            ("accesses", Load.Json.Int accesses);
            ("eliminated", Load.Json.Int stats.Rewrite.Instrument.checks_eliminated);
            ("hoisted", Load.Json.Int stats.Rewrite.Instrument.checks_hoisted);
            ( "diags",
              Load.Json.List
                (List.map (fun d -> Load.Json.Str (Format.asprintf "%a" Rewrite.Verify.pp_diag d)) ds) );
          ]
        :: !rows;
      match ds with
      | [] ->
          Printf.printf "%-12s OK    %3d shared accesses covered" name accesses;
          if options.Rewrite.Instrument.redundant_elim then
            Printf.printf "  (%d checks eliminated, %d hoisted)"
              stats.Rewrite.Instrument.checks_eliminated
              stats.Rewrite.Instrument.checks_hoisted;
          Printf.printf "\n"
      | ds ->
          incr failures;
          Printf.printf "%-12s FAIL  %d uncovered of %d accesses\n" name (List.length ds) accesses;
          List.iter
            (fun d -> Printf.printf "    %s\n" (Format.asprintf "%a" Rewrite.Verify.pp_diag d))
            ds)
    (lint_targets ());
  add_json ("verify_" ^ mode) (Load.Json.List (List.rev !rows));
  !failures

(* One seeded-mutation family through the conviction sweep: a report
   line and a JSON row (under [key]) per mutation, then the pass/fail
   tail naming the family by [noun].  Returns the failure count. *)
let conviction ~key ~noun family =
  let reports = Check.Mutation.sweep family in
  List.iter
    (fun r -> Printf.printf "%s\n" (Format.asprintf "%a" (Check.Mutation.pp_report family) r))
    reports;
  add_json key
    (Load.Json.List
       (List.map
          (fun (r : Check.Mutation.report) ->
            Load.Json.Obj
              [
                ("mutation", Load.Json.Str r.Check.Mutation.label);
                ("caught", Load.Json.Bool (r.Check.Mutation.caught <> None));
                ("sites", Load.Json.Int r.Check.Mutation.spent);
              ])
          reports));
  if Check.Mutation.all_caught reports then begin
    Printf.printf "\nall %d %s mutations caught\n" (List.length reports) noun;
    0
  end
  else begin
    Printf.printf "\nsome %s mutations were MISSED\n" noun;
    1
  end

let mutants_mode () =
  Printf.printf "instrumenter-mutation sweep (validator must convict each family)\n\n";
  conviction ~key:"imutants" ~noun:"instrumenter" (Check.Mutation.instrumenter ())

(* --- whole-program static analysis modes (PR 10) --- *)

(* Exoneration sweep + seeded-mutation conviction: the sync corpus must
   be race-free at [nprocs] threads, the single-process corpus at its
   deployment concurrency of one, and every seeded sync mutation must
   draw a race report. *)
let races_mode ~nprocs () =
  Printf.printf "static race detection (%d threads on the sync corpus)\n\n" nprocs;
  let failures = ref 0 in
  let rows = ref [] in
  let scan name ~nprocs prog =
    let r = Rewrite.Races.analyze ~nprocs prog in
    let nraces = List.length r.Rewrite.Races.rep_races in
    rows :=
      Load.Json.Obj
        [
          ("kernel", Load.Json.Str name);
          ("nprocs", Load.Json.Int nprocs);
          ("atoms", Load.Json.Int (List.length r.Rewrite.Races.rep_atoms));
          ("unresolved", Load.Json.Int r.Rewrite.Races.rep_unresolved);
          ( "races",
            Load.Json.List
              (List.map
                 (fun rc -> Load.Json.Str (Format.asprintf "%a" Rewrite.Races.pp_race rc))
                 r.Rewrite.Races.rep_races) );
        ]
      :: !rows;
    if nraces > 0 then begin
      incr failures;
      Printf.printf "%-14s FAIL  %d race pair(s) at %d threads\n" name nraces nprocs;
      List.iter
        (fun rc -> Printf.printf "    %s\n" (Format.asprintf "%a" Rewrite.Races.pp_race rc))
        r.Rewrite.Races.rep_races
    end
    else
      Printf.printf "%-14s OK    %3d atoms, %d unresolved, 0 races at %d threads\n" name
        (List.length r.Rewrite.Races.rep_atoms)
        r.Rewrite.Races.rep_unresolved nprocs
  in
  List.iter
    (fun (e : Apps.Ircorpus.entry) -> scan e.Apps.Ircorpus.e_name ~nprocs e.Apps.Ircorpus.e_program)
    Apps.Ircorpus.sync;
  List.iter
    (fun (e : Apps.Ircorpus.entry) -> scan e.Apps.Ircorpus.e_name ~nprocs:1 e.Apps.Ircorpus.e_program)
    Apps.Ircorpus.all;
  add_json "races" (Load.Json.List (List.rev !rows));
  Printf.printf "\nsync-mutation sweep (race detector must convict each family)\n\n";
  failures := !failures + conviction ~key:"smutants" ~noun:"sync" (Check.Mutation.sync ~nprocs ());
  !failures

(* Validate every dispatch-metadata table the interpreter would build —
   raw, instrumented, and instrumented+optimized — then prove the
   validator still has teeth by seeding one batch-boundary corruption. *)
let batch_mode ~options () =
  Printf.printf "batch-safety validation (raw / instrumented / optimized metadata)\n\n";
  let failures = ref 0 in
  let rows = ref [] in
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
  List.iter
    (fun (name, prog) ->
      let vs = Rewrite.Batch.validate_program prog in
      rows :=
        Load.Json.Obj
          [
            ("target", Load.Json.Str name);
            ( "violations",
              Load.Json.List
                (List.map (fun v -> Load.Json.Str (Format.asprintf "%a" Rewrite.Batch.pp_violation v)) vs) );
          ]
        :: !rows;
      if vs <> [] then begin
        incr failures;
        Printf.printf "%-16s FAIL  %d violation(s)\n" name (List.length vs);
        List.iter
          (fun v -> Printf.printf "    %s\n" (Format.asprintf "%a" Rewrite.Batch.pp_violation v))
          vs
      end)
    targets;
  Printf.printf "%d metadata tables validated, %d with violations\n" (List.length targets)
    !failures;
  (* Batch-boundary mutation: lengthen one pure run and demand a
     conviction — a validator that cannot convict proves nothing. *)
  let convicted = Check.Mutation.(all_caught (sweep (batch targets))) in
  if convicted then Printf.printf "seeded batch-boundary mutation convicted\n"
  else begin
    incr failures;
    Printf.printf "seeded batch-boundary mutation NOT convicted\n"
  end;
  add_json "batch"
    (Load.Json.Obj
       [
         ("tables", Load.Json.Int (List.length targets));
         ("mutant_convicted", Load.Json.Bool convicted);
         ("targets", Load.Json.List (List.rev !rows));
       ]);
  !failures

(* Static affinity/false-sharing report over the sync corpus, under the
   coarse 512B reference layout the granularity bench starts from. *)
let affinity_mode ~nprocs () =
  Printf.printf "static affinity hints (sync corpus, reference block 512B)\n\n";
  let bindings =
    [
      { Rewrite.Affinity.bd_arg = 0; bd_region = "hot"; bd_block = 512; bd_size = 64 * 1024 };
      { Rewrite.Affinity.bd_arg = 1; bd_region = "bulk"; bd_block = 512; bd_size = 64 * 1024 };
    ]
  in
  let rows = ref [] in
  List.iter
    (fun (e : Apps.Ircorpus.entry) ->
      let name = e.Apps.Ircorpus.e_name in
      let r = Rewrite.Races.analyze ~nprocs e.Apps.Ircorpus.e_program in
      let hints = Rewrite.Affinity.report ~bindings r in
      Printf.printf "%s:\n" name;
      List.iter
        (fun h -> Printf.printf "  %s\n" (Format.asprintf "%a" Rewrite.Affinity.pp_hint h))
        hints;
      rows :=
        Load.Json.Obj
          [
            ("kernel", Load.Json.Str name);
            ( "hints",
              Load.Json.List
                (List.map
                   (fun h ->
                     Load.Json.Obj
                       [
                         ("region", Load.Json.Str h.Rewrite.Affinity.h_region);
                         ("arg", Load.Json.Int h.Rewrite.Affinity.h_arg);
                         ("kind", Load.Json.Str (Rewrite.Affinity.kind_name h.Rewrite.Affinity.h_kind));
                         ("block", Load.Json.Int h.Rewrite.Affinity.h_block);
                         ("suggest", Load.Json.Int h.Rewrite.Affinity.h_suggest);
                         ( "homing",
                           match h.Rewrite.Affinity.h_homing with
                           | None -> Load.Json.Null
                           | Some hm -> Load.Json.Str (Rewrite.Affinity.homing_name hm) );
                         ("reads", Load.Json.Int h.Rewrite.Affinity.h_reads);
                         ("writes", Load.Json.Int h.Rewrite.Affinity.h_writes);
                         ("stride", Load.Json.Int h.Rewrite.Affinity.h_stride);
                         ("locked_writes", Load.Json.Int h.Rewrite.Affinity.h_locked_writes);
                       ])
                   hints) );
          ]
        :: !rows)
    Apps.Ircorpus.sync;
  add_json "affinity" (Load.Json.List (List.rev !rows));
  0

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
      ("--batch-verify", Arg.Set batch_verify, " validate the interpreter's batch-dispatch metadata");
      ("--affinity", Arg.Set affinity, " static affinity/false-sharing hints for the sync corpus");
      ("--nprocs", Arg.Set_int nprocs, "N SPMD thread count for --races/--affinity (default 4)");
      ("--lint-report", Arg.Set_string lint_report, "FILE write a JSON report (shared BENCH envelope) to FILE");
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "shasta_instrument [options]";
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
  let save_report ~failures =
    if !lint_report <> "" then
      Load.Json.emit ~file:!lint_report ~bench:"lint"
        ~meta:[ ("nprocs", Load.Json.Int !nprocs); ("failures", Load.Json.Int failures) ]
        (List.rev !json_fields)
  in
  if !verify || !optimize || !mutants || !races || !batch_verify || !affinity then begin
    let failures = ref 0 in
    let sep = ref false in
    let mode f =
      if !sep then Printf.printf "\n";
      sep := true;
      failures := !failures + f ()
    in
    if !verify then mode (verify_mode ~options);
    if !optimize then
      mode (verify_mode ~options:{ options with Rewrite.Instrument.redundant_elim = true });
    if !mutants then mode mutants_mode;
    if !races then mode (races_mode ~nprocs:!nprocs);
    if !batch_verify then mode (batch_mode ~options);
    if !affinity then mode (affinity_mode ~nprocs:!nprocs);
    save_report ~failures:!failures;
    exit (if !failures > 0 then 1 else 0)
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
