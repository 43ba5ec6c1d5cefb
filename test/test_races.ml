(* Tests for the whole-program static analyzer (PR 10): the Eraser-style
   race detector, the batch-safety validator and the affinity lint —
   plus the SPMD sync corpus they are calibrated against.

   Structure mirrors the analyzer's claims:
   - the sync kernels really are correctly synchronised (they run to
     the predicted per-thread results on a real cluster, at several
     thread counts, through the sync_* system calls);
   - the race detector exonerates all of them (and the whole IR corpus,
     and the LL/SC lock idiom) with zero false positives;
   - every seeded sync mutation is convicted statically;
   - the batch validator passes every meta table the interpreter builds
     and convicts a seeded batch-boundary corruption;
   - the affinity lint classifies the three sync kernels the way the
     granularity/migration benches measure them. *)

module I = Apps.Ircorpus

let instrument prog = fst (Rewrite.Instrument.instrument prog)

(* --- the sync kernels are correct as written --- *)

let expected_r0s name ~nprocs ~iters =
  match name with
  | "fs-twin" -> Array.make nprocs (Int64.of_int (2081 + iters))
  | "stencil-sync" ->
      Array.init nprocs (fun tid ->
          if tid = nprocs - 1 then 0L else Int64.of_int (iters * (iters + 1) / 2))
  | "mdb-sync" -> Array.make nprocs (Int64.of_int (100 + (nprocs * iters)))
  | _ -> Alcotest.fail ("no oracle for sync kernel " ^ name)

let test_sync_kernels_run () =
  List.iter
    (fun (e : I.entry) ->
      List.iter
        (fun nprocs ->
          let r = I.run_spmd ~nprocs (instrument e.I.e_program) e in
          Alcotest.(check (array int64))
            (Printf.sprintf "%s r0s at %d threads" e.I.e_name nprocs)
            (expected_r0s e.I.e_name ~nprocs ~iters:e.I.e_iters)
            r.I.s_r0s)
        [ 2; 4 ])
    I.sync

let test_sync_kernels_deterministic () =
  let e = I.find_sync "mdb-sync" in
  let p = instrument e.I.e_program in
  let a = I.run_spmd ~nprocs:4 p e in
  let b = I.run_spmd ~nprocs:4 p e in
  Alcotest.(check (array int64)) "r0s repeat" a.I.s_r0s b.I.s_r0s;
  Alcotest.(check (float 0.0)) "elapsed repeats" a.I.s_elapsed b.I.s_elapsed

(* --- exoneration: zero false positives --- *)

let analyze ?(nprocs = 4) (e : I.entry) =
  Rewrite.Races.analyze ~nprocs e.I.e_program

let test_sync_exonerated () =
  List.iter
    (fun (e : I.entry) ->
      List.iter
        (fun nprocs ->
          let r = analyze ~nprocs e in
          Alcotest.(check int)
            (Printf.sprintf "%s unresolved at %d threads" e.I.e_name nprocs)
            0 r.Rewrite.Races.rep_unresolved;
          Alcotest.(check bool)
            (Printf.sprintf "%s found shared accesses" e.I.e_name)
            true
            (r.Rewrite.Races.rep_atoms <> []);
          Alcotest.(check int)
            (Printf.sprintf "%s races at %d threads" e.I.e_name nprocs)
            0
            (List.length r.Rewrite.Races.rep_races))
        [ 2; 4; 8 ])
    I.sync

let test_corpus_exonerated () =
  (* The single-process corpus kernels are deployed on one processor;
     at their deployment concurrency the detector proves them trivially
     race-free, but still resolves and collects their shared atoms. *)
  List.iter
    (fun (e : I.entry) ->
      let r = analyze ~nprocs:1 e in
      Alcotest.(check int)
        (e.I.e_name ^ " races")
        0
        (List.length r.Rewrite.Races.rep_races))
    I.all

let test_llsc_lock_exonerated () =
  (* The paper's Figure-1 spin lock: the detector must recover the lock
     from the LL/SC idiom itself — acquire on the successful-Sc branch
     edge, release at the store of zero — and credit it to the
     critical-section accesses on a1. *)
  let prog =
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
        ])
  in
  let r = Rewrite.Races.analyze ~nprocs:4 prog in
  Alcotest.(check bool) "counter atoms collected" true (r.Rewrite.Races.rep_atoms <> []);
  Alcotest.(check int) "no races" 0 (List.length r.Rewrite.Races.rep_races)

let test_unprotected_counter_convicted () =
  (* The same counter without the lock: the detector must convict. *)
  let prog =
    Alpha.Asm.(
      program
        [
          proc "main"
            [ label "outer"; ldq t1 0 a1; addi t1 1 t1; stq t1 0 a1; subi a2 1 a2; bgt a2 "outer"; halt ];
        ])
  in
  let r = Rewrite.Races.analyze ~nprocs:2 prog in
  Alcotest.(check bool) "race reported" true (r.Rewrite.Races.rep_races <> [])

(* --- conviction: every seeded sync mutation draws a race report --- *)

let test_sync_mutations_convicted () =
  let reports = Check.Mutation.(sweep (sync ())) in
  List.iter
    (fun (r : Check.Mutation.report) ->
      Alcotest.(check bool) (r.Check.Mutation.label ^ " fired") true r.Check.Mutation.fired;
      Alcotest.(check bool)
        (r.Check.Mutation.label ^ " convicted")
        true
        (r.Check.Mutation.caught <> None))
    reports;
  Alcotest.(check int) "four families" 4 (List.length reports)

let test_every_drop_lock_site_convicted () =
  (* Not just the first site: dropping ANY lock acquisition in the
     mdb-sync kernel must convict — the lockset analysis has no lucky
     site to hide behind. *)
  let e = I.find_sync "mdb-sync" in
  let _, _, nsites = Check.Mutation.apply_smutation Check.Mutation.Drop_lock ~site:(-1) e.I.e_program in
  Alcotest.(check bool) "kernel has lock sites" true (nsites >= 2);
  for site = 0 to nsites - 1 do
    let prog', fired, _ = Check.Mutation.apply_smutation Check.Mutation.Drop_lock ~site e.I.e_program in
    Alcotest.(check bool) "site fired" true fired;
    let r = Rewrite.Races.analyze ~nprocs:4 prog' in
    Alcotest.(check bool)
      (Printf.sprintf "drop-lock site %d convicted" site)
      true
      (r.Rewrite.Races.rep_races <> [])
  done

(* --- batch-safety validator --- *)

let test_batch_validator_clean () =
  (* Every meta table the interpreter builds for every corpus program —
     uninstrumented, instrumented, and instrumented+optimized — must
     validate: no batch swallows a dispatch point, every derived table
     agrees with the program text. *)
  let optimized prog =
    let options =
      { Rewrite.Instrument.default_options with Rewrite.Instrument.redundant_elim = true }
    in
    fst (Rewrite.Instrument.instrument ~options prog)
  in
  List.iter
    (fun (e : I.entry) ->
      List.iter
        (fun (tag, prog) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s (%s) violations" e.I.e_name tag)
            []
            (List.map
               (fun v -> Format.asprintf "%a" Rewrite.Batch.pp_violation v)
               (Rewrite.Batch.validate_program prog)))
        [
          ("raw", e.I.e_program);
          ("instrumented", instrument e.I.e_program);
          ("optimized", optimized e.I.e_program);
        ])
    (I.all @ I.sync)

let test_batch_mutation_convicted () =
  (* A pure run lengthened by one must draw a "swallowed" (or, at the
     procedure edge, "overrun") violation, plus the length disagreement
     with the validator's own re-derivation. *)
  let e = List.find (fun e -> e.I.e_name = "water-nsq") I.all in
  let prog = instrument e.I.e_program in
  let convicted = ref 0 in
  List.iter
    (fun (p : Alpha.Program.procedure) ->
      match Check.Mutation.swallow_dispatch p with
      | None -> ()
      | Some (pc, meta) ->
          let vs = Rewrite.Batch.validate_meta p meta in
          Alcotest.(check bool)
            (Printf.sprintf "%s pure run at %d convicted" p.Alpha.Program.name pc)
            true (vs <> []);
          Alcotest.(check bool)
            "a swallow/overrun violation names the run"
            true
            (List.exists
               (fun v ->
                 v.Rewrite.Batch.v_kind = "swallowed" || v.Rewrite.Batch.v_kind = "overrun")
               vs);
          incr convicted)
    (Alpha.Program.procedures prog);
  Alcotest.(check bool) "at least one procedure mutated" true (!convicted > 0)

(* A decoded register operand moved past the register file must draw an
   "operand" violation: the loop would index the file unchecked. *)
let test_operand_mutation_convicted () =
  let e = List.find (fun e -> e.I.e_name = "water-nsq") I.all in
  let prog = instrument e.I.e_program in
  let convicted = ref 0 in
  List.iter
    (fun (p : Alpha.Program.procedure) ->
      match Check.Mutation.register_past_file p with
      | None -> ()
      | Some (pc, meta) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s operand at %d convicted" p.Alpha.Program.name pc)
            true
            (List.exists
               (fun v -> v.Rewrite.Batch.v_kind = "operand" && v.Rewrite.Batch.v_index = pc)
               (Rewrite.Batch.validate_meta p meta));
          incr convicted)
    (Alpha.Program.procedures prog);
  Alcotest.(check bool) "at least one procedure mutated" true (!convicted > 0)

(* --- affinity lint --- *)

let bindings ~block =
  [
    { Rewrite.Affinity.bd_arg = 0; bd_region = "hot"; bd_block = block; bd_size = 64 * 1024 };
    { Rewrite.Affinity.bd_arg = 1; bd_region = "bulk"; bd_block = block; bd_size = 64 * 1024 };
  ]

let hints ?(block = 512) name =
  let e = I.find_sync name in
  let r = analyze ~nprocs:8 e in
  Rewrite.Affinity.report ~bindings:(bindings ~block) r

let hint_for hints region = List.find (fun h -> h.Rewrite.Affinity.h_region = region) hints

let test_affinity_false_sharing () =
  (* fs-twin under a coarse 512B layout: the hot slots are 64B-strided
     per-thread words — false sharing, fix = 64B blocks; the bulk array
     is written only by the pinned tid-0 initialiser — read-mostly,
     keep it coarse. *)
  let hs = hints "fs-twin" in
  let hot = hint_for hs "hot" in
  Alcotest.(check string) "hot kind" "false-sharing" (Rewrite.Affinity.kind_name hot.Rewrite.Affinity.h_kind);
  Alcotest.(check int) "hot stride" 64 hot.Rewrite.Affinity.h_stride;
  Alcotest.(check int) "hot suggested block" 64 hot.Rewrite.Affinity.h_suggest;
  let bulk = hint_for hs "bulk" in
  Alcotest.(check string) "bulk kind" "read-mostly" (Rewrite.Affinity.kind_name bulk.Rewrite.Affinity.h_kind);
  Alcotest.(check bool) "bulk stays coarse" true (bulk.Rewrite.Affinity.h_suggest >= 512);
  (* Under the suggested 64B layout the same kernel is clean: partitioned. *)
  let hot64 = hint_for (hints ~block:64 "fs-twin") "hot" in
  Alcotest.(check string) "hot kind at 64B" "partitioned" (Rewrite.Affinity.kind_name hot64.Rewrite.Affinity.h_kind)

let test_affinity_migratory () =
  (* mdb-sync: every thread writes the same record under the same
     cross-thread lock — the migratory pattern; the hint carries the
     homing policy the scale bench measures. *)
  let hot = hint_for (hints "mdb-sync") "hot" in
  Alcotest.(check string) "kind" "migratory" (Rewrite.Affinity.kind_name hot.Rewrite.Affinity.h_kind);
  Alcotest.(check bool) "locked writes seen" true (hot.Rewrite.Affinity.h_locked_writes > 0);
  (match hot.Rewrite.Affinity.h_homing with
  | Some Protocol.Config.Migratory -> ()
  | _ -> Alcotest.fail "expected a Migratory homing hint");
  let bulk = hint_for (hints "mdb-sync") "bulk" in
  Alcotest.(check string) "unused region" "untouched" (Rewrite.Affinity.kind_name bulk.Rewrite.Affinity.h_kind)

let test_affinity_fine_stencil () =
  (* stencil-sync: 8B-strided strips under 64B blocks — false sharing
     with the finest legal block suggested (min_block = 32 > stride). *)
  let hot = hint_for (hints ~block:64 "stencil-sync") "hot" in
  Alcotest.(check string) "kind" "false-sharing" (Rewrite.Affinity.kind_name hot.Rewrite.Affinity.h_kind);
  Alcotest.(check int) "stride" 8 hot.Rewrite.Affinity.h_stride;
  Alcotest.(check int) "suggest clamps to min block" Protocol.Layout.min_block hot.Rewrite.Affinity.h_suggest

let suite =
  [
    Alcotest.test_case "sync kernels run to predicted r0s" `Slow test_sync_kernels_run;
    Alcotest.test_case "sync runner deterministic" `Quick test_sync_kernels_deterministic;
    Alcotest.test_case "sync kernels exonerated" `Quick test_sync_exonerated;
    Alcotest.test_case "IR corpus exonerated" `Quick test_corpus_exonerated;
    Alcotest.test_case "LL/SC lock idiom exonerated" `Quick test_llsc_lock_exonerated;
    Alcotest.test_case "unprotected counter convicted" `Quick test_unprotected_counter_convicted;
    Alcotest.test_case "sync mutations convicted" `Quick test_sync_mutations_convicted;
    Alcotest.test_case "every drop-lock site convicted" `Quick test_every_drop_lock_site_convicted;
    Alcotest.test_case "batch validator clean on corpus" `Quick test_batch_validator_clean;
    Alcotest.test_case "batch mutation convicted" `Quick test_batch_mutation_convicted;
    Alcotest.test_case "operand mutation convicted" `Quick test_operand_mutation_convicted;
    Alcotest.test_case "affinity: false sharing" `Quick test_affinity_false_sharing;
    Alcotest.test_case "affinity: migratory" `Quick test_affinity_migratory;
    Alcotest.test_case "affinity: stencil fine stride" `Quick test_affinity_fine_stencil;
  ]
