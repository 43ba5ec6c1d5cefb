(* Tests for the static-analysis trio: the translation validator
   (Rewrite.Verify), the redundant-check optimizer (Rewrite.Optimize),
   and their interaction with every instrumenter pass across the IR
   corpus. *)

open Alpha

module V = Rewrite.Verify
module Inst = Rewrite.Instrument

let instrument ?options prog = Inst.instrument ?options prog

let is_ok prog = V.ok (V.verify prog)

let n_diags prog = List.length (V.diags (V.verify prog))

let run_flat ?args prog entry =
  let rt = Runtime.flat ~size:(1 lsl 16) () in
  Interp.run prog rt ~entry ?args ()

(* --- the validator accepts correct code --- *)

let test_corpus_clean () =
  List.iter
    (fun (e : Apps.Ircorpus.entry) ->
      let prog, _ = instrument e.Apps.Ircorpus.e_program in
      let reports = V.verify prog in
      Alcotest.(check bool) (e.Apps.Ircorpus.e_name ^ " validator-clean") true (V.ok reports);
      let accesses = List.fold_left (fun a r -> a + r.V.r_accesses) 0 reports in
      Alcotest.(check bool)
        (e.Apps.Ircorpus.e_name ^ " verified some accesses")
        true (accesses > 0))
    Apps.Ircorpus.all

let test_manual_coverage_accepted () =
  (* A hand-placed store check dominating its store passes, including
     through a poll placed BEFORE the check (the corrected pass-3
     ordering). *)
  let prog =
    Asm.(
      program
        [
          proc "main"
            [ Insn.Poll; Insn.Store_check (W64, 0, a0); stq t0 0 a0; halt ];
        ])
  in
  Alcotest.(check bool) "poll-then-check covers" true (is_ok prog)

(* --- hand-built uncovered programs: each must draw a diagnostic --- *)

let test_uncovered_no_check () =
  let prog = Asm.(program [ proc "main" [ stq t0 0 a0; halt ] ]) in
  Alcotest.(check int) "one diagnostic" 1 (n_diags prog)

let test_uncovered_wrong_width () =
  (* A 32-bit check does not cover a 64-bit store. *)
  let prog =
    Asm.(program [ proc "main" [ Insn.Store_check (W32, 0, a0); stq t0 0 a0; halt ] ])
  in
  Alcotest.(check int) "one diagnostic" 1 (n_diags prog)

let test_uncovered_wrong_kind () =
  (* A load fact (flag check) does not license a store to the same
     line. *)
  let prog =
    Asm.(
      program
        [
          proc "main"
            [ ldq t0 0 a0; Insn.Load_check (W64, t0, 0, a0); stq t1 0 a0; halt ];
        ])
  in
  Alcotest.(check int) "one diagnostic" 1 (n_diags prog)

let test_uncovered_check_before_poll () =
  (* The pre-fix pass-3 ordering: a check issued BEFORE the backedge
     poll is killed by it (the poll may run protocol code that changes
     line states), so the access after the poll is uncovered. *)
  let prog =
    Asm.(
      program
        [
          proc "main"
            [ Insn.Store_check (W64, 0, a0); Insn.Poll; stq t0 0 a0; halt ];
        ])
  in
  Alcotest.(check int) "poll kills the fact" 1 (n_diags prog)

let test_uncovered_killed_by_call () =
  let prog =
    Asm.(
      program
        [
          proc "main" [ Insn.Store_check (W64, 0, a0); call "f"; stq t0 0 a0; halt ];
          proc "f" [ ret ];
        ])
  in
  Alcotest.(check int) "call kills the fact" 1 (n_diags prog)

let test_uncovered_non_dominating () =
  (* Diamond with the check on only one arm: the intersection at the
     join has no fact. *)
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              beq t9 "skip";
              Insn.Store_check (W64, 0, a0);
              label "skip";
              stq t0 0 a0;
              halt;
            ];
        ])
  in
  Alcotest.(check int) "check does not dominate" 1 (n_diags prog)

let test_uncovered_flag_not_adjacent () =
  (* The flag technique only works when the check directly follows its
     load (it inspects the just-loaded value); an intervening
     instruction voids it. *)
  let prog =
    Asm.(
      program
        [
          proc "main"
            [ ldq t0 0 a0; add t1 t1 t1; Insn.Load_check (W64, t0, 0, a0); halt ];
        ])
  in
  Alcotest.(check int) "one diagnostic" 1 (n_diags prog)

let test_uncovered_llsc () =
  let prog = Asm.(program [ proc "main" [ ll W32 t0 0 a0; halt ] ]) in
  Alcotest.(check int) "raw LL flagged" 1 (n_diags prog)

(* --- seeded instrumenter mutations: the validator convicts all --- *)

let test_instrumenter_mutations_caught () =
  let reports = Check.Mutation.(sweep (instrumenter ())) in
  Alcotest.(check int) "four families" 4 (List.length reports);
  List.iter
    (fun (r : Check.Mutation.report) ->
      Alcotest.(check bool) (r.Check.Mutation.label ^ " fired") true r.Check.Mutation.fired;
      Alcotest.(check bool)
        (r.Check.Mutation.label ^ " caught")
        true
        (r.Check.Mutation.caught <> None))
    reports;
  Alcotest.(check bool) "all caught" true (Check.Mutation.all_caught reports)

let test_instrumenter_miss_reported () =
  (* The miss path of the sweep: under a checker that never convicts,
     every family walks every fired site of the corpus and says so. *)
  let family =
    { (Check.Mutation.instrumenter ()) with Check.Mutation.convicts = (fun _ -> false) }
  in
  let fired_sites m =
    List.fold_left
      (fun acc (_, prog) ->
        let _, _, n = Check.Mutation.apply_imutation m ~site:(-1) prog in
        acc
        + List.length
            (List.filter
               (fun site ->
                 let _, fired, _ = Check.Mutation.apply_imutation m ~site prog in
                 fired)
               (List.init n Fun.id)))
      0 family.Check.Mutation.targets
  in
  List.iter2
    (fun (m, label) (r : Check.Mutation.report) ->
      let n = fired_sites m in
      Alcotest.(check bool) (label ^ " not caught") true (r.Check.Mutation.caught = None);
      Alcotest.(check bool) (label ^ " fired") true r.Check.Mutation.fired;
      Alcotest.(check int) (label ^ " trials = fired sites") n r.Check.Mutation.spent;
      Alcotest.(check bool)
        (label ^ " table row")
        true
        (Check.Mutation.(table family [ r ]).Sim.Stats.rows
        = [ (label, Sim.Stats.[ Str "MISSED (fired)"; Str "-"; Str "-"; Int n ]) ]))
    Check.Mutation.all_imutations
    (Check.Mutation.sweep family)

(* --- the optimizer --- *)

let opt_options = { Inst.default_options with Inst.redundant_elim = true }

let test_eliminates_diamond_redundancy () =
  (* Both arms of the diamond store to the same line, so the load at the
     join is covered on every path and its check is eliminable. *)
  let body =
    Asm.
      [
        ldq t0 0 a0;
        beq t0 "else";
        stq t0 8 a0;
        br "join";
        label "else";
        stq zero 8 a0;
        label "join";
        ldq t1 8 a0;
        add t1 t0 v0;
        halt;
      ]
  in
  let prog = Asm.(program [ proc "main" body ]) in
  let base, _ = instrument prog in
  let opt, stats = instrument ~options:opt_options prog in
  Alcotest.(check bool) "eliminated >= 1" true (stats.Inst.checks_eliminated >= 1);
  Alcotest.(check bool) "optimized code validator-clean" true (is_ok opt);
  Alcotest.(check int64) "same result on flat runtime" (run_flat base "main").Interp.r0
    (run_flat opt "main").Interp.r0

let test_hoists_loop_invariant_checks () =
  (* With polls off, the loop body has no barrier and the base is never
     written, so the batch check is hoistable to the preheader. *)
  let options = { opt_options with Inst.polls = false } in
  let body =
    Asm.
      [
        li t9 4L;
        label "loop";
        ldq t0 0 a0;
        stq t0 8 a0;
        subi t9 1 t9;
        bgt t9 "loop";
        ldq v0 8 a0;
        halt;
      ]
  in
  let prog = Asm.(program [ proc "main" body ]) in
  let base, _ = instrument ~options:{ options with Inst.redundant_elim = false } prog in
  let opt, stats = instrument ~options prog in
  Alcotest.(check bool) "hoisted >= 1" true (stats.Inst.checks_hoisted >= 1);
  Alcotest.(check bool) "optimized code validator-clean" true (is_ok opt);
  Alcotest.(check int64) "same result on flat runtime" (run_flat base "main").Interp.r0
    (run_flat opt "main").Interp.r0

let test_polls_block_hoisting () =
  (* Default options put a poll on every backedge; the poll is a
     protocol entry point, so nothing may be hoisted across it. *)
  List.iter
    (fun (e : Apps.Ircorpus.entry) ->
      let _, stats = instrument ~options:opt_options e.Apps.Ircorpus.e_program in
      Alcotest.(check int) (e.Apps.Ircorpus.e_name ^ " nothing hoisted") 0
        stats.Inst.checks_hoisted)
    Apps.Ircorpus.all

let test_corpus_bit_identical_with_fewer_check_slots () =
  (* The acceptance bar: with redundant_elim on, every kernel's result
     and final memory image are bit-identical while the executed
     check-slot count never rises — and drops overall. *)
  let total_base = ref 0 and total_opt = ref 0 in
  List.iter
    (fun (e : Apps.Ircorpus.entry) ->
      let base, _ = instrument e.Apps.Ircorpus.e_program in
      let opt, _ = instrument ~options:opt_options e.Apps.Ircorpus.e_program in
      let rb = Apps.Ircorpus.run base e in
      let ro = Apps.Ircorpus.run opt e in
      Alcotest.(check int64) (e.Apps.Ircorpus.e_name ^ " r0") rb.Apps.Ircorpus.r0 ro.Apps.Ircorpus.r0;
      Alcotest.(check bool)
        (e.Apps.Ircorpus.e_name ^ " image")
        true
        (rb.Apps.Ircorpus.image = ro.Apps.Ircorpus.image);
      Alcotest.(check bool)
        (e.Apps.Ircorpus.e_name ^ " check slots never rise")
        true
        (ro.Apps.Ircorpus.check_slots <= rb.Apps.Ircorpus.check_slots);
      total_base := !total_base + rb.Apps.Ircorpus.check_slots;
      total_opt := !total_opt + ro.Apps.Ircorpus.check_slots)
    Apps.Ircorpus.all;
  Alcotest.(check bool) "check slots drop overall" true (!total_opt < !total_base)

(* --- pass interaction: batching x granularity x polls --- *)

let test_pass_interaction_8_combos () =
  List.iter
    (fun batching ->
      List.iter
        (fun granularity_table ->
          List.iter
            (fun polls ->
              let options = { Inst.default_options with Inst.batching; granularity_table; polls } in
              List.iter
                (fun (e : Apps.Ircorpus.entry) ->
                  let prog, _ = instrument ~options e.Apps.Ircorpus.e_program in
                  let label =
                    Printf.sprintf "%s batching=%b gran=%b polls=%b" e.Apps.Ircorpus.e_name batching
                      granularity_table polls
                  in
                  Alcotest.(check bool) label true (V.ok (V.verify prog)))
                Apps.Ircorpus.all)
            [ true; false ])
        [ true; false ])
    [ true; false ]

let test_corpus_code_growth_band () =
  (* Default options must keep every kernel's static growth inside the
     band Table 3 reports for checking code (tens of percent to ~2-3x,
     never shrinkage or pathological blowup). *)
  List.iter
    (fun (e : Apps.Ircorpus.entry) ->
      let _, stats = instrument e.Apps.Ircorpus.e_program in
      let growth = Inst.code_growth stats in
      Alcotest.(check bool)
        (Printf.sprintf "%s growth %.2f in band" e.Apps.Ircorpus.e_name growth)
        true
        (growth > 0.1 && growth < 3.0))
    Apps.Ircorpus.all

(* --- per-pass statistics printing --- *)

let test_pp_stats_golden () =
  let prog =
    Asm.(
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
        ])
  in
  let _, stats = instrument prog in
  let expected =
    String.concat "\n"
      [
        "procedures          1";
        "code slots          13 -> 28 (+115%)";
        "load checks         3";
        "store checks        2";
        "private accesses    0 (no check)";
        "batches             1 covering 5 accesses";
        "polls               1";
        "mb checks           0";
        "ll/sc pairs         0";
        "prefetches          0";
        "gran lookups        0";
        "checks eliminated   0";
        "checks hoisted      0";
      ]
  in
  Alcotest.(check string) "stats text" expected (Format.asprintf "%a" Inst.pp_stats stats)

let suite =
  [
    Alcotest.test_case "corpus validator-clean" `Quick test_corpus_clean;
    Alcotest.test_case "manual coverage accepted" `Quick test_manual_coverage_accepted;
    Alcotest.test_case "uncovered: no check" `Quick test_uncovered_no_check;
    Alcotest.test_case "uncovered: wrong width" `Quick test_uncovered_wrong_width;
    Alcotest.test_case "uncovered: wrong kind" `Quick test_uncovered_wrong_kind;
    Alcotest.test_case "uncovered: check before poll" `Quick test_uncovered_check_before_poll;
    Alcotest.test_case "uncovered: killed by call" `Quick test_uncovered_killed_by_call;
    Alcotest.test_case "uncovered: non-dominating" `Quick test_uncovered_non_dominating;
    Alcotest.test_case "uncovered: flag not adjacent" `Quick test_uncovered_flag_not_adjacent;
    Alcotest.test_case "uncovered: raw LL/SC" `Quick test_uncovered_llsc;
    Alcotest.test_case "instrumenter mutations caught" `Quick test_instrumenter_mutations_caught;
    Alcotest.test_case "eliminates diamond redundancy" `Quick test_eliminates_diamond_redundancy;
    Alcotest.test_case "hoists loop-invariant checks" `Quick test_hoists_loop_invariant_checks;
    Alcotest.test_case "polls block hoisting" `Quick test_polls_block_hoisting;
    Alcotest.test_case "corpus bit-identical, fewer check slots" `Quick
      test_corpus_bit_identical_with_fewer_check_slots;
    Alcotest.test_case "pass interaction: 8 combos" `Quick test_pass_interaction_8_combos;
    Alcotest.test_case "corpus code growth band" `Quick test_corpus_code_growth_band;
    Alcotest.test_case "pp_stats golden" `Quick test_pp_stats_golden;
    Alcotest.test_case "instrumenter mutation miss reported" `Quick test_instrumenter_miss_reported;
  ]
