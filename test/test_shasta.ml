(* Tests for the Shasta runtime: API-mode accesses, MP and transparent
   synchronisation, and end-to-end execution of instrumented binaries. *)

module C = Shasta.Cluster
module R = Shasta.Runtime
module Cfg = Shasta.Config

(* Read a shared word from whichever domain holds a valid copy. *)
let read_valid cl addr =
  let values =
    List.filter_map
      (fun h ->
        match Protocol.Engine.block_state h.R.pcb addr with
        | _, (Protocol.Ptypes.Shared | Protocol.Ptypes.Exclusive) ->
            Some (Protocol.Engine.raw_read h.R.pcb addr Alpha.Insn.W64)
        | _, (Protocol.Ptypes.Invalid | Protocol.Ptypes.Pending) -> None)
      (C.runtimes cl)
  in
  match values with
  | v :: rest when List.for_all (fun x -> x = v) rest -> v
  | _ -> -1L

let small_cfg ?(nodes = 2) ?(cpus = 2) ?(variant = Protocol.Config.Smp)
    ?(model = Protocol.Config.Rc) () =
  {
    Cfg.default with
    Cfg.net = { Mchan.Net.default_config with Mchan.Net.nodes; cpus_per_node = cpus };
    protocol =
      { Protocol.Config.default with Protocol.Config.variant; model; shared_size = 256 * 1024 };
  }

let test_cross_node_store_load () =
  let cl = C.create (small_cfg ()) in
  let a = C.alloc cl 64 in
  let got = ref 0 in
  let _ = C.spawn cl ~cpu:0 "writer" (fun h -> R.store_int h a 1234) in
  let _ =
    C.spawn cl ~cpu:2 "reader" (fun h ->
        Sim.Proc.sleep 0.001;
        got := R.load_int h a)
  in
  ignore (C.run cl);
  Alcotest.(check int) "value crossed nodes" 1234 !got

let test_mp_lock_mutual_exclusion () =
  let cl = C.create (small_cfg ()) in
  let counter = C.alloc cl 64 in
  let iters = 50 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for _ = 1 to iters do
             R.lock h 0;
             let v = R.load_int h counter in
             R.work_cycles h 50;
             R.store_int h counter (v + 1);
             R.unlock h 0
           done))
  done;
  let check = ref 0 in
  let _ =
    C.spawn cl ~cpu:0 "checker" (fun h ->
        (* Runs after being spawned last on cpu 0's run queue; just wait
           until everyone is done incrementing. *)
        let rec wait () =
          if R.load_int h counter < 4 * iters then begin
            Sim.Proc.sleep 0.001;
            wait ()
          end
        in
        wait ();
        check := R.load_int h counter)
  in
  ignore (C.run cl);
  Alcotest.(check int) "lock protected all increments" (4 * iters) !check

let test_mp_barrier_phases () =
  let cl = C.create (small_cfg ()) in
  let slots = C.alloc cl (4 * 64) in
  let violations = ref 0 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for phase = 1 to 5 do
             R.store_int h (slots + (c * 64)) phase;
             R.barrier h ~id:9 ~parties:4;
             (* After the barrier every peer must have reached this
                phase. *)
             for peer = 0 to 3 do
               if R.load_int h (slots + (peer * 64)) < phase then incr violations
             done;
             R.barrier h ~id:9 ~parties:4
           done))
  done;
  ignore (C.run cl);
  Alcotest.(check int) "no barrier violations" 0 !violations

let test_atomic_add () =
  let cl = C.create (small_cfg ()) in
  let counter = C.alloc cl 64 in
  let finals = ref [] in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for _ = 1 to 50 do
             let old = R.atomic_add h counter 1 in
             finals := old :: !finals
           done))
  done;
  ignore (C.run cl);
  (* Fetch-and-add returns every value 0..199 exactly once. *)
  let sorted = List.sort compare !finals in
  Alcotest.(check (list int)) "all intermediate values seen" (List.init 200 Fun.id) sorted

let test_sm_lock_mutual_exclusion () =
  let cl = C.create (small_cfg ()) in
  let lockw = C.alloc cl 64 in
  let counter = C.alloc cl 64 in
  let iters = 30 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for _ = 1 to iters do
             R.sm_lock h lockw;
             let v = R.load_int h counter in
             R.work_cycles h 50;
             R.store_int h counter (v + 1);
             R.sm_unlock h lockw
           done))
  done;
  ignore (C.run cl);
  (* Check from outside the simulation: all valid copies agree. *)
  Alcotest.(check int) "LL/SC lock protected all increments" (4 * iters)
    (Int64.to_int (read_valid cl counter))

let test_sm_barrier () =
  let cl = C.create (small_cfg ()) in
  let bar = C.alloc cl 64 in
  let slots = C.alloc cl (4 * 64) in
  let violations = ref 0 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for phase = 1 to 4 do
             R.store_int h (slots + (c * 64)) phase;
             R.mb h;
             R.sm_barrier h ~addr:bar ~parties:4;
             for peer = 0 to 3 do
               if R.load_int h (slots + (peer * 64)) < phase then incr violations
             done;
             R.sm_barrier h ~addr:bar ~parties:4
           done))
  done;
  ignore (C.run cl);
  Alcotest.(check int) "no sm-barrier violations" 0 !violations

let test_checking_overhead () =
  (* Single processor, same access pattern, checks on vs off: the
     checked run must be slower by a small factor (Table 3 machinery). *)
  let run ~checks =
    let cfg = { (small_cfg ~nodes:1 ~cpus:1 ()) with Cfg.checks_enabled = checks } in
    let cl = C.create cfg in
    let a = C.alloc cl 65536 in
    let elapsed = ref 0.0 in
    let _ =
      C.spawn cl ~cpu:0 "app" (fun h ->
          let t0 = C.now cl in
          for i = 0 to 20000 do
            let addr = a + (i mod 1024 * 8) in
            R.store_int h addr i;
            ignore (R.load_int h addr)
          done;
          R.flush h;
          elapsed := C.now cl -. t0)
    in
    ignore (C.run cl);
    !elapsed
  in
  let base = run ~checks:false in
  let checked = run ~checks:true in
  let overhead = (checked -. base) /. base in
  Alcotest.(check bool)
    (Printf.sprintf "overhead %.1f%% in plausible range" (100.0 *. overhead))
    true
    (overhead > 0.2 && overhead < 3.0)

let test_breakdown_sane () =
  let cl = C.create (small_cfg ()) in
  let a = C.alloc cl 4096 in
  for c = 0 to 1 do
    ignore
      (C.spawn cl ~cpu:(c * 2) "worker" (fun h ->
           for i = 0 to 200 do
             R.store_int h (a + (i mod 32 * 64)) i;
             R.work_cycles h 100
           done;
           R.mb h))
  done;
  ignore (C.run cl);
  let b = C.total_breakdown cl in
  Alcotest.(check bool) "task time positive" true (b.Shasta.Breakdown.task > 0.0);
  Alcotest.(check bool) "write stall occurred" true (b.Shasta.Breakdown.write >= 0.0);
  Alcotest.(check bool) "total positive" true (Shasta.Breakdown.total b > 0.0)

(* --- IR mode: transparent execution of instrumented binaries --- *)

let lock_counter_program =
  (* main(a0 = lock, a1 = counter, a2 = iterations): the paper's Figure 1
     acquire loop around a read-modify-write of the counter. *)
  Alpha.Asm.(
    program
      [
        proc "main"
          [
            label "outer";
            (* acquire *)
            label "try_again";
            ll W32 t0 0 a0;
            bne t0 "try_again";
            li t0 1L;
            sc W32 t0 0 a0;
            beq t0 "try_again";
            mb;
            (* critical section *)
            ldq t1 0 a1;
            addi t1 1 t1;
            stq t1 0 a1;
            (* release *)
            mb;
            stl zero 0 a0;
            subi a2 1 a2;
            bgt a2 "outer";
            halt;
          ];
      ])

let test_instrumented_binary_runs_transparently () =
  let instrumented, stats = Rewrite.Instrument.instrument lock_counter_program in
  Alcotest.(check bool) "LL/SC pair recognised" true
    (stats.Rewrite.Instrument.llsc_pairs >= 1);
  let cl = C.create (small_cfg ()) in
  let lockw = C.alloc cl 64 in
  let counter = C.alloc cl 64 in
  let iters = 15 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "cpu" (fun h ->
           ignore
             (R.run_program h instrumented ~entry:"main"
                ~args:[ Int64.of_int lockw; Int64.of_int counter; Int64.of_int iters ]
                ())))
  done;
  ignore (C.run cl);
  Alcotest.(check int) "shared counter fully incremented" (4 * iters)
    (Int64.to_int (read_valid cl counter))

let test_uninstrumented_binary_reads_flags () =
  (* Without the inserted checks, a binary that loads remote shared data
     observes the invalid-flag value: transparency genuinely depends on
     the rewriter. *)
  let prog =
    Alpha.Asm.(program [ proc "main" [ ldq v0 0 a0; halt ] ])
  in
  let cl = C.create (small_cfg ()) in
  let a = C.alloc cl 64 in
  let seen = ref 0L in
  let _ = C.spawn cl ~cpu:0 "writer" (fun h -> R.store_int h a 77) in
  let _ =
    C.spawn cl ~cpu:2 "reader" (fun h ->
        Sim.Proc.sleep 0.001;
        let outcome = R.run_program h prog ~entry:"main" ~args:[ Int64.of_int a ] () in
        seen := outcome.Alpha.Interp.r0)
  in
  (* Make node 1's copy invalid: home everything at node 0. *)
  C.init ~homes:[ 0 ] cl;
  ignore (C.run cl);
  Alcotest.(check int64) "flag value observed"
    (Protocol.Config.flag_value Cfg.default.Cfg.protocol Alpha.Insn.W64)
    !seen

let test_instrumented_same_program_reads_correctly () =
  let prog =
    Alpha.Asm.(program [ proc "main" [ ldq v0 0 a0; halt ] ])
  in
  let instrumented, _ = Rewrite.Instrument.instrument prog in
  let cl = C.create (small_cfg ()) in
  let a = C.alloc cl 64 in
  let seen = ref 0L in
  let _ = C.spawn cl ~cpu:0 "writer" (fun h -> R.store_int h a 77) in
  let _ =
    C.spawn cl ~cpu:2 "reader" (fun h ->
        Sim.Proc.sleep 0.001;
        let outcome = R.run_program h instrumented ~entry:"main" ~args:[ Int64.of_int a ] () in
        seen := outcome.Alpha.Interp.r0)
  in
  C.init ~homes:[ 0 ] cl;
  ignore (C.run cl);
  Alcotest.(check int64) "instrumented binary sees the real value" 77L !seen

let suite =
  [
    Alcotest.test_case "cross-node store/load" `Quick test_cross_node_store_load;
    Alcotest.test_case "MP lock mutual exclusion" `Quick test_mp_lock_mutual_exclusion;
    Alcotest.test_case "MP barrier phases" `Quick test_mp_barrier_phases;
    Alcotest.test_case "atomic add" `Quick test_atomic_add;
    Alcotest.test_case "SM lock mutual exclusion" `Quick test_sm_lock_mutual_exclusion;
    Alcotest.test_case "SM barrier" `Quick test_sm_barrier;
    Alcotest.test_case "checking overhead" `Quick test_checking_overhead;
    Alcotest.test_case "breakdown sane" `Quick test_breakdown_sane;
    Alcotest.test_case "instrumented binary transparent" `Quick
      test_instrumented_binary_runs_transparently;
    Alcotest.test_case "uninstrumented binary reads flags" `Quick
      test_uninstrumented_binary_reads_flags;
    Alcotest.test_case "instrumented read correct" `Quick
      test_instrumented_same_program_reads_correctly;
  ]
