(* A complete parallel kernel as an unmodified "multiprocessor binary":
   red-black integer stencil over a shared array, synchronised by a
   barrier implemented with LL/SC and MB instructions — no Shasta
   constructs anywhere.  The rewriter instruments it; four processors on
   two nodes execute it; the result must equal a pure reference.

   This exercises, end to end: dataflow-guided check insertion, the flag
   technique, batching, LL/SC transformation with poll-free success
   paths, loop-head polls, MB protocol calls, and the coherence
   protocol under real sharing. *)

module C = Shasta.Cluster
module R = Shasta.Runtime

(* barrier(a4 = [count; gen], a5 = parties): sense-reversing central
   barrier; uses t9-t12 only. *)
let barrier_proc =
  let a5 = 21 and t10 = 24 and t11 = 25 and t12 = 27 in
  Alpha.Asm.(
    proc "barrier"
      [
        ldq t9 8 a4 (* my_gen *);
        label "retry";
        ll W64 t10 0 a4;
        addi t10 1 t10;
        mov t10 t12;
        sc W64 t10 0 a4;
        beq t10 "retry";
        Alpha.Insn.Binop (Sub, t12, Reg a5, t11);
        bne t11 "wait";
        (* Last arriver: reset the count, publish the next generation. *)
        stq zero 0 a4;
        mb;
        ldq t10 8 a4;
        addi t10 1 t10;
        stq t10 8 a4;
        mb;
        br "done";
        label "wait";
        label "spin";
        ldq t10 8 a4;
        Alpha.Insn.Binop (Sub, t10, Reg t9, t11);
        beq t11 "spin";
        label "done";
        ret;
      ])

(* main(a0 = array, a1 = lo, a2 = hi, a3 = iterations, a4 = barrier,
   a5 = parties): for each iteration and color, update cells of that
   parity in [lo, hi) as a[i] <- (a[i-1] + a[i+1]) / 2. *)
let stencil_program =
  Alpha.Asm.(
    program
      [
        barrier_proc;
        proc "main"
          [
            label "iter";
            li s3 0L (* color *);
            label "color_phase";
            mov a1 s0 (* i = lo *);
            label "row";
            (* skip cells of the wrong parity *)
            andi s0 1 t0;
            Alpha.Insn.Binop (Sub, t0, Reg s3, t0);
            bne t0 "next";
            (* t1 = a[i-1], t2 = a[i+1]; a[i] = (t1 + t2) / 2 *)
            slli s0 3 t3;
            add a0 t3 t3;
            ldq t1 (-8) t3;
            ldq t2 8 t3;
            add t1 t2 t1;
            Alpha.Insn.Binop (Srl, t1, Imm 1, t1);
            stq t1 0 t3;
            label "next";
            addi s0 1 s0;
            Alpha.Insn.Binop (Sub, s0, Reg a2, t0);
            Alpha.Insn.Bcond (Lt, t0, "row");
            call "barrier";
            addi s3 1 s3;
            cmplti s3 2 t0;
            bne t0 "color_phase";
            subi a3 1 a3;
            bgt a3 "iter";
            halt;
          ];
      ])

let reference ~n ~iters init =
  let a = Array.init n init in
  for _ = 1 to iters do
    for color = 0 to 1 do
      for i = 1 to n - 2 do
        if i land 1 = color then a.(i) <- (a.(i - 1) + a.(i + 1)) / 2
      done
    done
  done;
  a

let init_cell i = (i * 37) mod 1000

let run_stencil ~nprocs ~n ~iters =
  let instrumented, stats = Rewrite.Instrument.instrument stencil_program in
  Alcotest.(check bool) "LL/SC pair recognised in the barrier" true
    (stats.Rewrite.Instrument.llsc_pairs >= 1);
  let cl =
    C.create
      {
        Shasta.Config.default with
        Shasta.Config.net =
          { Mchan.Net.default_config with Mchan.Net.nodes = 2; cpus_per_node = 2 };
        protocol = { Protocol.Config.default with Protocol.Config.shared_size = 1024 * 1024 };
      }
  in
  let arr = C.alloc cl (8 * n) in
  let bar = C.alloc cl 64 in
  let _init =
    C.spawn cl ~cpu:0 "init" (fun h ->
        for i = 0 to n - 1 do
          R.store_int h (arr + (8 * i)) (init_cell i)
        done;
        R.mb h)
  in
  let per = (n - 2 + nprocs - 1) / nprocs in
  for p = 0 to nprocs - 1 do
    let lo = 1 + (p * per) in
    let hi = min (n - 1) (lo + per) in
    ignore
      (C.spawn cl ~cpu:p (Printf.sprintf "cpu%d" p) (fun h ->
           Sim.Proc.sleep 2e-4 (* let init finish *);
           ignore
             (R.run_program h instrumented ~entry:"main"
                ~args:
                  [ Int64.of_int arr; Int64.of_int lo; Int64.of_int hi; Int64.of_int iters;
                    Int64.of_int bar; Int64.of_int nprocs ]
                ())))
  done;
  ignore (C.run cl);
  let r = reference ~n ~iters init_cell in
  let ok = ref true in
  for i = 0 to n - 1 do
    match Apps.Harness.read_valid cl (arr + (8 * i)) with
    | Some v when Int64.to_int v = r.(i) -> ()
    | Some v ->
        ok := false;
        if i < 3 then
          Printf.printf "cell %d: got %Ld expected %d\n" i v r.(i)
    | None -> ok := false
  done;
  !ok

let test_ir_stencil_4p () =
  Alcotest.(check bool) "4-processor IR stencil matches reference" true
    (run_stencil ~nprocs:4 ~n:96 ~iters:4)

let test_ir_stencil_2p () =
  Alcotest.(check bool) "2-processor IR stencil matches reference" true
    (run_stencil ~nprocs:2 ~n:64 ~iters:3)

let test_ir_stencil_1p () =
  Alcotest.(check bool) "uniprocessor IR stencil matches reference" true
    (run_stencil ~nprocs:1 ~n:48 ~iters:2)

let suite =
  [
    Alcotest.test_case "IR stencil 1 proc" `Quick test_ir_stencil_1p;
    Alcotest.test_case "IR stencil 2 procs" `Quick test_ir_stencil_2p;
    Alcotest.test_case "IR stencil 4 procs" `Quick test_ir_stencil_4p;
  ]
