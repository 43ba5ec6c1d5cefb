(* Bechamel micro-benchmarks of the real (host) hot paths: the
   simulator's event queue, the memory image, the state tables, the
   interpreter, and the rewriter.  These measure OCaml execution cost,
   complementing the simulated-time experiments. *)

open Bechamel
open Toolkit

let heap_push_pop =
  Test.make ~name:"event heap push+pop x64"
    (Staged.stage (fun () ->
         let eng = Sim.Engine.create () in
         for i = 0 to 63 do
           Sim.Engine.at eng (float_of_int ((i * 37) mod 64)) ignore
         done;
         ignore (Sim.Engine.run eng)))

let bench_layout = Protocol.Layout.uniform ~base:0 ~size:65536 ~block:64 ()

let bench_image () =
  Protocol.Memimg.create ~layout:bench_layout
    ~static_home:(Array.make (Protocol.Layout.n_blocks bench_layout) 0)
    ~dom:0

let memimg_ops =
  let img = bench_image () in
  Test.make ~name:"memory image read+write x64"
    (Staged.stage (fun () ->
         for i = 0 to 63 do
           Protocol.Memimg.write ~pid:1 img (i * 64) Alpha.Insn.W64 (Int64.of_int i);
           ignore (Protocol.Memimg.read img (i * 64) Alpha.Insn.W64)
         done))

let flag_fill =
  let img = bench_image () in
  Test.make ~name:"invalid-flag fill x64 blocks"
    (Staged.stage (fun () ->
         for b = 0 to 63 do
           Protocol.Memimg.write_flags img ~block:b
         done))

let layout_lookup =
  let mixed =
    Protocol.Layout.create ~base:0 ~size:65536
      [
        { Protocol.Layout.rs_name = "fine"; rs_size = 32768; rs_block = 64 };
        { Protocol.Layout.rs_name = "bulk"; rs_size = 32768; rs_block = 512 };
      ]
  in
  Test.make ~name:"layout: block_of_addr x64"
    (Staged.stage (fun () ->
         for i = 0 to 63 do
           ignore (Protocol.Layout.block_of_addr mixed (i * 1021))
         done))

let interp_loop =
  let prog =
    Alpha.Asm.(
      program
        [
          proc "main"
            [ li t0 1000L; label "loop"; addi t1 1 t1; subi t0 1 t0; bgt t0 "loop"; halt ];
        ])
  in
  let rt = Alpha.Runtime.flat ~size:4096 () in
  Test.make ~name:"interpreter: 1000-iteration loop"
    (Staged.stage (fun () -> ignore (Alpha.Interp.run prog rt ~entry:"main" ())))

let rewriter =
  let prog = Experiments.skeleton ~procedures:8 ~mix:Experiments.sci_mix in
  Test.make ~name:"rewriter: instrument 8 procedures"
    (Staged.stage (fun () -> ignore (Rewrite.Instrument.instrument prog)))

let rng_stream =
  let rng = Sim.Rng.create 7 in
  Test.make ~name:"rng: 64 draws" (Staged.stage (fun () ->
      for _ = 1 to 64 do
        ignore (Sim.Rng.int rng 1000)
      done))

let run_micro () =
  let tests =
    [ heap_push_pop; memimg_ops; flag_fill; layout_lookup; interp_loop; rewriter; rng_stream ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  Printf.printf "\nBechamel micro-benchmarks (host execution time)\n";
  Printf.printf "------------------------------------------------\n";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"micro" [ test ]) in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some (t :: _) -> Printf.printf "%-44s %12.1f ns/run\n" name t
          | Some [] | None -> Printf.printf "%-44s (no estimate)\n" name)
        results)
    tests
