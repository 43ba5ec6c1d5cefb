(* Application kernels: every workload must validate against its pure
   reference implementation when run through the full DSM, under both
   synchronisation flavours. *)

module Cfg = Shasta.Config
open Apps

let cluster ?(nodes = 2) ?(cpus = 2) ?(line = 64) ?(model = Protocol.Config.Rc) () =
  Shasta.Cluster.create
    {
      Cfg.default with
      Cfg.net = { Mchan.Net.default_config with Mchan.Net.nodes; cpus_per_node = cpus };
      protocol =
        {
          Protocol.Config.default with
          Protocol.Config.shared_size = 4 * 1024 * 1024;
          line_size = line;
          model;
        };
    }

let run ?(nprocs = 4) ?(sync = Harness.Mp) spec ~size =
  let cl = cluster () in
  let elapsed, ok = Harness.run_spec cl spec ~nprocs ~sync ~size () in
  Alcotest.(check bool)
    (Printf.sprintf "%s validates (n=%d, p=%d, %.2fms simulated)" spec.Harness.name size nprocs
       (1000.0 *. elapsed))
    true ok;
  elapsed

let test_app ?nprocs ?sync spec ~size () = ignore (run ?nprocs ?sync spec ~size)

let test_speedup_positive () =
  (* 4 processors must beat 1 on a compute-heavy kernel. *)
  let t1 = run ~nprocs:1 Barnes.spec ~size:160 in
  let t4 = run ~nprocs:4 Barnes.spec ~size:160 in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.2f > 1.5" (t1 /. t4))
    true
    (t1 /. t4 > 1.5)

let test_determinism () =
  let t_a = run ~nprocs:4 Ocean.spec ~size:18 in
  let t_b = run ~nprocs:4 Ocean.spec ~size:18 in
  Alcotest.(check (float 0.0)) "simulation is deterministic" t_a t_b

let test_lu_layouts_differ () =
  (* LU-Contig should communicate less than row-major LU.  The layouts
     diverge when a coherence line spans two neighbouring blocks, so run
     this comparison with 128-byte lines (the paper uses 64-256). *)
  let messages layout_spec =
    let cl = cluster ~line:128 () in
    let _, ok = Harness.run_spec cl layout_spec ~nprocs:4 ~sync:Harness.Mp ~size:32 () in
    Alcotest.(check bool) "valid" true ok;
    Mchan.Net.remote_messages cl.Shasta.Cluster.net
  in
  let plain = messages Lu.spec in
  let contig = messages Lu.spec_contig in
  Alcotest.(check bool)
    (Printf.sprintf "contiguous layout sends fewer messages (%d < %d)" contig plain)
    true (contig < plain)

(* SMP-Shasta under [Sc] with LL/SC sync, at the application's default
   size, within an event budget: an [Sc] store that waits for its miss
   and then inspects its line again livelocks both shapes. *)
let test_sc_sm_sync spec ~nodes ~cpus ~budget () =
  let cl = cluster ~nodes ~cpus ~model:Protocol.Config.Sc () in
  let finish = Harness.start cl spec ~nprocs:(nodes * cpus) ~sync:Harness.Sm () in
  Shasta.Cluster.init cl;
  let stop = Sim.Engine.run ~max_events:budget (Shasta.Cluster.sim cl) in
  Alcotest.(check bool)
    (Printf.sprintf "quiescent within %d events (%d fired)" budget
       (Sim.Engine.events_fired (Shasta.Cluster.sim cl)))
    true (stop = Sim.Engine.Quiescent);
  let elapsed, ok = finish () in
  Alcotest.(check bool)
    (Printf.sprintf "%s validates (%.2fms simulated)" spec.Harness.name (1000.0 *. elapsed))
    true ok

let suite =
  [
    Alcotest.test_case "LU validates" `Quick (test_app Lu.spec ~size:32);
    Alcotest.test_case "LU-Contig validates" `Quick (test_app Lu.spec_contig ~size:32);
    Alcotest.test_case "Ocean validates" `Quick (test_app Ocean.spec ~size:18);
    Alcotest.test_case "Barnes validates" `Quick (test_app Barnes.spec ~size:64);
    Alcotest.test_case "FMM validates" `Quick (test_app Fmm.spec ~size:128);
    Alcotest.test_case "Water-Nsq validates" `Quick (test_app Water.spec_nsq ~size:48);
    Alcotest.test_case "Water-Sp validates" `Quick (test_app Water.spec_spatial ~size:48);
    Alcotest.test_case "Raytrace validates" `Quick (test_app Raytrace.spec ~size:64);
    Alcotest.test_case "Volrend validates" `Quick (test_app Volrend.spec ~size:64);
    Alcotest.test_case "LU validates with SM sync" `Quick
      (test_app ~sync:Harness.Sm Lu.spec ~size:32);
    Alcotest.test_case "Ocean validates with SM sync" `Quick
      (test_app ~sync:Harness.Sm Ocean.spec ~size:18);
    Alcotest.test_case "Raytrace validates with SM sync" `Quick
      (test_app ~sync:Harness.Sm Raytrace.spec ~size:48);
    Alcotest.test_case "Water-Nsq validates with SM sync" `Quick
      (test_app ~sync:Harness.Sm Water.spec_nsq ~size:40);
    Alcotest.test_case "single-processor runs validate" `Quick
      (test_app ~nprocs:1 Fmm.spec ~size:96);
    Alcotest.test_case "two-processor runs validate" `Quick
      (test_app ~nprocs:2 Volrend.spec ~size:48);
    Alcotest.test_case "speedup positive" `Quick test_speedup_positive;
    Alcotest.test_case "deterministic" `Quick test_determinism;
    Alcotest.test_case "LU layouts differ" `Quick test_lu_layouts_differ;
    Alcotest.test_case "LU on 2x4 with SM sync under Sc" `Quick
      (test_sc_sm_sync Lu.spec ~nodes:2 ~cpus:4 ~budget:1_500_000);
    Alcotest.test_case "Water-Sp on 4x4 with SM sync under Sc" `Quick
      (test_sc_sm_sync Water.spec_spatial ~nodes:4 ~cpus:4 ~budget:2_500_000);
  ]
