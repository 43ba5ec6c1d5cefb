(* Tests for the fault-injection plan and the reliable transport: the
   directory protocol must produce fault-free results under injected
   loss, duplication, reordering, corruption and node stalls, and the
   reliable layer must cost nothing when the fault plan is empty. *)

open Sim
module Plan = Fault.Plan

let heavy_faults =
  { Plan.drop = 0.2; dup = 0.15; corrupt = 0.1; delay = 0.25; delay_max = 2.0e-4 }

let test_plan_determinism () =
  let draw seed =
    let p = Plan.create ~seed ~default:heavy_faults () in
    List.init 300 (fun _ -> Plan.decide p ~src:0 ~dst:1)
  in
  Alcotest.(check bool) "same seed, same schedule" true (draw 42 = draw 42);
  Alcotest.(check bool) "different seed, different schedule" false (draw 42 = draw 43);
  let p = Plan.create ~seed:42 ~default:heavy_faults () in
  let a = List.init 300 (fun _ -> Plan.decide p ~src:0 ~dst:1) in
  let b = List.init 300 (fun _ -> Plan.decide p ~src:1 ~dst:0) in
  Alcotest.(check bool) "links draw independent streams" false (a = b)

let test_plan_outages () =
  let p =
    Plan.create
      ~outages:[ Plan.stall ~node:1 ~at:0.001 ~duration:0.002; Plan.crash ~node:2 ~at:0.5 ]
      ()
  in
  Alcotest.(check bool) "plan with outages is not empty" false (Plan.is_empty p);
  Alcotest.(check bool) "before stall" false (Plan.node_down p ~node:1 ~at:0.0009);
  Alcotest.(check bool) "stall start is inclusive" true (Plan.node_down p ~node:1 ~at:0.001);
  Alcotest.(check bool) "mid-stall" true (Plan.node_down p ~node:1 ~at:0.0029);
  Alcotest.(check bool) "stall end is exclusive" false (Plan.node_down p ~node:1 ~at:0.003);
  Alcotest.(check bool) "other node unaffected" false (Plan.node_down p ~node:0 ~at:0.002);
  Alcotest.(check bool) "before crash" false (Plan.node_down p ~node:2 ~at:0.4);
  Alcotest.(check bool) "crash never recovers" true (Plan.node_down p ~node:2 ~at:3600.0);
  Alcotest.(check bool) "empty plan is empty" true (Plan.is_empty Plan.empty)

let test_spec_parsing () =
  let p = Plan.of_spec "seed=7,drop=0.05,dup=0.01,delay=0.1:5e-5,stall=1@0.001:0.0005,crash=0@2.0" in
  Alcotest.(check bool) "seed" true
    (String.starts_with ~prefix:"fault plan (seed 7):" (Format.asprintf "%a" Plan.pp p));
  Alcotest.(check bool) "not empty" false (Plan.is_empty p);
  Alcotest.(check bool) "stall parsed" true (Plan.node_down p ~node:1 ~at:0.0012);
  Alcotest.(check bool) "crash parsed" true (Plan.node_down p ~node:0 ~at:5.0);
  let p2 = Plan.of_spec "seed=9,link=0-1:drop=0.5;dup=0.25" in
  (* The link override steers every verdict on 0->1; 1->0 stays clean. *)
  let only_01 = List.init 200 (fun _ -> Plan.decide p2 ~src:0 ~dst:1) in
  Alcotest.(check bool) "per-link override injects" true
    (List.exists (fun a -> a <> Plan.Deliver) only_01);
  Alcotest.(check bool) "other links clean" true
    (List.for_all (fun a -> a = Plan.Deliver) (List.init 200 (fun _ -> Plan.decide p2 ~src:1 ~dst:0)));
  Alcotest.(check bool) "seed-only spec is an empty plan" true (Plan.is_empty (Plan.of_spec "seed=5"));
  Alcotest.check_raises "probability sum above 1 rejected"
    (Invalid_argument "Plan.create: fault probabilities sum above 1") (fun () ->
      ignore (Plan.of_spec "drop=0.6,dup=0.6"));
  Alcotest.check_raises "garbage rejected"
    (Invalid_argument "Plan.of_spec: unknown key \"frobnicate\"") (fun () ->
      ignore (Plan.of_spec "frobnicate=1"));
  (* NaN compares false with every bound, so range checks must be
     written to fail on it. *)
  List.iter
    (fun spec ->
      match Plan.of_spec spec with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%S accepted" spec)
    [ "drop=nan"; "delay=0.1:inf"; "delay=0.1:nan"; "stall=1@nan:0.1"; "stall=1@0.1:nan"; "crash=0@nan" ]

(* Exactly-once, in-order delivery through Net.send under heavy loss,
   duplication, corruption and reordering. *)
let test_exactly_once_in_order () =
  let plan = Plan.create ~seed:9 ~default:heavy_faults () in
  let net =
    Mchan.Net.create ~plan
      { Mchan.Net.default_config with Mchan.Net.nodes = 2; cpus_per_node = 1 }
  in
  let eng = Mchan.Net.engine net in
  let got = ref [] in
  Engine.at eng 0.0 (fun () ->
      for i = 0 to 199 do
        Mchan.Net.send net ~src_node:0 ~dst_node:1 ~size:64 (fun () -> got := i :: !got)
      done);
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "all 200 delivered exactly once, in order"
    (List.init 200 (fun i -> i))
    (List.rev !got);
  let r = Option.get (Mchan.Net.reliable net) in
  let tot = Mchan.Reliable.totals r in
  Alcotest.(check bool) "losses forced retransmissions" true (tot.Mchan.Reliable.retransmits > 0);
  Alcotest.(check bool) "duplicates were suppressed" true (tot.Mchan.Reliable.dup_suppressed > 0);
  Alcotest.(check bool) "faults were injected" true
    (tot.Mchan.Reliable.inj_dropped > 0 && tot.Mchan.Reliable.inj_corrupted > 0)

(* A message sent into a stall window is delivered after the node
   recovers, by retransmission. *)
let test_stall_recovery () =
  let plan = Plan.create ~outages:[ Plan.stall ~node:1 ~at:0.0 ~duration:5.0e-4 ] () in
  let net =
    Mchan.Net.create ~plan
      { Mchan.Net.default_config with Mchan.Net.nodes = 2; cpus_per_node = 1 }
  in
  let eng = Mchan.Net.engine net in
  let delivered = ref [] in
  Engine.at eng 1.0e-4 (fun () ->
      Mchan.Net.send net ~src_node:0 ~dst_node:1 ~size:64 (fun () ->
          delivered := Engine.now eng :: !delivered));
  ignore (Engine.run eng);
  (match !delivered with
  | [ at ] -> Alcotest.(check bool) "delivered only after the stall ends" true (at >= 5.0e-4)
  | l -> Alcotest.failf "expected exactly one delivery, got %d" (List.length l));
  let r = Option.get (Mchan.Net.reliable net) in
  let tot = Mchan.Reliable.totals r in
  Alcotest.(check bool) "stall discarded frames" true (tot.Mchan.Reliable.outage_dropped > 0);
  Alcotest.(check bool) "recovery took retransmissions" true (tot.Mchan.Reliable.retransmits > 0)

(* --- whole-application runs --- *)

let cluster ?(plan = Plan.empty) ?(check_invariants = false) () =
  Shasta.Cluster.create
    {
      Shasta.Config.default with
      Shasta.Config.net =
        { Mchan.Net.default_config with Mchan.Net.nodes = 2; cpus_per_node = 2 };
      fault_plan = plan;
      protocol =
        {
          Protocol.Config.default with
          Protocol.Config.shared_size = 4 * 1024 * 1024;
          check_invariants;
        };
    }

let run_app ?plan spec ~size =
  let cl = cluster ?plan () in
  let elapsed, ok = Apps.Harness.run_spec cl spec ~nprocs:4 ~sync:Apps.Harness.Mp ~size () in
  let retx =
    match Shasta.Cluster.reliable cl with
    | None -> 0
    | Some r -> (Mchan.Reliable.totals r).Mchan.Reliable.retransmits
  in
  (elapsed, ok, retx)

(* Sizes mirror test_apps.ml: small enough to keep the suite quick. *)
let app_size spec =
  match spec.Apps.Harness.name with
  | "Barnes" -> 64
  | "FMM" -> 96
  | "LU" | "LU-Contig" -> 24
  | "Ocean" -> 18
  | "Raytrace" -> 48
  | "Volrend" -> 48
  | _ -> 40 (* Water-Nsq, Water-Sp *)

(* The acceptance run: >=5% drop plus a transient node stall; every
   registered application must still validate (coherence preserved) and
   the transport must have actually repaired losses. *)
let test_apps_survive_faults () =
  let total_retx = ref 0 in
  List.iter
    (fun spec ->
      let plan =
        Plan.create ~seed:123
          ~default:{ Plan.no_faults with Plan.drop = 0.05; dup = 0.01 }
          ~outages:[ Plan.stall ~node:1 ~at:2.0e-4 ~duration:3.0e-4 ]
          ()
      in
      let size = app_size spec in
      let _, ok_clean, _ = run_app spec ~size in
      let _, ok_faulty, retx = run_app ~plan spec ~size in
      total_retx := !total_retx + retx;
      Alcotest.(check bool)
        (Printf.sprintf "%s validates without faults" spec.Apps.Harness.name)
        true ok_clean;
      Alcotest.(check bool)
        (Printf.sprintf "%s validates under 5%% drop + stall (retx %d)" spec.Apps.Harness.name retx)
        true ok_faulty)
    Apps.Registry.all;
  Alcotest.(check bool) "retransmit counters are non-zero" true (!total_retx > 0)

(* An empty fault plan must not install the reliable layer at all: the
   simulated run time matches the raw channel exactly. *)
let test_empty_plan_zero_overhead () =
  let baseline, ok_a, _ = run_app Apps.Ocean.spec ~size:18 in
  let via_spec, ok_b, _ = run_app ~plan:(Plan.of_spec "seed=5") Apps.Ocean.spec ~size:18 in
  Alcotest.(check bool) "both validate" true (ok_a && ok_b);
  Alcotest.(check (float 0.0)) "empty plan: identical simulated time" baseline via_spec;
  let cl = cluster ~plan:(Plan.of_spec "seed=5") () in
  Alcotest.(check bool) "no transport installed" true (Shasta.Cluster.reliable cl = None)

(* Same seed, same fault schedule: faulty runs stay deterministic. *)
let test_faulty_run_deterministic () =
  let plan () =
    Plan.create ~seed:77 ~default:heavy_faults
      ~outages:[ Plan.stall ~node:0 ~at:3.0e-4 ~duration:2.0e-4 ]
      ()
  in
  let t_a, ok_a, retx_a = run_app ~plan:(plan ()) Apps.Lu.spec ~size:24 in
  let t_b, ok_b, retx_b = run_app ~plan:(plan ()) Apps.Lu.spec ~size:24 in
  Alcotest.(check bool) "both validate" true (ok_a && ok_b);
  Alcotest.(check (float 0.0)) "identical simulated time" t_a t_b;
  Alcotest.(check int) "identical retransmit count" retx_a retx_b;
  Alcotest.(check bool) "faults actually fired" true (retx_a > 0)

(* The coherence invariant checker is pure observation: a SPLASH run
   under injected loss with per-message checking on must report zero
   violations, still validate, and take the exact same simulated time
   as the unchecked run. *)
let test_invariant_checker_under_faults () =
  let plan () =
    Plan.create ~seed:31 ~default:{ Plan.no_faults with Plan.drop = 0.05; dup = 0.01 } ()
  in
  let t_off, ok_off, _ = run_app ~plan:(plan ()) Apps.Ocean.spec ~size:18 in
  let cl = cluster ~plan:(plan ()) ~check_invariants:true () in
  let t_on, ok_on =
    Apps.Harness.run_spec cl Apps.Ocean.spec ~nprocs:4 ~sync:Apps.Harness.Mp ~size:18 ()
  in
  Alcotest.(check bool) "both validate" true (ok_off && ok_on);
  Alcotest.(check (float 0.0)) "checker does not perturb the simulation" t_off t_on;
  Alcotest.(check bool) "checks actually ran" true
    (Protocol.Engine.invariant_checks (Shasta.Cluster.protocol_engine cl) > 0);
  Alcotest.(check (list string)) "quiescent state is clean" []
    (Protocol.Engine.check_quiescent (Shasta.Cluster.protocol_engine cl))

(* A crashed node never recovers: once a frame to it has gone unacked
   through every backed-off retransmission, the transport ends the run
   with [Link_failed] instead of hanging it. *)
let test_crash_ends_in_link_failed () =
  let cl = cluster ~plan:(Plan.of_spec "crash=1@0.0001") () in
  match Apps.Harness.run_spec cl Apps.Lu.spec ~nprocs:4 ~sync:Apps.Harness.Mp ~size:16 () with
  | _ -> Alcotest.fail "a run with a crashed node finished"
  | exception Mchan.Reliable.Link_failed { src; dst; attempts; _ } ->
      Alcotest.(check (pair int int)) "the link into the crashed node" (0, 1) (src, dst);
      Alcotest.(check int) "transmissions before giving up" 31 attempts;
      let now = Shasta.Cluster.now cl in
      Alcotest.(check bool)
        (Printf.sprintf "gave up after ~50 ms of backed-off retries (%.4f s)" now)
        true
        (now > 0.05 && now < 0.06)

(* A plan that names a node the cluster lacks is refused where it is
   installed, before anything runs, rather than never firing. *)
let test_plan_names_missing_node () =
  List.iter
    (fun (spec, node) ->
      Alcotest.check_raises spec
        (Invalid_argument (Printf.sprintf "Plan: node %d is not in the cluster (nodes 0..1)" node))
        (fun () -> ignore (cluster ~plan:(Plan.of_spec spec) ())))
    [ ("crash=2@0.001", 2); ("stall=5@0.001:0.001", 5); ("link=0-3:drop=0.5", 3) ]

(* The transparent LL/SC path must also survive injected faults. *)
let test_sm_sync_survives_faults () =
  let plan =
    Plan.create ~seed:5
      ~default:{ Plan.no_faults with Plan.drop = 0.05; delay = 0.1; delay_max = 5.0e-5 }
      ()
  in
  let cl = cluster ~plan () in
  let _, ok =
    Apps.Harness.run_spec cl Apps.Water.spec_nsq ~nprocs:4 ~sync:Apps.Harness.Sm ~size:40 ()
  in
  Alcotest.(check bool) "Water-Nsq validates with LL/SC sync under faults" true ok

let suite =
  [
    Alcotest.test_case "plan determinism" `Quick test_plan_determinism;
    Alcotest.test_case "plan outages" `Quick test_plan_outages;
    Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "exactly-once in-order delivery" `Quick test_exactly_once_in_order;
    Alcotest.test_case "stall recovery" `Quick test_stall_recovery;
    Alcotest.test_case "apps survive faults" `Quick test_apps_survive_faults;
    Alcotest.test_case "empty plan: zero overhead" `Quick test_empty_plan_zero_overhead;
    Alcotest.test_case "faulty runs deterministic" `Quick test_faulty_run_deterministic;
    Alcotest.test_case "invariant checker under faults" `Quick test_invariant_checker_under_faults;
    Alcotest.test_case "SM sync survives faults" `Quick test_sm_sync_survives_faults;
    Alcotest.test_case "crash ends in Link_failed" `Quick test_crash_ends_in_link_failed;
    Alcotest.test_case "plan naming a missing node refused" `Quick test_plan_names_missing_node;
  ]
