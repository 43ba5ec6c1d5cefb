(* Cost of the coherence checking layers: host-time overhead of the
   per-message invariant checker on a SPLASH run (the simulated time
   must not move at all — the checker is pure observation), and the
   throughput of the schedule explorer over the litmus suite. *)

let cluster ~check_invariants =
  Shasta.Cluster.create
    {
      Shasta.Config.default with
      Shasta.Config.net =
        { Mchan.Net.default_config with Mchan.Net.nodes = 2; cpus_per_node = 2 };
      protocol =
        {
          Protocol.Config.default with
          Protocol.Config.shared_size = 4 * 1024 * 1024;
          check_invariants;
        };
    }

let measure ~check_invariants spec ~size =
  let cl = cluster ~check_invariants in
  let t0 = Unix.gettimeofday () in
  let elapsed, ok =
    Apps.Harness.run_spec cl spec ~nprocs:4 ~sync:Apps.Harness.Mp ~size ()
  in
  let host = Unix.gettimeofday () -. t0 in
  if not ok then failwith (spec.Apps.Harness.name ^ " failed to validate");
  (elapsed, host, Protocol.Engine.invariant_checks (Shasta.Cluster.protocol_engine cl))

let run_checker () =
  Printf.printf "\n== Invariant checker: host-time cost (4 procs, 2 nodes) ==\n";
  Printf.printf "%-12s %14s %14s %12s %10s %9s\n" "app" "sim time off" "sim time on"
    "host off" "host on" "checks";
  List.iter
    (fun (spec, size) ->
      let sim_off, host_off, _ = measure ~check_invariants:false spec ~size in
      let sim_on, host_on, checks = measure ~check_invariants:true spec ~size in
      if sim_off <> sim_on then
        failwith (spec.Apps.Harness.name ^ ": checker perturbed the simulation");
      Printf.printf "%-12s %12.6fs %12.6fs %10.2fms %8.2fms %9d\n"
        spec.Apps.Harness.name sim_off sim_on (host_off *. 1e3) (host_on *. 1e3)
        checks)
    [ (Apps.Lu.spec, 32); (Apps.Ocean.spec, 26) ];
  Printf.printf "\n== Schedule explorer: litmus throughput (fully checked runs) ==\n";
  List.iter
    (fun (sc : Check.Litmus.scenario) ->
      let n = 32 in
      let t0 = Unix.gettimeofday () in
      let r = Check.Explore.seeds ~n:(n - 1) (Check.Litmus.as_scenario sc) in
      let host = Unix.gettimeofday () -. t0 in
      Printf.printf "%-18s %4d runs in %6.2fms (%6.0f runs/s), %d failures\n"
        sc.Check.Litmus.name n (host *. 1e3)
        (float_of_int n /. host)
        (List.length r.Check.Explore.failures))
    Check.Litmus.all
