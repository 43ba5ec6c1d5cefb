(* A SPLASH-2-style scientific workload on the cluster: the Ocean
   red-black relaxation kernel, run with both synchronisation flavours
   of Figure 3 (message-passing vs transparent LL/SC).

   Run with:  dune exec examples/splash_ocean.exe *)

let run ~sync ~nprocs =
  let cfg =
    {
      Shasta.Config.default with
      Shasta.Config.net =
        { Mchan.Net.default_config with Mchan.Net.nodes = 2; cpus_per_node = 2 };
      protocol = { Protocol.Config.default with Protocol.Config.shared_size = 4 * 1024 * 1024 };
    }
  in
  let cl = Shasta.Cluster.create cfg in
  let elapsed, ok = Apps.Harness.run_spec cl Apps.Ocean.spec ~nprocs ~sync ~size:130 () in
  (elapsed, ok, Shasta.Cluster.total_breakdown cl)

let () =
  Printf.printf "Ocean (130x130 grid, 8 iterations)\n\n";
  let t1, ok1, _ = run ~sync:Apps.Harness.Mp ~nprocs:1 in
  Printf.printf "1 processor:                %.2f ms  (validated: %b)\n" (1000.0 *. t1) ok1;
  let tmp, okm, bmp = run ~sync:Apps.Harness.Mp ~nprocs:4 in
  Printf.printf "4 procs, MP barriers:       %.2f ms  (speedup %.2f, validated: %b)\n"
    (1000.0 *. tmp) (t1 /. tmp) okm;
  let tsm, oks, bsm = run ~sync:Apps.Harness.Sm ~nprocs:4 in
  Printf.printf "4 procs, LL/SC barriers:    %.2f ms  (speedup %.2f, validated: %b)\n"
    (1000.0 *. tsm) (t1 /. tsm) oks;
  Printf.printf "\nThe transparent (LL/SC) barriers cost more because every barrier\n";
  Printf.printf "atomically increments a shared counter through the protocol:\n";
  Format.printf "@.%a" Sim.Stats.pp_table
    (Shasta.Breakdown.table ~title:"time breakdowns, 4 procs" ~key:"sync"
       [ ("MP", bmp); ("LL/SC", bsm) ])
