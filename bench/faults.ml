(* Slowdown versus injected message-drop rate: what the reliable
   transport costs the directory protocol as the simulated Memory
   Channel degrades.  Runs LU and Ocean on a 2x2 cluster at increasing
   drop rates and reports simulated time, slowdown over the fault-free
   channel, and the transport's repair work. *)

module Plan = Fault.Plan

let cluster plan =
  Shasta.Cluster.create
    {
      Shasta.Config.default with
      Shasta.Config.net =
        { Mchan.Net.default_config with Mchan.Net.nodes = 2; cpus_per_node = 2 };
      fault_plan = plan;
      protocol =
        { Protocol.Config.default with Protocol.Config.shared_size = 4 * 1024 * 1024 };
    }

(* Simulated time and the transport's [sent; retx; acks]: on the raw
   channel every remote message is one first transmission. *)
let measure spec ~size plan =
  let cl = cluster plan in
  let elapsed, ok = Apps.Harness.run_spec cl spec ~nprocs:4 ~sync:Apps.Harness.Mp ~size () in
  if not ok then failwith (spec.Apps.Harness.name ^ " failed to validate");
  let counts =
    match Shasta.Cluster.reliable cl with
    | None -> [ Mchan.Net.remote_messages cl.Shasta.Cluster.net; 0; 0 ]
    | Some r ->
        let x = Mchan.Reliable.totals r in
        Mchan.Reliable.[ x.data_sent; x.retransmits; x.acks_sent ]
  in
  (elapsed, Sim.Stats.ints counts)

let drop_rates = [ 0.01; 0.02; 0.05; 0.10; 0.20 ]

let run_faults () =
  List.iter
    (fun (spec, size) ->
      let plan drop =
        if drop = 0.0 then Plan.empty
        else Plan.create ~seed:11 ~default:{ Plan.no_faults with Plan.drop } ()
      in
      let runs = List.map (fun d -> (d, measure spec ~size (plan d))) (0.0 :: drop_rates) in
      let base = fst (List.assoc 0.0 runs) in
      let row (drop, (t, counts)) =
        let slow = Sim.Stats.[ Float (1e3 *. t); Float (t /. base) ] in
        (Printf.sprintf "%.1f" (100.0 *. drop), slow @ counts)
      in
      Support.print
        {
          Sim.Stats.title =
            Printf.sprintf
              "Reliable transport: slowdown vs injected drop rate, %s (size %d, 4 procs, 2 nodes)"
              spec.Apps.Harness.name size;
          columns = [ "drop_pct"; "elapsed_ms"; "slowdown"; "msgs"; "retx"; "acks" ];
          rows = List.map row runs;
        })
    [ (Apps.Lu.spec, 32); (Apps.Ocean.spec, 18) ]
