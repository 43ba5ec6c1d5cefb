(* CLI: open-loop load generation against minidb on the simulated
   cluster — offered arrivals, admission control, tail-latency report.

     dune exec bin/shasta_serve.exe -- --arrival poisson:40000 --clients 512 \
       --duration 0.05 --admission queue:256:0.02
     dune exec bin/shasta_serve.exe -- --sweep 10000,20000,40000,80000,160000

   Same seed => bit-identical latency histograms (the --json report can
   be diffed byte for byte). *)

module S = Load.Serve
module A = Load.Arrival

let () =
  let arrival = ref "poisson:20000" in
  let clients = ref 256 in
  let window = ref 4 in
  let duration = ref 0.05 in
  let admission = ref "queue:256:0.02" in
  let scan_share = ref 0.1 in
  let seed = ref 42 in
  let nodes = ref 2 in
  let cpus = ref 4 in
  let servers = ref 6 in
  let faults = ref "" in
  let sweep = ref "" in
  let json_out = ref "" in
  let metrics = ref false in
  let args =
    [
      ("--arrival", Arg.Set_string arrival, " arrival process: " ^ A.spec_help);
      ("--clients", Arg.Set_int clients, " simulated client sessions");
      ("--window", Arg.Set_int window, " per-client in-flight window");
      ("--duration", Arg.Set_float duration, " seconds of offered load (simulated)");
      ("--admission", Arg.Set_string admission, " admission policy: " ^ Load.Admission.spec_help);
      ("--scan-share", Arg.Set_float scan_share, " fraction of requests that are scans");
      ("--seed", Arg.Set_int seed, " RNG seed (arrivals, mix, placement)");
      ("--nodes", Arg.Set_int nodes, " cluster nodes");
      ("--cpus", Arg.Set_int cpus, " processors per node");
      ("--servers", Arg.Set_int servers, " server worker processes");
      ( "--faults",
        Arg.Set_string faults,
        " fault plan, e.g. \"seed=42,drop=0.05\" (composes with the multiplexer)" );
      ( "--sweep",
        Arg.Set_string sweep,
        " comma-separated offered rates; runs a saturation sweep instead of one point" );
      ("--json", Arg.Set_string json_out, " write the machine-readable report to this file");
      ( "--metrics",
        Arg.Set metrics,
        " print every metrics table: the sweep, then each point's cluster tables" );
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "shasta_serve [options]";
  let plan =
    if !faults = "" then Fault.Plan.empty else Cli.spec "--faults" Fault.Plan.of_spec !faults
  in
  let nodes = Cli.at_least "--nodes" 1 !nodes in
  let cpus = Cli.at_least "--cpus" 1 !cpus in
  (* Cpu 0 hosts the root process and the database daemons; servers
     take cpus 1.., one each. *)
  if nodes * cpus < 2 then
    Cli.usage_error "--cpus"
      (Printf.sprintf
         "%d node x %d CPU leaves no CPU for the server workers (CPU 0 hosts the root and \
          the database daemons)"
         nodes cpus);
  if !json_out <> "" then Cli.writable "--json" !json_out;
  let servers = Cli.in_range "--servers" 1 ((nodes * cpus) - 1) !servers in
  let cluster_cfg = S.cluster_config ~nodes ~cpus_per_node:cpus ~fault_plan:plan () in
  if not (!scan_share >= 0.0 && !scan_share <= 1.0) then
    Cli.usage_error "--scan-share" (Printf.sprintf "must be in [0, 1], got %g" !scan_share);
  let cfg =
    {
      S.default_config with
      S.seed = !seed;
      arrival = Cli.spec "--arrival" A.of_spec !arrival;
      clients = Cli.at_least "--clients" 1 !clients;
      window = Cli.at_least "--window" 1 !window;
      duration = Cli.positive "--duration" !duration;
      scan_share = !scan_share;
      admission = Cli.spec "--admission" Load.Admission.of_spec !admission;
      server_cpus = List.init servers (fun i -> 1 + i);
    }
  in
  let print = Format.printf "@.%a" Sim.Stats.pp_table in
  let print_clusters points =
    List.iter
      (fun p ->
        Format.printf "@.-- %.0f req/s --@." p.S.sp_rate;
        List.iter print (Shasta.Cluster.tables p.S.sp_outcome.S.cluster))
      points
  in
  if !sweep = "" then begin
    let o = S.run ~cluster_cfg cfg in
    let point = { S.sp_rate = A.mean_rate cfg.S.arrival; sp_outcome = o } in
    Format.printf "%a" Load.Recorder.pp o.S.recorder;
    Format.printf "validated: %b  drained: %b  (%.1f ms simulated)@." o.S.ok o.S.drained
      (1000.0 *. o.S.elapsed);
    if !metrics then begin
      print (S.sweep_table [ point ]);
      print_clusters [ point ]
    end
    else
      Option.iter (fun r -> print (Mchan.Reliable.table r)) (Shasta.Cluster.reliable o.S.cluster);
    if !json_out <> "" then begin
      Load.Json.write_file !json_out (S.sweep_json ~cfg [ point ]);
      Printf.printf "wrote %s\n" !json_out
    end;
    if not (o.S.ok && o.S.drained) then exit 1
  end
  else begin
    let rate s =
      match float_of_string_opt s with
      | Some r -> Cli.spec "--sweep" (fun r -> A.validate (A.Poisson { rate = r }); r) r
      | None -> Cli.usage_error "--sweep" (Printf.sprintf "not a rate: %S" s)
    in
    let rates = List.map rate (String.split_on_char ',' !sweep) in
    let points = S.sweep ~cluster_cfg ~cfg rates in
    print (S.sweep_table points);
    let all_ok = List.for_all (fun p -> p.S.sp_outcome.S.ok && p.S.sp_outcome.S.drained) points in
    Format.printf "all points validated and drained: %b@." all_ok;
    if !metrics then print_clusters points;
    if !json_out <> "" then begin
      Load.Json.write_file !json_out (S.sweep_json ~cfg points);
      Printf.printf "wrote %s\n" !json_out
    end;
    if not all_ok then exit 1
  end
