(* CLI: open-loop load generation against minidb on the simulated
   cluster — offered arrivals, admission control, tail-latency report.

     dune exec bin/shasta_serve.exe -- --arrival poisson:40000 --clients 512 \
       --duration 0.05 --admission queue:256:0.02
     dune exec bin/shasta_serve.exe -- --sweep 10000,20000,40000,80000,160000

   Prints the serving tables (one point: requests, latency and outcomes;
   a sweep: the sweep and outcomes); --json writes every table,
   histogram bins and queue-depth series included, in the shared
   BENCH_*.json envelope.  Same seed => bit-identical latency histograms
   (the --json report can be diffed byte for byte, bar the envelope's
   host fields). *)

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
  let nodes = Cli.at_least "--nodes" 1 !nodes in
  let cpus = Cli.at_least "--cpus" 1 !cpus in
  let plan = Cli.faults ~nodes !faults in
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
  let print_clusters points =
    List.iter
      (fun p ->
        Format.printf "@.-- %.0f req/s --@." p.S.sp_rate;
        List.iter Cli.print (Shasta.Cluster.tables p.S.sp_outcome.S.cluster))
      points
  in
  let points =
    if !sweep = "" then
      [ { S.sp_rate = A.mean_rate cfg.S.arrival; sp_outcome = S.run ~cluster_cfg cfg } ]
    else
      let rate s =
        match float_of_string_opt s with
        | Some r -> Cli.spec "--sweep" (fun r -> A.validate (A.Poisson { rate = r }); r) r
        | None -> Cli.usage_error "--sweep" (Printf.sprintf "not a rate: %S" s)
      in
      S.sweep ~cluster_cfg ~cfg (List.map rate (String.split_on_char ',' !sweep))
  in
  if !sweep = "" then begin
    let p = List.hd points in
    List.iter Cli.print
      (Load.Recorder.tables ~key:"rate" [ (S.rate_key p, p.S.sp_outcome.S.recorder) ]);
    Cli.print (S.outcome_table points);
    if !metrics then begin
      Cli.print (S.sweep_table points);
      print_clusters points
    end
    else
      Option.iter
        (fun r -> Cli.print (Mchan.Reliable.table r))
        (Shasta.Cluster.reliable p.S.sp_outcome.S.cluster)
  end
  else begin
    Cli.print (S.sweep_table points);
    Cli.print (S.outcome_table points);
    if !metrics then print_clusters points
  end;
  if !json_out <> "" then
    Load.Json.emit ~file:!json_out ~bench:"serve" ~meta:(S.meta ~cfg points)
      [ Load.Json.tables (S.tables points) ];
  if not (List.for_all (fun p -> p.S.sp_outcome.S.ok && p.S.sp_outcome.S.drained) points) then
    exit 1
