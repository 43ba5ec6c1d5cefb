(* CLI: run a SPLASH-2-style workload on a configurable simulated
   cluster.

     dune exec bin/shasta_run.exe -- --app LU --procs 8 --sync sm
*)

let () =
  let app = ref "LU" in
  let procs = ref 4 in
  let sync = ref "mp" in
  let size = ref 0 in
  let nodes = ref 4 in
  let cpus = ref 4 in
  let variant = ref "smp" in
  let model = ref "rc" in
  let checks = ref true in
  let line = ref 64 in
  let metrics = ref false in
  let faults = ref "" in
  let granularity = ref "" in
  let migration = ref "static" in
  let migration_threshold = ref Protocol.Config.default.Protocol.Config.migration_threshold in
  let parallel = ref 1 in
  let spec_list =
    String.concat ", " (List.map (fun s -> s.Apps.Harness.name) Apps.Registry.all)
  in
  let args =
    [
      ("--app", Arg.Set_string app, Printf.sprintf " application (%s)" spec_list);
      ("--procs", Arg.Set_int procs, " number of processors (node-major placement)");
      ("--sync", Arg.Set_string sync, " synchronisation: mp (message passing) | sm (LL/SC)");
      ("--size", Arg.Set_int size, " problem size (0 = application default)");
      ("--nodes", Arg.Set_int nodes, " cluster nodes");
      ("--cpus", Arg.Set_int cpus, " processors per node");
      ("--variant", Arg.Set_string variant, " protocol variant: smp | base");
      ("--model", Arg.Set_string model, " consistency: rc | sc");
      ("--no-checks", Arg.Clear checks, " run as the original binary (no inline checks)");
      ("--line", Arg.Set_int line, " coherence line size in bytes");
      ( "--metrics",
        Arg.Set metrics,
        " print every metrics table: nodes, regions, pids, transport, engine and host GC" );
      ( "--faults",
        Arg.Set_string faults,
        " fault plan, e.g. \"seed=42,drop=0.05,delay=0.1:2e-5,stall=1@0.001:0.0005\"" );
      ( "--granularity",
        Arg.Set_string granularity,
        " coherence granularity: " ^ Protocol.Layout.spec_help );
      ( "--migration",
        Arg.Set_string migration,
        " home placement: static | migratory" );
      ( "--migration-threshold",
        Arg.Set_int migration_threshold,
        " consecutive remote exclusive requests before a migratory move" );
      ( "--parallel",
        Arg.Set_int parallel,
        " event-loop domains (conservative parallel mode; 1 = sequential)" );
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "shasta_run [options]";
  let spec = Cli.spec "--app" Apps.Registry.find !app in
  let nodes = Cli.at_least "--nodes" 1 !nodes in
  let cpus = Cli.at_least "--cpus" 1 !cpus in
  let procs = Cli.in_range "--procs" 1 (nodes * cpus) !procs in
  let size = Cli.at_least "--size" 0 !size in
  let sync = Cli.choice "--sync" [ ("mp", Apps.Harness.Mp); ("sm", Apps.Harness.Sm) ] !sync in
  let parallel = Cli.at_least "--parallel" 1 !parallel in
  let plan = Cli.faults ~nodes !faults in
  let shared_size = 8 * 1024 * 1024 in
  let regions =
    if !granularity = "" then []
    else
      (* Build the layout once so a spec that does not tile the segment
         is reported here, not from inside the cluster. *)
      Cli.spec "--granularity"
        (fun g ->
          let specs = Protocol.Layout.specs_of_spec ~size:shared_size g in
          ignore (Protocol.Layout.create ~base:0 ~size:shared_size specs);
          specs)
        !granularity
  in
  let line =
    Cli.spec "--line"
      (fun l ->
        ignore (Protocol.Layout.uniform ~base:0 ~size:shared_size ~block:l ());
        l)
      !line
  in
  let cfg =
    {
      Shasta.Config.default with
      Shasta.Config.fault_plan = plan;
      Shasta.Config.net =
        { Mchan.Net.default_config with Mchan.Net.nodes = nodes; cpus_per_node = cpus };
      checks_enabled = !checks;
      protocol =
        {
          Protocol.Config.default with
          Protocol.Config.variant =
            Cli.choice "--variant"
              [ ("smp", Protocol.Config.Smp); ("base", Protocol.Config.Base) ]
              !variant;
          model = Cli.choice "--model" [ ("rc", Protocol.Config.Rc); ("sc", Protocol.Config.Sc) ] !model;
          line_size = line;
          regions;
          shared_size;
          homing =
            Cli.choice "--migration"
              [
                ("static", Protocol.Config.Static);
                ("migratory", Protocol.Config.Migratory);
              ]
              !migration;
          migration_threshold = Cli.at_least "--migration-threshold" 1 !migration_threshold;
        };
      parallel;
    }
  in
  let cl = Shasta.Cluster.create cfg in
  let size = if size = 0 then None else Some size in
  (* The application's own setup is the size check: it allocates and
     rejects sizes it cannot run before the cluster starts. *)
  let run =
    Cli.spec "--size" (fun size -> Apps.Harness.start cl spec ~nprocs:procs ~sync ?size ()) size
  in
  let elapsed, ok = run () in
  Printf.printf "%s: %d procs, %s sync: %.3f ms simulated, validated: %b\n"
    spec.Apps.Harness.name procs
    (match sync with Apps.Harness.Sm -> "LL/SC" | Apps.Harness.Mp -> "MP")
    (1000.0 *. elapsed) ok;
  (let migrations, bounces, in_flight = Shasta.Cluster.migration_stats cl in
   if migrations + bounces + in_flight > 0 then
     Printf.printf "migration: %d home transfers, %d bounced requests, %d in flight\n"
       migrations bounces in_flight);
  Cli.print
    (Shasta.Breakdown.table ~title:"breakdown" ~key:"processes"
       [ ("all", Shasta.Cluster.total_breakdown cl) ]);
  if !metrics then List.iter Cli.print (Shasta.Cluster.tables cl)
  else Option.iter (fun r -> Cli.print (Mchan.Reliable.table r)) (Shasta.Cluster.reliable cl);
  if not ok then exit 1
