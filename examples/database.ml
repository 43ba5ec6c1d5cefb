(* The full OS-transparency stack: a multi-process database (the paper's
   Oracle stand-in) running across the cluster — fork/wait across nodes,
   shared-memory segments, daemons blocking in pid_block, syscalls with
   validated shared-memory buffers.

   Run with:  dune exec examples/database.exe *)

module W = Minidb.Workload

let show name (o : W.outcome) =
  Printf.printf "%-28s %8.2f ms   validated: %b   daemon wakeups: %d\n" name
    (1000.0 *. o.W.elapsed) o.W.ok o.W.daemon_wakeups

let () =
  Printf.printf "Decision-support query (DSS-1) on a 2-node cluster\n\n";
  let one =
    W.run_dss ~cfg:(W.cluster_config ()) ~placement:(W.placement_extra_proc ~servers:1)
      ~query:W.Dss1 ()
  in
  show "1 server" one;
  let three =
    W.run_dss ~cfg:(W.cluster_config ()) ~placement:(W.placement_extra_proc ~servers:3)
      ~query:W.Dss1 ()
  in
  show "3 servers (one remote node)" three;
  Format.printf "@.%a" Sim.Stats.pp_table
    (Shasta.Breakdown.table ~title:"per-server time breakdowns (3-server run)" ~key:"server"
       (List.mapi (fun i b -> (string_of_int i, b)) three.W.server_breakdowns));
  Printf.printf "\nOLTP (TPC-B-style) on one node, 2 clients x 50 transactions\n\n";
  let oltp =
    W.run_oltp ~cfg:(W.cluster_config ~nodes:1 ())
      ~placement:{ W.root_cpu = 0; daemon_cpu = 0; server_cpus = [ 1; 2 ] }
      ~clients:2 ~txns:50 ()
  in
  show "OLTP" oltp
