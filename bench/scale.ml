(* Figure 3 extended past the paper's 16 processors: speedups at 64+
   processors on the sharded directory, throughput (simulated events per
   host second) per point, a migrating-data microbenchmark comparing
   static first-home placement against migratory home reassignment, and
   a 64-node invariant-checked smoke run (with and without faults).

   Results land in BENCH_scale.json so the scaling trajectory is
   tracked in-tree. *)

module C = Shasta.Cluster
module R = Shasta.Runtime
module J = Load.Json

(* Node-major placement as in the paper: up to 4 processors share one
   SMP node, beyond that the node count grows. *)
let shape nprocs = if nprocs <= 4 then (1, nprocs) else ((nprocs + 3) / 4, 4)

type point = {
  p_app : string;
  p_procs : int;
  p_nodes : int;
  p_elapsed : float;  (** simulated seconds *)
  p_speedup : float;
  p_events : int;
  p_wall : float;  (** host seconds *)
  p_ok : bool;
}

let run_point spec ~seq nprocs =
  let nodes, cpus = shape nprocs in
  let cl = Support.cluster ~nodes ~cpus () in
  let t0 = Unix.gettimeofday () in
  let elapsed, ok = Apps.Harness.run_spec cl spec ~nprocs ~sync:Apps.Harness.Mp () in
  let wall = Unix.gettimeofday () -. t0 in
  {
    p_app = spec.Apps.Harness.name;
    p_procs = nprocs;
    p_nodes = nodes;
    p_elapsed = elapsed;
    p_speedup = seq /. elapsed;
    p_events = Sim.Engine.events_fired (C.sim cl);
    p_wall = wall;
    p_ok = ok;
  }

(* The points as one table: printed, and the [points] of the JSON file. *)
let points_table ~title points =
  let row p =
    let per_s = float_of_int p.p_events /. Float.max 1e-9 p.p_wall in
    ( p.p_app,
      Sim.Stats.
        [ Int p.p_procs; Int p.p_nodes; Float (1000.0 *. p.p_elapsed); Float p.p_speedup;
          Int p.p_events; Float per_s; Float p.p_wall; Str (string_of_bool p.p_ok) ] )
  in
  {
    Sim.Stats.title;
    columns =
      [ "app"; "procs"; "nodes"; "elapsed_ms"; "speedup"; "events"; "events_per_s"; "wall_s";
        "validated" ];
    rows = List.map row points;
  }

(* --- migrating-data microbenchmark ---------------------------------- *)

(* Parallel producer/consumer pairs over disjoint slices of a shared
   array, with the roles inside each pair swapping every lap.  The
   static homes are spread round-robin over all the nodes, so nearly
   every consumer read is a three-hop request -> home -> owner chain and
   every producer upgrade runs through a remote third-party home.  The
   migratory policy (threshold 1) moves each block's home to its current
   producer on the lap's first write: for the rest of the lap the
   producer's upgrades are home-local and the consumer's reads two-hop —
   and when the roles swap, the homes follow.  Pairs keep the migrated
   homes spread across the cluster instead of piling them on one node. *)
let migratory_micro ~pairs ~blocks_per_pair ~laps ~inner ~homing =
  let nodes = 2 * pairs in
  let cl =
    Support.cluster ~nodes ~cpus:1 ~homing ~migration_threshold:1 ~invariants:true ()
  in
  let line = 64 in
  let blocks = pairs * blocks_per_pair in
  let arr = C.alloc cl (blocks * line) in
  let flags = C.alloc cl (pairs * laps * inner * 2 * line) in
  let flag k l i producer =
    flags + ((((((k * laps) + l) * inner) + i) * 2 + (if producer then 0 else 1)) * line)
  in
  let await h addr =
    while R.load_int h addr <> 1 do
      R.work_cycles h 30;
      R.flush h;
      Sim.Proc.work 1e-7
    done
  in
  for p = 0 to (2 * pairs) - 1 do
    let k = p / 2 in
    let lo = k * blocks_per_pair and hi = ((k + 1) * blocks_per_pair) - 1 in
    ignore
      (C.spawn cl ~cpu:p (Printf.sprintf "pc%d" p) (fun h ->
           for l = 0 to laps - 1 do
             let producing = l mod 2 = p mod 2 in
             for i = 0 to inner - 1 do
               if producing then begin
                 for b = lo to hi do
                   R.store_int h (arr + (b * line)) ((((l * inner) + i) * blocks) + b)
                 done;
                 R.mb h;
                 R.store_int h (flag k l i true) 1;
                 await h (flag k l i false)
               end
               else begin
                 await h (flag k l i true);
                 R.mb h;
                 let sum = ref 0 in
                 for b = lo to hi do
                   sum := !sum + R.load_int h (arr + (b * line))
                 done;
                 ignore !sum;
                 R.mb h;
                 R.store_int h (flag k l i false) 1
               end
             done
           done))
  done;
  let elapsed = C.run cl in
  let quiet = Protocol.Engine.check_quiescent (C.protocol_engine cl) in
  let migrations, bounces, in_flight = C.migration_stats cl in
  (elapsed, migrations, bounces, in_flight, quiet)

(* --- 64-node invariant smoke ---------------------------------------- *)

let smoke_apps = [ "LU"; "Water-Nsq" ]

let smoke_run ~plan_spec spec =
  let plan = if plan_spec = "" then Fault.Plan.empty else Fault.Plan.of_spec plan_spec in
  let cl = Support.cluster ~nodes:64 ~cpus:1 ~invariants:true ~plan () in
  let elapsed, ok = Apps.Harness.run_spec cl spec ~nprocs:64 ~sync:Apps.Harness.Mp () in
  let quiet = Protocol.Engine.check_quiescent (C.protocol_engine cl) in
  (elapsed, ok, quiet)

(* --- drivers -------------------------------------------------------- *)

let scale_apps = [ "LU"; "Water-Nsq" ]

let run_scale_at ~procs_list ~laps ~file () =
  let specs = List.map Apps.Registry.find scale_apps in
  let seqs =
    List.map
      (fun spec ->
        let cl = Support.cluster ~nodes:1 ~cpus:1 ~checks:false () in
        (spec, fst (Apps.Harness.run_spec cl spec ~nprocs:1 ~sync:Apps.Harness.Mp ())))
      specs
  in
  let points =
    List.concat_map
      (fun (spec, seq) -> List.map (run_point spec ~seq) procs_list)
      seqs
  in
  let table =
    points_table points
      ~title:
        (Printf.sprintf "Figure 3 extended: speedups to %d processors (sharded directory)"
           (List.fold_left max 1 procs_list))
  in
  Support.print table;
  let failures = ref [] in
  let note fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter (fun p -> if not p.p_ok then note "%s@%d failed validation" p.p_app p.p_procs) points;

  let micro homing = migratory_micro ~pairs:8 ~blocks_per_pair:8 ~laps ~inner:8 ~homing in
  let ((s_el, s_mig, _, _, s_quiet) as s) = micro Protocol.Config.Static in
  let ((m_el, m_mig, _, m_fly, m_quiet) as m) = micro Protocol.Config.Migratory in
  let row name (el, mig, bnc, fly, quiet) =
    (name, Sim.Stats.(Float (1000.0 *. el) :: ints [ mig; bnc; fly; List.length quiet ]))
  in
  let micro_table =
    {
      Sim.Stats.title = "Migrating-data microbenchmark: static vs migratory homes (16 nodes)";
      columns = [ "homes"; "elapsed_ms"; "migrations"; "bounces"; "in_flight"; "violations" ];
      rows = [ row "static" s; row "migratory" m ];
    }
  in
  Support.print micro_table;
  Printf.printf "migratory vs static: %+.1f%%\n" (100.0 *. ((m_el /. s_el) -. 1.0));
  List.iter (fun v -> note "micro static: %s" v) s_quiet;
  List.iter (fun v -> note "micro migratory: %s" v) m_quiet;
  if s_mig <> 0 then note "static homing performed %d migrations" s_mig;
  if m_mig = 0 then note "migratory homing performed no migrations";
  if m_fly <> 0 then note "micro: %d transfers still in flight" m_fly;
  if m_el >= s_el then note "migratory (%.3f ms) did not beat static (%.3f ms)"
      (1000.0 *. m_el) (1000.0 *. s_el);

  let fault_spec = "seed=7,drop=0.02,delay=0.05:2e-5" in
  let smoke_rows =
    List.concat_map
      (fun name ->
        let spec = Apps.Registry.find name in
        List.map
          (fun plan_spec ->
            let elapsed, ok, quiet = smoke_run ~plan_spec spec in
            if not ok then note "smoke %s (faults=%S) failed validation" name plan_spec;
            List.iter (fun v -> note "smoke %s: %s" name v) quiet;
            ( name,
              Sim.Stats.
                [
                  Str (if plan_spec = "" then "none" else plan_spec); Float (1000.0 *. elapsed);
                  Int (List.length quiet); Support.validated ok;
                ] ))
          [ ""; fault_spec ])
      smoke_apps
  in
  Support.print
    {
      Sim.Stats.title = "64-node smoke: invariants on, with and without faults";
      columns = [ "application"; "faults"; "elapsed_ms"; "violations"; "validated" ];
      rows = smoke_rows;
    };

  Support.emit ~file ~bench:"scale"
    ~meta:[ ("procs", J.List (List.map (fun p -> J.Int p) procs_list)) ]
    [
      ("points", J.of_table table);
      ("micro", J.of_table micro_table);
      ("failures", J.List (List.map (fun s -> J.Str s) (List.rev !failures)));
    ];
  if !failures <> [] then begin
    List.iter (fun s -> Printf.printf "FAIL %s\n" s) (List.rev !failures);
    exit 1
  end

let run_scale () =
  run_scale_at ~procs_list:[ 1; 4; 16; 64; 128 ] ~laps:4 ~file:"BENCH_scale.json" ()

(* CI variant: the 64-processor ceiling and fewer token laps. *)
let run_scale_smoke () =
  run_scale_at ~procs_list:[ 4; 64 ] ~laps:2 ~file:"BENCH_scale_smoke.json" ()
