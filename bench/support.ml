(* Shared plumbing for the benchmark harness: cluster builders,
   latency measurement inside the simulation, and table printing. *)

module C = Shasta.Cluster
module R = Shasta.Runtime

let cluster ?(nodes = 4) ?(cpus = 4) ?(variant = Protocol.Config.Smp)
    ?(model = Protocol.Config.Rc) ?(checks = true) ?(direct_downgrade = true)
    ?(shared = 8 * 1024 * 1024) ?(homing = Protocol.Config.Static)
    ?(migration_threshold = Protocol.Config.default.Protocol.Config.migration_threshold)
    ?(invariants = false) ?(plan = Fault.Plan.empty) ?(parallel = 1) () =
  C.create
    {
      Shasta.Config.default with
      Shasta.Config.net = { Mchan.Net.default_config with Mchan.Net.nodes; cpus_per_node = cpus };
      checks_enabled = checks;
      fault_plan = plan;
      parallel;
      protocol =
        {
          Protocol.Config.default with
          Protocol.Config.variant;
          model;
          direct_downgrade;
          shared_size = shared;
          homing;
          migration_threshold;
          check_invariants = invariants;
        };
    }

(* --- table printing --- *)

let print_header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

(** [print_table ~headers rows] — preformatted text rows, the first cell
    of each its key, through the one table printer {!Sim.Stats.pp_table}. *)
let print_table ~headers rows =
  let row cells = (List.hd cells, List.map (fun s -> Sim.Stats.Str s) (List.tl cells)) in
  Format.printf "%a" Sim.Stats.pp_table
    { Sim.Stats.title = ""; columns = headers; rows = List.map row rows }

let us t = Printf.sprintf "%.2f" (Sim.Units.to_us t)
let ms t = Printf.sprintf "%.2f" (1000.0 *. t)
let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

(** Simulated-time measurement of a repeated fiber operation: runs
    [iters] rounds of [f] in process [cpu] after [setup], returning the
    mean simulated duration of [f].  Extra participant processes can be
    provided to serve or contend. *)
let measure_on ?(others = []) ~cl ~cpu ?(iters = 200) ~setup f =
  let total = ref 0.0 in
  let _ =
    C.spawn cl ~cpu "measured" (fun h ->
        setup h;
        (* Warm one round, then measure. *)
        f h;
        let t0 = C.now cl in
        for _ = 1 to iters do
          f h
        done;
        R.flush h;
        total := C.now cl -. t0)
  in
  List.iter (fun (cpu, body) -> ignore (C.spawn cl ~cpu "other" body)) others;
  ignore (C.run cl);
  !total /. float_of_int iters
