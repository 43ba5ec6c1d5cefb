(* Shared plumbing for the benchmark harness: cluster builders,
   latency measurement inside the simulation, and table printing. *)

module C = Shasta.Cluster
module R = Shasta.Runtime

let cluster ?(nodes = 4) ?(cpus = 4) ?(variant = Protocol.Config.Smp)
    ?(model = Protocol.Config.Rc) ?(checks = true) ?(direct_downgrade = true)
    ?(line = Protocol.Config.default.Protocol.Config.line_size)
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
          line_size = line;
          shared_size = shared;
          homing;
          migration_threshold;
          check_invariants = invariants;
        };
    }

(** [shape nprocs] — node-major placement as in the paper: up to 4
    processors share one SMP node, beyond that the node count grows. *)
let shape nprocs = if nprocs <= 4 then (1, nprocs) else ((nprocs + 3) / 4, 4)

(** The source commit named by [--commit], if any. *)
let commit = ref None

(** [emit ~file ~bench ?meta fields] — {!Load.Json.emit} with the
    [--commit] provenance: every BENCH_*.json this harness writes. *)
let emit ~file ~bench ?meta fields = Load.Json.emit ?commit:!commit ~file ~bench ?meta fields

(** [once tbl key run] — [run ()]'s result, simulated only the first
    time [key] is asked for: the paper target shares some runs between
    tables, and a run's result depends only on its configuration. *)
let once tbl key run =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
      let r = run () in
      Hashtbl.add tbl key r;
      r

(* --- tables --- *)

let print t = Format.printf "@.%a" Sim.Stats.pp_table t

(** A run's own validation, as a table's [validated] cell. *)
let validated ok = Sim.Stats.Str (string_of_bool ok)

(** [failures tables] — "title: row" for each row whose [validated]
    cell is false. *)
let failures tables =
  List.concat_map
    (fun (t : Sim.Stats.table) ->
      match List.find_index (( = ) "validated") t.columns with
      | None -> []
      | Some i ->
          let failed (_, cells) = List.nth cells (i - 1) = validated false in
          List.map (fun (key, _) -> t.title ^ ": " ^ key) (List.filter failed t.rows))
    tables

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
