(** Cluster setup and run control.

    [create] builds the network, the protocol engine and the sync layer;
    [spawn] starts Shasta processes on chosen processors; [init]
    finalises memory layout; [run] drives the simulation to completion.

    Spawned processes keep serving protocol requests after their
    application code finishes, until every spawned process is done —
    exactly the behaviour of Section 4.3.3, where a terminated Shasta
    process "remains alive and continues to serve requests for its
    protocol and application data". *)

(* One bump cursor per layout region, with fragmentation accounting:
   [ra_used] counts cursor advance (data + alignment padding), so
   [ra_used - ra_requested] is the padding lost to block alignment. *)
type region_alloc = {
  mutable ra_next : int;
  mutable ra_requested : int;
  mutable ra_used : int;
  mutable ra_allocs : int;
}

type t = {
  cfg : Config.t;
  net : Mchan.Net.t;
  peng : Protocol.Engine.t;
  sync : Sync.t;
  mutable procs : (Sim.Proc.t * Runtime.t * bool) list;  (* proc, runtime, serve *)
  mutable n_app : int;
  done_count : int Atomic.t;  (** bumped from any lane in parallel mode *)
  allocs : region_alloc array;
  mutable initialized : bool;
  mutable started_at : float;
  mutable host : (float * Sim.Stats.gc_delta) option;
      (** host CPU seconds and GC delta of the last {!run}, for {!tables} *)
}

let create cfg =
  let net =
    Mchan.Net.create ~plan:cfg.Config.fault_plan ~schedule:cfg.Config.schedule
      cfg.Config.net
  in
  let peng = Protocol.Engine.create ~cfg:cfg.Config.protocol ~net in
  let sync = Sync.create ~net ~costs:cfg.Config.protocol.Protocol.Config.costs in
  let layout = Protocol.Engine.layout peng in
  {
    cfg;
    net;
    peng;
    sync;
    procs = [];
    n_app = 0;
    done_count = Atomic.make 0;
    allocs =
      Array.init (Protocol.Layout.n_regions layout) (fun ri ->
          let r = Protocol.Layout.region layout ri in
          { ra_next = r.Protocol.Layout.r_base; ra_requested = 0; ra_used = 0; ra_allocs = 0 });
    initialized = false;
    started_at = 0.0;
    host = None;
  }

let sim t = Mchan.Net.engine t.net
let now t = Sim.Engine.now (sim t)
let protocol_engine t = t.peng

exception Out_of_shared of { requested : int; region : string }

let () =
  Printexc.register_printer (function
    | Out_of_shared { requested; region } ->
        Some
          (Printf.sprintf "Shasta.Cluster.Out_of_shared (%d bytes in region %S)" requested
             region)
    | _ -> None)

(** [alloc t ?granularity bytes] — bump allocator over the shared
    address space, one cursor per layout region.

    [granularity] is a hint in bytes: the allocation is placed in the
    region whose coherence block size is closest to it (exact match
    preferred), so callers ask for fine blocks for locks and task queues
    and coarse blocks for bulk arrays without knowing the layout.
    Without a hint the first region is used.  The allocation is aligned
    to the chosen region's block size, so no allocation straddles a
    coherence block it doesn't fully occupy.  Raises {!Out_of_shared}
    when the region's remaining space cannot hold the request. *)
let alloc ?granularity t bytes =
  let layout = Protocol.Engine.layout t.peng in
  let ri =
    match granularity with
    | None -> 0
    | Some g -> Protocol.Layout.region_matching layout ~block:g
  in
  let r = Protocol.Layout.region layout ri in
  let ra = t.allocs.(ri) in
  let align = r.Protocol.Layout.r_block in
  let a = (ra.ra_next + align - 1) / align * align in
  if a + bytes > r.Protocol.Layout.r_base + r.Protocol.Layout.r_size then
    raise (Out_of_shared { requested = bytes; region = r.Protocol.Layout.r_name });
  ra.ra_requested <- ra.ra_requested + bytes;
  ra.ra_used <- ra.ra_used + (a + bytes - ra.ra_next);
  ra.ra_allocs <- ra.ra_allocs + 1;
  ra.ra_next <- a + bytes;
  a

let pulse_all t =
  for n = 0 to t.cfg.Config.net.Mchan.Net.nodes - 1 do
    Sim.Signal.pulse (Mchan.Net.node_signal t.net n)
  done

(** [spawn t ~cpu name body] — start a Shasta process on global processor
    [cpu].  [serve] (default true) keeps the process alive serving
    protocol traffic after [body] returns, until all spawned processes
    are done. *)
let spawn ?(serve = true) ?(priority = 0) t ~cpu name body =
  let cpu_t = Mchan.Net.nth_cpu t.net cpu in
  let handle = ref None in
  if serve then t.n_app <- t.n_app + 1;
  let proc =
    Sim.Proc.spawn ~priority ~name cpu_t (fun () ->
        let h = Option.get !handle in
        body h;
        Runtime.flush h;
        (* Outstanding non-blocking stores must be globally performed
           before this process counts as done, or the cluster could
           quiesce with a miss still in flight. *)
        Runtime.mb h;
        if serve then begin
          Atomic.incr t.done_count;
          pulse_all t;
          (* The post-exit serve loop is idle work: cede the CPU to any
             still-running application process. *)
          (Sim.Proc.self ()).Sim.Proc.yield_waiting <- true;
          Sim.Proc.stall (fun () -> Atomic.get t.done_count >= t.n_app)
        end)
  in
  let h = Runtime.create ~cfg:t.cfg ~peng:t.peng ~sync:t.sync proc in
  handle := Some h;
  t.procs <- (proc, h, serve) :: t.procs;
  h

let init ?homes t =
  if not t.initialized then begin
    t.initialized <- true;
    Protocol.Engine.init ?homes t.peng;
    t.started_at <- now t
  end

exception Worker_failed of string * exn

(* The conservative parallel mode only covers the exact, perfectly
   reliable, statically homed configuration — every excluded feature
   either shares mutable state across nodes (per-message invariant
   sweeps, migrating directory entries) or has no meaning once the
   global tie-set is split across lanes (non-Fifo schedules, fault
   plans with their retransmit timers). *)
let check_parallel_config cfg =
  let bad what = invalid_arg ("Shasta.Cluster.run: parallel mode excludes " ^ what) in
  (match cfg.Config.schedule with Sim.Engine.Fifo -> () | _ -> bad "non-Fifo schedules");
  if not (Fault.Plan.is_empty cfg.Config.fault_plan) then bad "fault plans";
  if cfg.Config.protocol.Protocol.Config.homing <> Protocol.Config.Static then
    bad "home migration";
  if cfg.Config.protocol.Protocol.Config.check_invariants then
    bad "per-message invariant checks (use check_quiescent after the run)"

(** [run t] — run the simulation until quiescence (or [until]); re-raises
    the first worker failure.  Returns elapsed virtual time since
    [init].  With [cfg.parallel > 1] the run uses the conservative
    parallel engine: per-node event lanes on real domains with the
    Memory Channel one-way latency as the lookahead window. *)
let run ?(until = 3600.0) t =
  init t;
  let cpu0 = Sys.time () and gc0 = Sim.Stats.gc_mark () in
  let domains = t.cfg.Config.parallel in
  if domains > 1 then begin
    check_parallel_config t.cfg;
    ignore
      (Sim.Par.run ~until ~domains
         ~lookahead:t.cfg.Config.net.Mchan.Net.one_way_latency (sim t)
         ~nodes:t.cfg.Config.net.Mchan.Net.nodes)
  end
  else ignore (Sim.Engine.run ~until (sim t));
  t.host <- Some (Sys.time () -. cpu0, Sim.Stats.gc_delta gc0);
  List.iter
    (fun ((p : Sim.Proc.t), _, _) ->
      match p.Sim.Proc.failure with
      | Some e -> raise (Worker_failed (p.Sim.Proc.name, e))
      | None -> ())
    t.procs;
  now t -. t.started_at

(** [reliable t] — the fault-tolerant transport, when a fault plan is
    active ([None] on a perfectly-reliable channel). *)
let reliable t = Mchan.Net.reliable t.net

let runtimes t = List.rev_map (fun (_, h, _) -> h) t.procs

(** [app_runtimes t] — runtimes of application processes only ([spawn]
    with [serve] left true), excluding daemon-style processes spawned
    [~serve:false] (kernel slots, protocol pollers) that by design never
    finish — a deadlock sweep must not flag those. *)
let app_runtimes t =
  List.rev (List.filter_map (fun (_, h, serve) -> if serve then Some h else None) t.procs)

(** [total_breakdown t] — sum of all per-process breakdowns. *)
let total_breakdown t =
  List.fold_left
    (fun acc h -> Breakdown.add acc (Runtime.breakdown h))
    (Breakdown.empty ()) (runtimes t)

(** [per_node_breakdowns t] — breakdown sums grouped by node, so a
    serving run can show where each node's time went (a node hosting
    only clients idles; a node hosting the daemons pays in messages). *)
let per_node_breakdowns t =
  let acc =
    Array.init t.cfg.Config.net.Mchan.Net.nodes (fun _ -> Breakdown.empty ())
  in
  List.iter
    (fun h ->
      let n = Runtime.node h in
      acc.(n) <- Breakdown.add acc.(n) (Runtime.breakdown h))
    (runtimes t);
  acc

(** [migration_stats t] — cluster-wide (migrations installed, requests
    bounced, transfers still in flight); all zero under static homing. *)
let migration_stats t = Protocol.Engine.migration_stats t.peng

(** [region_table t] — per-region protocol traffic
    ({!Protocol.Engine.region_table}) with the shared-heap allocator's
    figures; [frag_pct] is alignment padding as a share of the bytes
    consumed. *)
let region_table t =
  let r = Protocol.Engine.region_table t.peng in
  let row ri (key, cells) =
    let ra = t.allocs.(ri) in
    let padding = float_of_int (ra.ra_used - ra.ra_requested) in
    let frag = if ra.ra_used = 0 then 0.0 else 100.0 *. padding /. float_of_int ra.ra_used in
    (key, cells @ Sim.Stats.(ints [ ra.ra_allocs; ra.ra_requested; ra.ra_used ] @ [ Float frag ]))
  in
  {
    r with
    Sim.Stats.columns =
      r.Sim.Stats.columns @ [ "allocs"; "requested_bytes"; "used_bytes"; "frag_pct" ];
    rows = List.mapi row r.Sim.Stats.rows;
  }

(** [tables t] — the run's metrics, one {!Sim.Stats.table} each:
    per-node time breakdowns (with each node's home-migration counters
    when any is non-zero), {!region_table}, per-pid protocol counters,
    the reliable transport when a fault plan is active, and the
    engine's event count with the host CPU time and GC delta of the
    last {!run}. *)
let tables t =
  let migs = Protocol.Engine.migration_by_node t.peng in
  let show_migs = Array.exists (fun (i, o, b) -> i + o + b > 0) migs in
  let node n (b : Breakdown.t) =
    let i, o, bn = migs.(n) in
    let ms = List.map (fun x -> Sim.Stats.Float (1e3 *. x)) in
    ( string_of_int n,
      ms [ b.task; b.read; b.write; b.mb; b.sync; b.blocked; b.msg ]
      @ if show_migs then Sim.Stats.ints [ i; o; bn ] else [] )
  in
  let nodes =
    {
      Sim.Stats.title = "nodes";
      columns =
        [ "node"; "task_ms"; "read_ms"; "write_ms"; "mb_ms"; "sync_ms"; "blocked_ms"; "msg_ms" ]
        @ if show_migs then [ "homes_in"; "homes_out"; "bounces" ] else [];
      rows = Array.to_list (Array.mapi node (per_node_breakdowns t));
    }
  in
  let fired = Sim.Engine.events_fired (sim t) in
  let host_columns, host_cells =
    match t.host with
    | None -> ([], [])
    | Some (cpu, (g : Sim.Stats.gc_delta)) ->
        ( [ "host_cpu_s"; "events_per_s"; "minor_words"; "promoted_words"; "major_words";
            "minor_gcs"; "major_gcs"; "compactions" ],
          Sim.Stats.(
            [ Float cpu; Float (float_of_int fired /. Float.max cpu 1e-9) ]
            @ ints
                (List.map int_of_float [ g.gc_minor_words; g.gc_promoted_words; g.gc_major_words ]
                @ [ g.gc_minor_collections; g.gc_major_collections; g.gc_compactions ])) )
  in
  let engine =
    {
      Sim.Stats.title = "engine";
      columns = "run" :: "events" :: host_columns;
      rows = [ ("total", Sim.Stats.Int fired :: host_cells) ];
    }
  in
  [ nodes; region_table t; Protocol.Engine.pid_table t.peng ]
  @ Option.to_list (Option.map Mchan.Reliable.table (reliable t))
  @ [ engine ]
