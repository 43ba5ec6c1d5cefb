(** Open-loop serving of minidb: the connection/session multiplexer, the
    server worker loop, and the saturation-sweep driver.

    The paper drives minidb with closed-loop TPC scripts; here the same
    database is put behind an open-loop front end:

    - an {!Arrival} process generates request instants regardless of how
      the system is doing (the defining property of open-loop load);
    - each request belongs to one of [clients] simulated client
      sessions.  Clients are synthetic — they cost no simulated CPU and
      no fiber, so "millions of users" is a matter of an array index —
      but their {e traffic} is real: every request and response is a
      {!Mchan.Net} message between the client's home node and its
      server's node, paying link occupancy, Memory Channel latency and,
      under a fault plan, the reliable transport's retransmissions;
    - a per-client in-flight window bounds outstanding requests per
      session (arrivals beyond it queue client-side, still accruing
      latency — the partly-open model);
    - each server worker is a real {!Osim.Kernel} process executing
      TPC-B-style updates and short scans against the shared-memory
      database, fronted by an {!Admission} queue;
    - a {!Recorder} measures everything in simulated time, so a seed
      determines the full report bit for bit. *)

module K = Osim.Kernel
module R = Shasta.Runtime
module C = Shasta.Cluster
module Db = Minidb.Db

type op = Oltp | Scan

let op_index = function Oltp -> 0 | Scan -> 1

type config = {
  seed : int;
  arrival : Arrival.process;
  clients : int;
  window : int;  (** per-client in-flight cap, >= 1 *)
  duration : float;  (** seconds of offered load *)
  scan_share : float;  (** fraction of requests that are scans *)
  scan_pages : int;
  admission : Admission.policy;
  client_timeout : float;  (** drop policy: client frees its window slot after this *)
  request_bytes : int;
  response_bytes : int;
  root_cpu : int;
  daemon_cpu : int;
  server_cpus : int list;
  pages : int;
  rows_per_page : int;
  depth_sample_every : float;  (** 0 = no queue-depth series *)
  max_sim_time : float;
}

let default_config =
  {
    seed = 42;
    arrival = Arrival.Poisson { rate = 20_000.0 };
    clients = 256;
    window = 4;
    duration = 0.05;
    scan_share = 0.1;
    scan_pages = 2;
    admission = Admission.queue ~cap:256 ~timeout:0.02;
    client_timeout = 0.02;
    request_bytes = 128;
    response_bytes = 128;
    root_cpu = 0;
    daemon_cpu = 0;
    server_cpus = [ 1; 2; 3; 4; 5; 6 ];
    pages = 96;
    rows_per_page = 32;
    depth_sample_every = 1.0e-3;
    max_sim_time = 30.0;
  }

(** [cluster_config ?nodes ?cpus_per_node ?fault_plan ()] — the minidb
    cluster with an optional injected fault plan (the load generator
    must compose with {!Mchan.Reliable}). *)
let cluster_config ?(nodes = 2) ?(cpus_per_node = 4) ?(fault_plan = Fault.Plan.empty) () =
  { (Minidb.Workload.cluster_config ~nodes ~cpus_per_node ()) with Shasta.Config.fault_plan }

type request = {
  rq_client : int;
  rq_op : op;
  rq_worker : int;
  rq_key : int;  (** Oltp: account index; Scan: first page *)
  rq_arrival : float;  (** generation instant — latency is measured from here *)
}

type outcome = {
  recorder : Recorder.t;
  ok : bool;  (** final balance validation: no update lost or duplicated *)
  drained : bool;  (** every offered request was resolved *)
  elapsed : float;  (** simulated seconds for the whole run *)
  cluster : C.t;  (** for per-node breakdowns and fault reports *)
}

let validate_config cfg =
  if cfg.clients <= 0 then invalid_arg "Serve: clients must be positive";
  if cfg.window <= 0 then invalid_arg "Serve: window must be >= 1";
  if cfg.server_cpus = [] then invalid_arg "Serve: need at least one server cpu";
  if cfg.scan_share < 0.0 || cfg.scan_share > 1.0 then invalid_arg "Serve: scan_share";
  if cfg.scan_pages >= cfg.pages then invalid_arg "Serve: scan_pages >= pages"

(** [run ?cluster_cfg cfg] — one open-loop serving run at [cfg]'s
    offered load. *)
let run ?cluster_cfg cfg =
  validate_config cfg;
  let ccfg = match cluster_cfg with Some c -> c | None -> cluster_config () in
  let cl = C.create ccfg in
  let net = cl.C.net in
  let eng = C.sim cl in
  let nodes = ccfg.Shasta.Config.net.Mchan.Net.nodes in
  let cpus_per_node = ccfg.Shasta.Config.net.Mchan.Net.cpus_per_node in
  let workers = Array.of_list cfg.server_cpus in
  let nworkers = Array.length workers in
  let worker_node w = workers.(w) / cpus_per_node in
  let client_node c = c mod nodes in
  let slot_cpus =
    [ cfg.root_cpu; cfg.daemon_cpu; cfg.daemon_cpu; cfg.daemon_cpu ] @ cfg.server_cpus
  in
  let k = K.boot cl ~slot_cpus () in
  let recorder = Recorder.create ~ops:[ "oltp"; "scan" ] () in
  let arrivals = Arrival.create ~seed:cfg.seed cfg.arrival in
  let mix = Sim.Rng.create (cfg.seed lxor 0x5DEECE66) in
  (* Multiplexer state: per-session window accounting and client-side
     buffers.  Host memory only — sessions are synthetic. *)
  let outstanding = Array.make cfg.clients 0 in
  let pending = Array.init cfg.clients (fun _ -> Queue.create ()) in
  let queues = Array.init nworkers (fun _ -> Admission.create cfg.admission) in
  let accounts = cfg.pages * cfg.rows_per_page in
  let generating = ref true in
  let stopping = ref false in
  let completed_oltp = ref 0 in
  let t_start = ref 0.0 in
  let now () = Sim.Engine.now eng in
  (* Request resolution.  Every generated request ends in exactly one of
     these paths; when the last one lands after generation has stopped,
     the workers are released. *)
  let check_drain () =
    if
      (not !generating)
      && (not !stopping)
      && Recorder.resolved recorder = recorder.Recorder.offered
    then begin
      stopping := true;
      C.pulse_all cl
    end
  in
  let rec on_response r status =
    let c = r.rq_client in
    outstanding.(c) <- outstanding.(c) - 1;
    let t = now () in
    (match status with
    | `Ok ->
        if r.rq_op = Oltp then incr completed_oltp;
        Recorder.record_completion recorder ~op:(op_index r.rq_op) ~now:t
          ~latency:(t -. r.rq_arrival)
    | `Rejected -> Recorder.record_rejected recorder ~now:t
    | `Shed -> Recorder.record_shed recorder ~now:t
    | `Dropped -> Recorder.record_dropped recorder ~now:t);
    dispatch_pending c;
    check_drain ()
  and dispatch_pending c =
    if outstanding.(c) < cfg.window && not (Queue.is_empty pending.(c)) then begin
      dispatch_request (Queue.pop pending.(c));
      dispatch_pending c
    end
  and dispatch_request r =
    outstanding.(r.rq_client) <- outstanding.(r.rq_client) + 1;
    Mchan.Net.send net ~src_node:(client_node r.rq_client) ~dst_node:(worker_node r.rq_worker)
      ~size:cfg.request_bytes (fun () -> arrive_at_server r)
  and arrive_at_server r =
    (* Engine-callback context at the server's node: admission control
       runs here, before any worker is scheduled. *)
    match Admission.offer queues.(r.rq_worker) ~now:(now ()) r with
    | `Admitted -> ()  (* Net.send pulses the node; a stalled worker wakes *)
    | `Rejected ->
        Mchan.Net.send net ~src_node:(worker_node r.rq_worker)
          ~dst_node:(client_node r.rq_client) ~size:cfg.response_bytes (fun () ->
            on_response r `Rejected)
    | `Dropped ->
        (* Silent drop: the client only learns by its own timeout. *)
        Sim.Engine.after eng cfg.client_timeout (fun () -> on_response r `Dropped)
  in
  (* The arrival pump: one self-rescheduling event chain, independent of
     service progress — the load stays offered past the knee. *)
  let rec pump t =
    if t -. !t_start >= cfg.duration then begin
      generating := false;
      Recorder.stop_offering recorder ~now:t;
      check_drain ()
    end
    else begin
      let c = Sim.Rng.int mix cfg.clients in
      let op = if Sim.Rng.float mix 1.0 < cfg.scan_share then Scan else Oltp in
      let key =
        match op with
        | Oltp -> Sim.Rng.int mix accounts
        | Scan -> Sim.Rng.int mix (cfg.pages - cfg.scan_pages)
      in
      let r =
        {
          rq_client = c;
          rq_op = op;
          rq_worker = c mod nworkers;
          rq_key = key;
          rq_arrival = t;
        }
      in
      Recorder.record_offered recorder;
      if outstanding.(c) < cfg.window then dispatch_request r
      else begin
        Recorder.record_buffered recorder;
        Queue.push r pending.(c)
      end;
      let dt = Arrival.next arrivals in
      Sim.Engine.at eng (t +. dt) (fun () -> pump (t +. dt))
    end
  in
  let rec sample_depths t =
    if not !stopping then begin
      let total = Array.fold_left (fun acc q -> acc + Admission.depth q) 0 queues in
      Recorder.sample_depth recorder ~now:t total;
      let t' = t +. cfg.depth_sample_every in
      Sim.Engine.at eng t' (fun () -> sample_depths t')
    end
  in
  (* The server worker: a real kernel process.  Takes from its accept
     queue, executes against the shared-memory database, sends the
     response back over the network. *)
  let worker_loop w (sctx : K.ctx) db =
    let h = sctx.K.h in
    let q = queues.(w) in
    let respond r status =
      Mchan.Net.send net ~src_node:(worker_node w) ~dst_node:(client_node r.rq_client)
        ~size:cfg.response_bytes (fun () -> on_response r status)
    in
    let rec loop () =
      match Admission.take q ~now:(now ()) with
      | Some (r, `Shed) ->
          respond r `Shed;
          loop ()
      | Some (r, `Serve) ->
          (match r.rq_op with
          | Oltp -> Db.account_update sctx db ~account:r.rq_key ~delta:1
          | Scan ->
              ignore
                (Db.scan sctx db ~lo_page:r.rq_key ~hi_page:(r.rq_key + cfg.scan_pages)
                   ~meta_loads:2 ~row_compute:1));
          respond r `Ok;
          loop ()
      | None ->
          if not !stopping then begin
            h.R.proc.Sim.Proc.yield_waiting <- true;
            Sim.Proc.stall (fun () -> (not (Admission.is_empty q)) || !stopping);
            h.R.proc.Sim.Proc.yield_waiting <- false;
            loop ()
          end
    in
    loop ();
    R.flush h
  in
  let ok = ref false in
  let _root =
    K.start k ~cpu_hint:cfg.root_cpu (fun ctx ->
        let db = Db.create ctx ~pages:cfg.pages ~rows_per_page:cfg.rows_per_page ~nframes:cfg.pages in
        Db.start_daemons ctx db ~cpu_hint:(Some cfg.daemon_cpu);
        Minidb.Buffer.warm ctx db.Db.buf ~pages:cfg.pages;
        Array.iteri
          (fun w cpu -> ignore (K.fork ctx ~cpu_hint:cpu (fun sctx -> worker_loop w sctx db)))
          workers;
        t_start := C.now cl;
        Recorder.start recorder ~now:!t_start;
        let dt0 = Arrival.next arrivals in
        Sim.Engine.at eng (!t_start +. dt0) (fun () -> pump (!t_start +. dt0));
        if cfg.depth_sample_every > 0.0 then begin
          let t1 = !t_start +. cfg.depth_sample_every in
          Sim.Engine.at eng t1 (fun () -> sample_depths t1)
        end;
        for _ = 1 to nworkers do
          ignore (K.wait ctx)
        done;
        (* Every committed transaction must be visible exactly once: the
           full scan catches lost responses, lost updates and double
           application alike. *)
        let total = Db.scan ctx db ~lo_page:0 ~hi_page:cfg.pages ~meta_loads:0 ~row_compute:0 in
        ok := total = Db.expected_sum db ~lo_page:0 ~hi_page:cfg.pages + !completed_oltp;
        if not !ok then
          Format.eprintf "serve mismatch: scanned %d expected base+%d@." total !completed_oltp;
        Db.stop_daemons ctx db)
  in
  let elapsed =
    try C.run ~until:cfg.max_sim_time cl
    with C.Worker_failed (name, e) ->
      failwith (Printf.sprintf "serve worker %s failed: %s" name (Printexc.to_string e))
  in
  {
    recorder;
    ok = !ok;
    drained = Recorder.resolved recorder = recorder.Recorder.offered && not !generating;
    elapsed;
    cluster = cl;
  }

(* --- saturation sweeps --- *)

type sweep_point = { sp_rate : float; sp_outcome : outcome }

(** [sweep ?cluster_cfg ~cfg rates] — rerun [cfg] with its arrival
    process rescaled to each offered rate (burst shape preserved); a
    fresh cluster per point, all from the same seed. *)
let sweep ?cluster_cfg ~cfg rates =
  List.map
    (fun rate ->
      let cfg = { cfg with arrival = Arrival.scale_to cfg.arrival rate } in
      { sp_rate = rate; sp_outcome = run ?cluster_cfg cfg })
    rates

(** [knee points] — the first swept rate whose goodput falls below 90%
    of its offered rate ([None] if the sweep never saturates). *)
let knee points =
  List.find_opt
    (fun p ->
      Recorder.goodput p.sp_outcome.recorder < 0.9 *. Recorder.offered_rate p.sp_outcome.recorder)
    points
  |> Option.map (fun p -> p.sp_rate)

(** [rate_key p] — a point's row key in every report table: its
    offered rate. *)
let rate_key p = Printf.sprintf "%.0f" p.sp_rate

(** [sweep_table points] — one row per swept rate; the title names the
    saturation {!knee}. *)
let sweep_table points =
  let row ({ sp_outcome = { recorder = r; _ }; _ } as p) =
    let w = Recorder.offered_window r in
    let accepted = r.Recorder.offered - r.Recorder.rejected - r.Recorder.dropped in
    ( rate_key p,
      List.map
        (fun x -> Sim.Stats.Float x)
        ([ Recorder.offered_rate r; (if w <= 0.0 then 0.0 else float_of_int accepted /. w);
           Recorder.goodput r ]
        @ List.map (fun p -> 1.0e6 *. Recorder.percentile r p) [ 50.0; 99.0; 99.9 ])
      @ Sim.Stats.ints Recorder.[ r.rejected; r.dropped; r.shed; r.depth_max ] )
  in
  {
    Sim.Stats.title =
      (match knee points with
      | Some k -> Printf.sprintf "sweep: saturation knee at ~%.0f req/s offered" k
      | None -> "sweep: no saturation knee within the swept range");
    columns =
      [ "rate"; "offered_per_s"; "accepted_per_s"; "goodput_per_s"; "p50_us"; "p99_us";
        "p999_us"; "rejected"; "dropped"; "shed"; "depth_max" ];
    rows = List.map row points;
  }

(** [outcome_table points] — whether each point validated and drained,
    and its simulated length. *)
let outcome_table points =
  let row p =
    let o = p.sp_outcome in
    ( rate_key p,
      Sim.Stats.
        [ Str (string_of_bool o.ok); Str (string_of_bool o.drained); Float (1e3 *. o.elapsed) ] )
  in
  {
    Sim.Stats.title = "outcomes";
    columns = [ "rate"; "validated"; "drained"; "simulated_ms" ];
    rows = List.map row points;
  }

(** [tables points] — a sweep's whole report, every row keyed by the
    offered rate: {!sweep_table}, {!outcome_table}, then the recorders'
    {!Recorder.tables} and {!Recorder.series} (the payload of
    [BENCH_serve.json] and of [shasta_serve --json]). *)
let tables points =
  let runs = List.map (fun p -> (rate_key p, p.sp_outcome.recorder)) points in
  (sweep_table points :: outcome_table points :: Recorder.tables ~key:"rate" runs)
  @ Recorder.series ~key:"rate" runs

(** [meta ~cfg points] — what a report's envelope carries besides its
    tables: the run parameters and the {!knee} as a number. *)
let meta ~cfg points =
  [
    ("seed", Json.Int cfg.seed);
    ("arrival", Json.Str (Arrival.to_spec cfg.arrival));
    ("admission", Json.Str (Admission.to_spec cfg.admission));
    ("clients", Json.Int cfg.clients);
    ("window", Json.Int cfg.window);
    ("duration_s", Json.Float cfg.duration);
    ("servers", Json.Int (List.length cfg.server_cpus));
    ("knee_offered_rate", match knee points with Some k -> Json.Float k | None -> Json.Null);
  ]
