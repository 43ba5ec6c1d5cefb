(** The simulated cluster: nodes of SMP processors connected by a
    Memory-Channel-like network.

    The Memory Channel gives protected user-level access: a process
    transmits with a simple store to a mapped page (no OS involvement),
    and receivers detect arrival by polling a single cachable location.
    We model that as: constant [one_way_latency] + transmit occupancy on
    the sender's link ({!Link}), delivery into a {!Mailbox} by a callback,
    and a per-node {!Sim.Signal} pulsed on arrival so that stalled
    processes wake exactly at the arrival instant. *)

type config = {
  nodes : int;
  cpus_per_node : int;
  one_way_latency : float;  (** user process to user process, seconds *)
  bandwidth : float;  (** per-link, bytes/second *)
  intra_node_latency : float;  (** shared-memory message between local processes *)
  quantum : float;  (** OS scheduling quantum *)
  switch_cost : float;  (** context switch cost *)
}

(** Constants of the prototype cluster in Section 6.1: four AlphaServer
    4100s (4 x 300 MHz each), 4 us one-way latency, 60 MB/s per link. *)
let default_config =
  {
    nodes = 4;
    cpus_per_node = 4;
    one_way_latency = 4.0e-6;
    bandwidth = 60.0e6;
    intra_node_latency = 1.0e-6;
    quantum = 10.0e-3;
    switch_cost = 25.0e-6;
  }

type t = {
  engine : Sim.Engine.t;
  config : config;
  cpus : Sim.Proc.cpu array array;  (** indexed by node, then local cpu *)
  node_signal : Sim.Signal.t array;
  tx : Link.t array;
  msg_label : Sim.Engine.label array;
      (** preallocated per-destination-node delivery label (block -1);
          messages about a specific block still build their own label *)
  pulse_dst : (unit -> unit) array;
      (** preallocated per-destination-node wakeup pulse thunks, so the
          delivery closure captures one value instead of rebuilding it *)
  (* Message counters are per {e source} node so that, in parallel mode,
     each lane only ever touches its own slot; accessors sum. *)
  remote_by_src : int array;
  local_by_src : int array;
  mutable reliable : Reliable.t option;
      (** installed only under a non-empty fault plan; [None] keeps the
          raw perfectly-reliable path with zero transport overhead *)
}

let create ?(plan = Fault.Plan.empty) ?(schedule = Sim.Engine.Fifo) config =
  if config.nodes <= 0 || config.cpus_per_node <= 0 then invalid_arg "Net.create";
  Fault.Plan.check_nodes plan ~nodes:config.nodes;
  let engine = Sim.Engine.create ~schedule () in
  let next_pid = ref 0 in
  let cpus =
    Array.init config.nodes (fun node ->
        Array.init config.cpus_per_node (fun c ->
            Sim.Proc.make_cpu ~engine ~node_id:node
              ~cpu_global_id:((node * config.cpus_per_node) + c)
              ~quantum:config.quantum ~switch_cost:config.switch_cost next_pid))
  in
  let node_signal =
    Array.init config.nodes (fun n ->
        Sim.Signal.create
          ~label:{ Sim.Engine.lbl_node = n; lbl_block = -1; lbl_kind = Sim.Engine.Wakeup }
          engine)
  in
  let tx = Array.init config.nodes (fun _ -> Link.create ~bandwidth:config.bandwidth) in
  let t =
    {
      engine;
      config;
      cpus;
      node_signal;
      tx;
      msg_label =
        Array.init config.nodes (fun n ->
            { Sim.Engine.lbl_node = n; lbl_block = -1; lbl_kind = Sim.Engine.Message });
      pulse_dst =
        Array.init config.nodes (fun n -> fun () -> Sim.Signal.pulse node_signal.(n));
      remote_by_src = Array.make config.nodes 0;
      local_by_src = Array.make config.nodes 0;
      reliable = None;
    }
  in
  if not (Fault.Plan.is_empty plan) then begin
    let phys ~at ~src_node ~dst_node ~size k =
      let arrival =
        if src_node = dst_node then at +. config.intra_node_latency
        else
          let leaves = Link.transmit t.tx.(src_node) ~now:at ~size in
          leaves +. config.one_way_latency
      in
      Sim.Engine.at engine ~label:t.msg_label.(dst_node) arrival (fun () -> k arrival)
    in
    let pulse node = Sim.Signal.pulse t.node_signal.(node) in
    t.reliable <- Some (Reliable.create ~engine ~plan ~phys ~pulse)
  end;
  t

let reliable t = t.reliable

let engine t = t.engine
let config t = t.config
let node_signal t node = t.node_signal.(node)
let total_cpus t = t.config.nodes * t.config.cpus_per_node

(** [nth_cpu t i] is processor [i] in node-major order (processors 0..3
    are node 0, 4..7 node 1, ...), matching the paper's placement where
    2- and 4-processor runs use one node and 16-processor runs use four. *)
let nth_cpu t i =
  let per = t.config.cpus_per_node in
  t.cpus.(i / per).(i mod per)

(* Per-block labels carry the block for the Guided explorer; the common
   blockless case reuses the preallocated per-destination label. *)
let delivery_label t ~dst_node ~block =
  if block < 0 then t.msg_label.(dst_node)
  else { Sim.Engine.lbl_node = dst_node; lbl_block = block; lbl_kind = Sim.Engine.Message }

(** [send t ?at ?block ~src_node ~dst_node ~size deliver] transmits a
    message; [deliver] runs at the arrival time (it should enqueue into
    the right mailbox), after which the destination node's signal is
    pulsed.  [at] defaults to the current time; protocol handlers that
    service several messages back-to-back pass their time cursor.
    [block] declares the coherence block the message concerns (default
    none): the delivery event is labeled with it plus the destination
    node, so a {!Sim.Engine.Guided} explorer can tell which same-time
    deliveries commute. *)
let send t ?at ?(block = -1) ~src_node ~dst_node ~size deliver =
  let now = match at with Some x -> x | None -> Sim.Engine.now t.engine in
  if src_node = dst_node then begin
    (* Intra-node messages move through shared memory, not the Memory
       Channel: the fault model never touches them. *)
    t.local_by_src.(src_node) <- t.local_by_src.(src_node) + 1;
    let label = delivery_label t ~dst_node ~block in
    let arrival = now +. t.config.intra_node_latency in
    let pulse = t.pulse_dst.(dst_node) in
    Sim.Engine.at t.engine ~label arrival (fun () ->
        deliver ();
        pulse ())
  end
  else begin
    t.remote_by_src.(src_node) <- t.remote_by_src.(src_node) + 1;
    match t.reliable with
    | Some r -> Reliable.send r ~at:now ~src_node ~dst_node ~size deliver
    | None ->
        let label = delivery_label t ~dst_node ~block in
        let leaves = Link.transmit t.tx.(src_node) ~now ~size in
        let arrival = leaves +. t.config.one_way_latency in
        let pulse = t.pulse_dst.(dst_node) in
        Sim.Engine.at t.engine ~label arrival (fun () ->
            deliver ();
            pulse ())
  end

let sum = Array.fold_left ( + ) 0
let remote_messages t = sum t.remote_by_src
let local_messages t = sum t.local_by_src
