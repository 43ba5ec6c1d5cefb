(** The simulated cluster: nodes of SMP processors connected by a
    Memory-Channel-like network.

    The Memory Channel gives protected user-level access: a process
    transmits with a simple store to a mapped page (no OS involvement),
    and receivers detect arrival by polling a single cachable location.
    We model that as: constant [one_way_latency] + transmit occupancy on
    the sender's link ({!Link}), delivery into a {!Mailbox} by a
    callback, and a per-node {!Sim.Signal} pulsed on arrival so that
    stalled processes wake exactly at the arrival instant. *)

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
val default_config : config

type t

val create :
  ?plan:Fault.Plan.t ->
  ?schedule:Sim.Engine.schedule ->
  config ->
  t

(** The reliable transport, installed only under a non-empty fault plan;
    [None] means the raw perfectly-reliable path is in use. *)
val reliable : t -> Reliable.t option

val engine : t -> Sim.Engine.t
val config : t -> config
val node_signal : t -> int -> Sim.Signal.t
val total_cpus : t -> int

(** [nth_cpu t i] is processor [i] in node-major order (processors 0..3
    are node 0, 4..7 node 1, ...), matching the paper's placement where
    2- and 4-processor runs use one node and 16-processor runs use four. *)
val nth_cpu : t -> int -> Sim.Proc.cpu

(** [send t ?at ?block ~src_node ~dst_node ~size deliver] transmits a
    message; [deliver] runs at the arrival time (it should enqueue into
    the right mailbox), after which the destination node's signal is
    pulsed.  [at] defaults to the current time; protocol handlers that
    service several messages back-to-back pass their time cursor.
    [block] declares the coherence block the message concerns (default
    none): the delivery event is labeled with it plus the destination
    node, so a {!Sim.Engine.Guided} explorer can tell which same-time
    deliveries commute. *)
val send :
  t ->
  ?at:float ->
  ?block:int ->
  src_node:int ->
  dst_node:int ->
  size:int ->
  (unit -> unit) ->
  unit

val remote_messages : t -> int
val local_messages : t -> int
