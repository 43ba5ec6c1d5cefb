(** Sequence-numbered ack/retransmit transport over the raw Memory
    Channel links.

    The raw channel model ({!Link} occupancy + fixed latency) is
    perfectly reliable; when a {!Fault.Plan} injects loss, duplication,
    reordering or corruption, this layer restores exactly-once in-order
    delivery per directed node pair, so the coherence protocol above
    sees the same channel semantics it was built for.  {!Net} installs
    it only when the fault plan is non-empty: with no plan the raw path
    is used unchanged and the transport costs nothing. *)

(** Raised when a frame's retransmit timer expires after 31
    transmissions without an ack (e.g. the destination node crashed and
    never recovered). *)
exception
  Link_failed of { src : int; dst : int; seq : int; attempts : int }

type t

(** [create ~engine ~plan ~phys ~pulse] — [phys ~at ~src_node
    ~dst_node ~size k] must put a frame on the raw channel and run
    [k arrival_time] at its arrival instant; [pulse node] wakes the
    destination node after in-order deliveries. *)
val create :
  engine:Sim.Engine.t ->
  plan:Fault.Plan.t ->
  phys:(at:float -> src_node:int -> dst_node:int -> size:int -> (float -> unit) -> unit) ->
  pulse:(int -> unit) ->
  t

(** [send t ~at ~src_node ~dst_node ~size deliver] — transmit a payload;
    [deliver] runs exactly once, at the instant the frame is delivered
    in sequence order at the destination. *)
val send :
  t -> at:float -> src_node:int -> dst_node:int -> size:int -> (unit -> unit) -> unit

(** Per-link counters (all cumulative, updated in place).  [data_sent]
    counts first transmissions; injected faults are counted on the link
    that carried the faulted frame (acks travel on the reverse link). *)
type totals = {
  mutable data_sent : int;
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable inj_dropped : int;
  mutable inj_duplicated : int;
  mutable inj_corrupted : int;
  mutable inj_delayed : int;
  mutable dup_suppressed : int;
  mutable outage_dropped : int;  (** frames discarded because an endpoint node was down *)
}

(** [totals t] — cluster-wide sums, in a fresh record. *)
val totals : t -> totals

(** [table t] — one row per directed link, sorted by (src, dst), then a
    [total] row holding {!totals}; the title names the fault plan. *)
val table : t -> Sim.Stats.table
