(** Deterministic fault plans for the simulated Memory Channel.

    A plan decides, per transmitted frame on a directed inter-node link,
    whether the frame is delivered intact, dropped, duplicated, delayed
    past its FIFO order, or corrupted in flight; it also schedules whole
    nodes to be unresponsive over windows of virtual time (a transient
    stall, or a crash that never recovers).

    Decisions are drawn from per-link {!Sim.Rng} streams derived purely
    from [(seed, src, dst)], so the same seed replays the same fault
    schedule against the same traffic — the determinism guarantee that
    makes faulty runs debuggable. *)

(** Per-link fault probabilities.  [drop], [dup], [corrupt] and [delay]
    are per-frame probabilities (their sum must be at most 1); a delayed
    frame arrives up to [delay_max] seconds after its FIFO arrival
    time, which reorders it past later traffic. *)
type link_faults = {
  drop : float;
  dup : float;
  corrupt : float;
  delay : float;
  delay_max : float;
}

val no_faults : link_faults

(** A node outage: the node neither transmits nor accepts frames for
    virtual times in [[from_t, until_t)]. *)
type outage = { node : int; from_t : float; until_t : float }

(** [stall ~node ~at ~duration] — a transient outage. *)
val stall : node:int -> at:float -> duration:float -> outage

(** [crash ~node ~at] — an outage that never recovers. *)
val crash : node:int -> at:float -> outage

(** The per-frame verdict of the plan. *)
type action = Deliver | Drop | Duplicate | Corrupt | Delay of float

type t

(** The plan that injects nothing; transports treat it as absent. *)
val empty : t

val is_empty : t -> bool

(** [create ?seed ?default ?links ?outages ()] — [default] applies to
    every directed link without an entry in [links] (keys are
    [(src_node, dst_node)]).  Raises [Invalid_argument] on probabilities
    outside [0, 1], sums above 1, or negative times. *)
val create :
  ?seed:int ->
  ?default:link_faults ->
  ?links:((int * int) * link_faults) list ->
  ?outages:outage list ->
  unit ->
  t

(** [decide t ~src ~dst] draws the next verdict for a frame on the
    [src -> dst] link. *)
val decide : t -> src:int -> dst:int -> action

(** [node_down t ~node ~at] — is the node inside an outage window? *)
val node_down : t -> node:int -> at:float -> bool

(** [check_nodes t ~nodes] raises [Invalid_argument] when an outage or a
    link of [t] names a node outside [0 .. nodes-1]. *)
val check_nodes : t -> nodes:int -> unit

(** Parse a command-line spec: comma-separated entries among
    [seed=N], [drop=P], [dup=P], [corrupt=P], [delay=P] or
    [delay=P:MAX_SECONDS], [stall=NODE\@AT:DURATION], [crash=NODE\@AT],
    and [link=SRC-DST:KEY=V;KEY=V...] for per-link overrides, e.g.
    ["seed=42,drop=0.05,delay=0.1:2e-5,stall=1\@0.001:0.0005"].
    Raises [Invalid_argument] on malformed input. *)
val of_spec : string -> t

val pp : Format.formatter -> t -> unit
