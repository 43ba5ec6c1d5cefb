(** A node's transmit link into the Memory Channel: fixed bandwidth,
    FIFO occupancy.  All processors of one node share their link, which
    shapes the scaling curves when a whole node communicates at once. *)

type t

val create : bandwidth:float -> t

(** [transmit t ~now ~size] reserves the link for a [size]-byte message
    injected at [now]; returns the time the last byte leaves. *)
val transmit : t -> now:float -> size:int -> float
