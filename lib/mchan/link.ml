(** A node's transmit link into the Memory Channel.

    Each AlphaServer in the prototype cluster is connected through a
    single link, so all processors of one node share its bandwidth.  The
    link serialises outgoing messages: a message of [size] bytes occupies
    the link for [size / bandwidth] seconds, and later sends queue behind
    it.  This occupancy model, combined with the fixed one-way latency in
    {!Net}, is what bends the Figure-3 speedup curves when four processors
    per node all communicate at once. *)

type t = {
  bandwidth : float;  (** bytes per second *)
  mutable busy_until : float;
}

let create ~bandwidth = { bandwidth; busy_until = 0.0 }

(** [transmit t ~now ~size] reserves the link for a [size]-byte message
    injected at [now]; returns the time the last byte leaves the link. *)
let transmit t ~now ~size =
  let start = Float.max now t.busy_until in
  let xfer = float_of_int size /. t.bandwidth in
  t.busy_until <- start +. xfer;
  t.busy_until
