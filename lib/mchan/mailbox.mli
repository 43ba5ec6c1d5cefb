(** Per-process FIFO receive queues (the Memory Channel delivery region a
    process polls).  In SMP-Shasta, processes of one node may drain each
    other's queues — the "shared message queues" of Section 4.3.2. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
val is_empty : 'a t -> bool
val length : 'a t -> int
