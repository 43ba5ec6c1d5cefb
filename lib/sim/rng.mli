(** Deterministic splittable pseudo-random numbers (splitmix64).  The
    simulator never uses [Stdlib.Random]: every run is reproducible from
    its seeds. *)

type t

val create : int -> t

(** [split t] is a new generator statistically independent of [t]. *)
val split : t -> t

(** [int t bound] is uniform in [0, bound).  Requires [bound > 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [0, bound). *)
val float : t -> float -> float

(** [exponential t ~mean] samples an exponential inter-arrival time. *)
val exponential : t -> mean:float -> float

(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
