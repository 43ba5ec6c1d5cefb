(** Time units used throughout the simulator.

    All simulated time is expressed in seconds (float).  The prototype
    cluster in the paper uses 300 MHz Alpha 21164 processors, so one cycle
    is 1/300e6 s. *)

let us = 1e-6

(** Default processor frequency of the prototype cluster (Hz). *)
let default_cpu_hz = 300.0e6

(** [to_us t] converts seconds to microseconds (for reporting). *)
let to_us t = t /. us
