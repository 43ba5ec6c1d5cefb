(** Conservative parallel discrete-event driver (Chandy–Misra style).

    The only public entry point: everything else in the implementation
    (lane assignment, the window barrier, the cross-event merge) is an
    internal detail of the engine's parallel mode, pinned here so the
    surface cannot silently grow (the [Net] precedent).

    [run ?until ?lookahead ~domains eng ~nodes] drives [eng] to
    quiescence (or [until]) with per-node event lanes spread over
    [domains] real OCaml domains.  The engine must use the [Fifo]
    schedule; [lookahead] is the minimum cross-node latency (the 4 µs
    Memory Channel one-way latency by default).  On return — normal or
    exceptional — the engine is folded back to sequential form, so
    [Engine.run]/[Engine.step] can be used afterwards.  Elapsed time
    agrees with a sequential run's to a relative 1e-3, not bit-for-bit. *)
val run :
  ?until:float ->
  ?lookahead:float ->
  domains:int ->
  Engine.t ->
  nodes:int ->
  Engine.stop_reason
