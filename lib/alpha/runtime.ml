(** The interface between interpreted code and the machine it runs on.

    The interpreter is pure control flow + ALU; every memory access and
    every rewriter-inserted pseudo-instruction is delegated to this record
    of closures.  Two implementations matter:

    - a {e native} runtime (hardware shared-memory multiprocessor):
      [load]/[store] touch the one true memory image, checks are absent
      (original binaries have no pseudo-instructions);
    - the {e Shasta} runtime: [load]/[store] are still raw hardware
      accesses to the local node's memory image — possibly observing the
      protocol's invalid-flag value — and only the [_check] callbacks
      enter the protocol, possibly stalling the simulated process.

    This split mirrors the real system: the original load/store
    instructions are untouched by the rewriter; correctness comes from
    the inserted code. *)

type sc_outcome =
  | Run_in_hardware  (** line was exclusive at the LL; execute the real SC *)
  | Handled of bool  (** protocol performed (or failed) the conditional store *)

type t = {
  load : int -> Insn.width -> Bytes.t -> int -> unit;
      (** [load addr w dst off]: the raw load, its value sign-extended to
          64 bits and written in native byte order to the 8 bytes of
          [dst] at [off].  The interpreter passes its register file, so
          no word is boxed on the way. *)
  store : int -> Insn.width -> Bytes.t -> int -> unit;
      (** [store addr w src off]: the raw store of the word held at [off]
          of [src], in native byte order (its low 4 bytes at [W32]) *)
  miss_flag : Insn.width -> int64;
      (** the value a load of this width returns from an invalid line;
          the interpreter compares each checked load with it inline *)
  load_check : int64 -> int -> Insn.width -> int64;
      (** [load_check value addr w]: called only when a checked load
          returned [miss_flag w]; distinguishes a real miss (enter
          protocol, fetch, return the true value) from a false miss. *)
  store_check : int -> Insn.width -> unit;
      (** ensure the line is exclusive before the following store *)
  batch_check : Insn.batch_entry list -> int array -> unit;
      (** [batch_check entries addrs]: combined check for a run of nearby
          accesses (Section 2.2/4.1); [addrs.(i)] is the resolved
          address of the [i]th entry.  The interpreter reuses [addrs]
          across executions, so it may be longer than [entries]. *)
  ll : int -> Insn.width -> int64;  (** raw load-locked (sets the lock flag) *)
  sc : int -> Insn.width -> int64 -> bool;  (** raw store-conditional *)
  ll_check : int -> unit;
      (** before LL: fetch the line if invalid/pending; remember its state *)
  sc_check : int -> Insn.width -> int64 -> sc_outcome;
      (** before SC: decide hardware vs protocol path (Section 3.1.2) *)
  mb_check : unit -> unit;  (** protocol fence inserted after MB, itself only cycles *)
  poll : unit -> unit;  (** service incoming protocol messages *)
  prefetch_excl : int -> unit;  (** non-binding exclusive prefetch *)
  charge : int -> unit;  (** consume [n] cycles of simulated CPU time *)
  syscall : string -> int64 array -> bool;
      (** [syscall name args]: a [Call] to a procedure the program does
          not define is routed here with the argument registers
          [a0..a5] as [args.(0..5)]; [true] means the runtime handled
          it (a system call, which leaves every register unchanged),
          [false] traps as an unknown procedure.  The recognised names
          are the MP synchronisation entry points below. *)
}

(* Synchronisation system calls: SPMD kernels reach the MP lock and
   barrier manager ({!Shasta.Sync}) through plain [Call]s to these
   reserved names — the IR-level twin of the API mode's
   [lock]/[unlock]/[barrier].  Argument convention:
   [sync_lock]/[sync_unlock] take the lock id in [a0];
   [sync_barrier] takes the barrier id in [a0] and the party count in
   [a1].  The static race detector ({!Rewrite.Races}) keys its lockset
   and barrier-phase analyses on the same names. *)
let sync_lock_proc = "sync_lock"
let sync_unlock_proc = "sync_unlock"
let sync_barrier_proc = "sync_barrier"

let is_sync_proc n =
  n = sync_lock_proc || n = sync_unlock_proc || n = sync_barrier_proc

(** An in-process runtime with one flat memory image and no coherence;
    useful for unit-testing the interpreter and for "standard SMP"
    baseline measurements.  [size] bytes of zeroed memory. *)
let flat ?(charge = fun _ -> ()) ~size () =
  let mem = Bytes.make size '\000' in
  let read addr (w : Insn.width) =
    match w with
    | Insn.W32 -> Int64.of_int32 (Bytes.get_int32_le mem addr)
    | Insn.W64 -> Bytes.get_int64_le mem addr
  in
  let write addr (w : Insn.width) v =
    match w with
    | Insn.W32 -> Bytes.set_int32_le mem addr (Int64.to_int32 v)
    | Insn.W64 -> Bytes.set_int64_le mem addr v
  in
  (* Uniprocessor LL/SC: succeeds unless an intervening SC cleared it. *)
  let lock_flag = ref false in
  {
    load = (fun addr w dst off -> Bytes.set_int64_ne dst off (read addr w));
    store = (fun addr w src off -> write addr w (Bytes.get_int64_ne src off));
    (* No line is ever invalid here: any flag will do, and a load that
       happens to match it is returned as it is. *)
    miss_flag = (fun _ -> Int64.min_int);
    load_check = (fun value _addr _w -> value);
    store_check = (fun _ _ -> ());
    batch_check = (fun _ _ -> ());
    ll =
      (fun addr w ->
        lock_flag := true;
        read addr w);
    sc =
      (fun addr w v ->
        let ok = !lock_flag in
        lock_flag := false;
        if ok then write addr w v;
        ok);
    ll_check = (fun _ -> ());
    sc_check = (fun _ _ _ -> Run_in_hardware);
    mb_check = (fun () -> ());
    poll = (fun () -> ());
    prefetch_excl = (fun _ -> ());
    charge;
    (* Uniprocessor synchronisation: a lock is always free, a barrier
       has nobody to wait for. *)
    syscall = (fun name _args -> is_sync_proc name);
  }
