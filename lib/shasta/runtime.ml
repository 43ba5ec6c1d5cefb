(** The per-process Shasta runtime.

    Ties together a simulated process, its protocol control block, its
    synchronisation endpoint and its private memory, and exposes:

    - the {e API mode}: [load64]/[store64]/[work]/[lock]/[barrier]/... used by
      the larger workloads (SPLASH kernels, the database).  Each access
      runs the same inline-check state machine the rewriter would insert,
      with its cycle cost charged (batched and flushed like the inline
      code's instruction stream);
    - the {e IR mode}: [alpha_runtime] builds the {!Alpha.Runtime.t}
      record that lets the interpreter execute rewriter-instrumented
      binaries against this process. *)

module E = Protocol.Engine

(** One traced shared-memory access, as observed by the application:
    loads carry the value returned, stores the value written.  Reported
    through [on_access] for the trace oracle in [lib/check]. *)
type access = {
  acc_pid : int;
  acc_time : float;
  acc_addr : int;
  acc_store : bool;
  acc_value : int64;
}

type t = {
  proc : Sim.Proc.t;
  pcb : E.pcb;
  st : E.proc;  (** [pcb]'s protocol state, cached for the hit path *)
  ep : Sync.endpoint;
  cfg : Config.t;
  sync : Sync.t;
  peng : E.t;
  mutable priv : Bytes.t;  (** private memory, empty until first used: see {!private_mem} *)
  img : Protocol.Memimg.t;  (** this process's domain image, cached *)
  private_tab : Bytes.t;  (** [pcb]'s private state table *)
  chunk_block : int array;  (** the layout's chunk -> block table *)
  chunk_shift : int;
  shared_lo : int;  (** shared-range bounds, cached as immediates *)
  shared_hi : int;
  last64 : int;  (** the highest address an 8-byte shared access may start at *)
  c_access : int;  (** cycles charged per unchecked access *)
  c_load : int;  (** cycles charged per checked load, precomputed *)
  c_store : int;  (** cycles charged per checked store *)
  c_batched : int;  (** cycles charged per batch-covered access *)
  mutable acc_cycles : int;
  mutable blocked_time : float;
  mutable accesses : int;  (** shared loads+stores issued in API mode *)
  mutable sc_addr : int;  (** the operands {!sc_check} hands to [E.sc_check] *)
  mutable sc_w : Alpha.Insn.width;
  mutable sc_v : int64;
  mutable on_access : (access -> unit) option;
      (** trace hook over API-mode shared accesses (incl. LL/SC);
          [None] (the default) costs nothing *)
}

let flush_threshold = 2048

let flush h =
  if h.acc_cycles > 0 then begin
    Sim.Proc.work (float_of_int h.acc_cycles /. Sim.Units.default_cpu_hz);
    h.acc_cycles <- 0
  end

let[@inline] charge_cycles h n =
  h.acc_cycles <- h.acc_cycles + n;
  if h.acc_cycles >= flush_threshold then flush h

(* Protocol routines and system calls set the per-process flag used by
   the direct-downgrade optimisation (Section 4.3.4): [in_protocol h f x]
   runs [f x] with the flag cleared.  Taking [f]'s argument separately
   lets a caller pass a known function, such as [E.poll], with no
   closure built per call. *)
let in_protocol h f x =
  flush h;
  h.st.E.in_app := false;
  match f x with
  | r ->
      h.st.E.in_app := true;
      r
  | exception e ->
      h.st.E.in_app := true;
      raise e

(* The SC check under [in_protocol], with no closure built per SC: the
   operands wait in the handle for the known function [sc_pending]. *)
let sc_pending h = E.sc_check h.pcb h.sc_addr h.sc_w h.sc_v

let sc_check h addr w v =
  h.sc_addr <- addr;
  h.sc_w <- w;
  h.sc_v <- v;
  in_protocol h sc_pending h

let create ~cfg ~peng ~sync (proc : Sim.Proc.t) =
  let pcb = E.attach peng proc in
  let ep = Sync.register sync ~pid:proc.Sim.Proc.pid ~node:proc.Sim.Proc.cpu.Sim.Proc.node_id in
  let layout = E.layout peng and img = pcb.E.st.E.dom.E.img in
  let ck = cfg.Config.checks and on = cfg.Config.checks_enabled in
  let h =
    {
      proc;
      pcb;
      st = pcb.E.st;
      ep;
      cfg;
      sync;
      peng;
      priv = Bytes.empty;
      img;
      private_tab = pcb.E.st.E.private_tab;
      chunk_block = layout.Protocol.Layout.chunk_block;
      chunk_shift = layout.Protocol.Layout.chunk_shift;
      shared_lo = cfg.Config.protocol.Protocol.Config.shared_base;
      shared_hi =
        cfg.Config.protocol.Protocol.Config.shared_base
        + cfg.Config.protocol.Protocol.Config.shared_size;
      last64 =
        cfg.Config.protocol.Protocol.Config.shared_base
        + cfg.Config.protocol.Protocol.Config.shared_size - 8;
      c_access = ck.Config.access_cycles;
      c_load = ck.Config.access_cycles + (if on then ck.Config.load_check_cycles else 0);
      c_store = ck.Config.access_cycles + (if on then ck.Config.store_check_cycles else 0);
      c_batched = ck.Config.access_cycles + (if on then 1 else 0);
      acc_cycles = 0;
      blocked_time = 0.0;
      accesses = 0;
      sc_addr = 0;
      sc_w = Alpha.Insn.W64;
      sc_v = 0L;
      on_access = None;
    }
  in
  let node = proc.Sim.Proc.cpu.Sim.Proc.node_id in
  proc.Sim.Proc.on_poll <-
    (fun _ ->
      (* The sync mailbox is served before the protocol's: the run's
         event order, and so every simulated result, depends on this
         order.  An idle sync mailbox adds nothing, so the protocol's
         time is returned as it is, with no fresh float boxed. *)
      let sync_s = Sync.service sync ~node in
      let proto_s = E.service pcb in
      if sync_s = 0.0 then proto_s else proto_s +. sync_s);
  h

let pid h = h.proc.Sim.Proc.pid
let node h = h.proc.Sim.Proc.cpu.Sim.Proc.node_id

let trace_access h ~store addr v =
  match h.on_access with
  | None -> ()
  | Some f ->
      f
        {
          acc_pid = pid h;
          acc_time = Sim.Engine.now (Mchan.Net.engine (E.net h.peng));
          acc_addr = addr;
          acc_store = store;
          acc_value = v;
        }
let is_shared h addr = addr >= h.shared_lo && addr < h.shared_hi

(* The miss-flag bit pattern for a width, without recomputing the 64-bit
   replication per access. *)
let flag_w32 = Protocol.Config.flag_value Alpha.Insn.W32
let flag_w64 = Protocol.Config.flag_value Alpha.Insn.W64

let flag (w : Alpha.Insn.width) =
  match w with Alpha.Insn.W32 -> flag_w32 | Alpha.Insn.W64 -> flag_w64

(** [layout h] — the region layout of the shared address space (block
    extents vary by region; consumers must not assume a fixed line). *)
let layout h = E.layout h.peng

(* --- private memory --- *)

let[@inline never] alloc_private h =
  let m = Bytes.make h.cfg.Config.private_mem_size '\000' in
  h.priv <- m;
  m

(** [private_mem h] — [h]'s private memory, all [private_mem_size]
    bytes of it, zeroed on the first access: a process that never
    touches private memory never allocates it. *)
let[@inline] private_mem h =
  let m = h.priv in
  if Bytes.length m = 0 then alloc_private h else m

let private_read h addr (w : Alpha.Insn.width) =
  match w with
  | Alpha.Insn.W32 -> Int64.of_int32 (Bytes.get_int32_le (private_mem h) addr)
  | Alpha.Insn.W64 -> Bytes.get_int64_le (private_mem h) addr

let private_write h addr (w : Alpha.Insn.width) v =
  match w with
  | Alpha.Insn.W32 -> Bytes.set_int32_le (private_mem h) addr (Int64.to_int32 v)
  | Alpha.Insn.W64 -> Bytes.set_int64_le (private_mem h) addr v

(* --- API mode: the inline-check state machine, in function form --- *)

(* A shared store after its charge: the protocol when the line is not
   exclusive, then the raw write the engine may intercept. *)
let[@inline never] store_shared h addr w v =
  (match E.private_state h.pcb addr with
  | Protocol.Ptypes.Exclusive -> ()
  | Protocol.Ptypes.Invalid | Protocol.Ptypes.Shared | Protocol.Ptypes.Pending ->
      in_protocol h (fun () -> E.store_miss h.pcb addr) ());
  E.raw_write h.pcb addr w v;
  trace_access h ~store:true addr v

(** [store h addr w v] — a checked shared store of either width. *)
let store h addr w v =
  h.accesses <- h.accesses + 1;
  if not (is_shared h addr) then begin
    charge_cycles h h.c_access;
    private_write h addr w v
  end
  else begin
    charge_cycles h h.c_store;
    store_shared h addr w v
  end

(* --- the 64-bit paths ---

   The array-based workloads do almost all their shared traffic through
   these, so a hit must stay inside this module and never box the word
   (DESIGN §16): the two primitives below read the private state table
   and the block lookup from fields cached at [create], and the image's
   bytes through [h.img], since a growing image replaces them.  They
   hand everything else (a miss, a store that needs the protocol or the
   engine's store interception, a traced access, an image too small) to
   the out-of-line slow paths.  A [store64] does what [store] does at
   [W64], and shares its slow path. *)

(* An 8-byte access past what the image holds: grow it, or fail past
   the segment's end. *)
let[@inline never] make_room h addr =
  if addr > h.last64 then
    invalid_arg (Printf.sprintf "Runtime: access at 0x%x outside the image" addr);
  Protocol.Memimg.check h.img addr 8

let[@inline never] load64_slow h addr v0 =
  let v =
    if v0 = flag_w64 then in_protocol h (fun () -> E.load_miss h.pcb addr Alpha.Insn.W64) ()
    else v0
  in
  trace_access h ~store:false addr v;
  v

(* [priv]/[shared]: the cycles charged for a private and a shared
   access. *)
let[@inline] load_word h ~priv ~shared addr =
  h.accesses <- h.accesses + 1;
  if not (is_shared h addr) then begin
    charge_cycles h priv;
    Bytes.get_int64_le (private_mem h) addr
  end
  else begin
    charge_cycles h shared;
    let off = addr - h.shared_lo in
    if off > Bytes.length h.img.Protocol.Memimg.data - 8 then make_room h addr;
    let v = Bytes.get_int64_le h.img.Protocol.Memimg.data off in
    match h.on_access with
    | None when v <> flag_w64 -> v
    | None | Some _ -> load64_slow h addr v
  end

(* A hit needs the line exclusive in the private table ('E' is
   [E.st_char Exclusive]; any other byte, a corrupt one included, takes
   the slow path, which decodes it), and the raw write must be one the
   engine would not intercept: no miss outstanding, no block watched, no
   LL monitor armed. *)
let[@inline] store_word h ~priv ~shared addr v =
  h.accesses <- h.accesses + 1;
  if not (is_shared h addr) then begin
    charge_cycles h priv;
    Bytes.set_int64_le (private_mem h) addr v
  end
  else begin
    charge_cycles h shared;
    let off = addr - h.shared_lo in
    if off > Bytes.length h.img.Protocol.Memimg.data - 8 then make_room h addr;
    if
      Bytes.get h.private_tab h.chunk_block.(off lsr h.chunk_shift) = 'E'
      && Protocol.Ptypes.Itbl.length h.st.E.outstanding = 0
      && h.st.E.watch_blocks == []
      && h.img.Protocol.Memimg.armed = 0
      && h.on_access == None
    then Bytes.set_int64_le h.img.Protocol.Memimg.data off v
    else store_shared h addr Alpha.Insn.W64 v
  end

let[@inline] load64 h addr = load_word h ~priv:h.c_access ~shared:h.c_load addr
let[@inline] store64 h addr v = store_word h ~priv:h.c_access ~shared:h.c_store addr v
let[@inline] load64_batched h addr = load_word h ~priv:h.c_batched ~shared:h.c_batched addr
let[@inline] store64_batched h addr v = store_word h ~priv:h.c_batched ~shared:h.c_batched addr v
let load_int h addr = Int64.to_int (load64 h addr)
let store_int h addr v = store64 h addr (Int64.of_int v)
let load_float h addr = Int64.float_of_bits (load64 h addr)
let store_float h addr v = store64 h addr (Int64.bits_of_float v)
let load_float_batched h addr = Int64.float_of_bits (load64_batched h addr)
let store_float_batched h addr v = store64_batched h addr (Int64.bits_of_float v)

(** [work h seconds] — application compute time (polls run inside). *)
let work h seconds =
  flush h;
  if h.cfg.Config.checks_enabled then
    (* Residual checking overhead on private data and polls, folded into
       compute time as a small multiplier; the dominant overheads are the
       per-shared-access charges above. *)
    Sim.Proc.work (seconds *. 1.02)
  else Sim.Proc.work seconds

let work_cycles h n = charge_cycles h n

(** [mb h] — memory barrier: the hardware cost (~0.03 us on the 21164)
    plus, when running under Shasta, the inserted protocol fence. *)
let mb h =
  charge_cycles h 9;
  if h.cfg.Config.checks_enabled || h.st.E.n_outstanding_stores > 0 then
    in_protocol h E.mb h.pcb

(* The inline part of a batched check, per access: a private access, or
   one whose line is already in the needed state in the private table,
   needs no protocol entry.  It runs without suspension, so the decision
   cannot go stale before the batched code that follows. *)
let ready h addr (kind : Alpha.Insn.access_kind) =
  (not (is_shared h addr))
  ||
  match E.private_state h.pcb addr with
  | Protocol.Ptypes.Exclusive -> true
  | Protocol.Ptypes.Shared -> kind = Alpha.Insn.Load_acc
  | Protocol.Ptypes.Invalid | Protocol.Ptypes.Pending -> false

let rec all_ready h = function
  | [] -> true
  | (addr, _, kind) :: rest -> ready h addr kind && all_ready h rest

(** [batch h accesses] — the combined check for a run of accesses, then
    the accesses themselves.  Like the inserted inline code, the check
    itself is cheap and the protocol is entered only when some line is
    not in the needed state (Section 2.2). *)
let batch h accesses =
  if h.cfg.Config.checks_enabled then
    charge_cycles h (2 + (2 * List.length accesses));
  if not (all_ready h accesses) then
    in_protocol h
      (fun () -> E.batch h.pcb (List.filter (fun (addr, _, _) -> is_shared h addr) accesses))
      ()

(* --- MP synchronisation --- *)

let lock h id = in_protocol h (fun () -> Sync.acquire h.sync h.ep id) ()

(* Release semantics: a lock release or barrier arrival must make every
   outstanding (non-blocking) store globally performed first, exactly as
   the MB in an LL/SC unlock sequence would. *)
let unlock h id =
  in_protocol h
    (fun () ->
      E.mb h.pcb;
      Sync.release h.sync h.ep id)
    ()

let barrier h ~id ~parties =
  in_protocol h
    (fun () ->
      E.mb h.pcb;
      Sync.barrier h.sync h.ep ~id ~parties)
    ()

(* --- transparent (shared-memory) synchronisation via LL/SC --- *)

(* Reclassify protocol stalls incurred inside [f] as synchronisation
   time, the way the paper accounts lock/barrier cost. *)
let as_sync h f =
  let st = E.stats h.pcb in
  let r0 = st.E.read_stall and w0 = st.E.write_stall in
  let r = f () in
  let dr = st.E.read_stall -. r0 and dw = st.E.write_stall -. w0 in
  st.E.read_stall <- r0;
  st.E.write_stall <- w0;
  h.ep.Sync.sync_stall <- h.ep.Sync.sync_stall +. dr +. dw;
  r

(* One LL/SC attempt through the inline checks, in the order the
   inserted code runs it.  [load_locked] charges [ll_check + ll], makes
   the line readable through the protocol and loads with a reservation;
   [store_conditional] charges [sc_check + sc] and stores when the check
   lets the SC run in hardware or the protocol grants it.  Both trace
   the access that took effect. *)
let load_locked h addr w =
  charge_cycles h (3 + 2) (* ll_check + ll *);
  in_protocol h (fun () -> E.ll_ensure h.pcb addr) ();
  let v = E.raw_ll h.pcb addr w in
  trace_access h ~store:false addr v;
  v

let store_conditional h addr w v =
  charge_cycles h (4 + 2) (* sc_check + sc *);
  let ok =
    match sc_check h addr w v with
    | Alpha.Runtime.Run_in_hardware -> E.raw_sc h.pcb addr w v
    | Alpha.Runtime.Handled ok -> ok
  in
  if ok then trace_access h ~store:true addr v;
  ok

(** [atomic_add h addr delta] — LL/SC fetch-and-add through the full
    transparent path (inline checks, prefetch-free).  Returns the old
    value. *)
let atomic_add h addr delta =
  let rec attempt () =
    let v = load_locked h addr Alpha.Insn.W64 in
    if store_conditional h addr Alpha.Insn.W64 (Int64.add v (Int64.of_int delta)) then
      Int64.to_int v
    else attempt ()
  in
  attempt ()

(** [spin_until h addr w ok] — the LL/SC spin on a cached copy: LL the
    word at [addr] and return its value [v] once [ok v]; otherwise poll,
    then stall until this process's LL monitor on the block is broken
    (DESIGN §6).  Returns with the reservation armed. *)
let spin_until h addr w ok =
  let rec round () =
    let v = load_locked h addr w in
    if ok v then v
    else begin
      charge_cycles h h.cfg.Config.checks.Config.poll_cycles;
      flush h;
      E.stall_until h.pcb ~bucket:`Read (fun () ->
          not (Protocol.Memimg.monitor_armed h.img ~pid:(pid h) addr));
      round ()
    end
  in
  round ()

let disarm h = Protocol.Memimg.disarm h.img ~pid:(pid h)

(** [sm_lock h addr] — acquire a spin lock at shared address [addr] with
    LL/SC, exactly the Figure 1 loop (with the optional prefetch-
    exclusive of Section 3.1.2 controlled by [prefetch]).  Ends with the
    MB of a lock acquire. *)
let sm_lock ?(prefetch = false) h addr =
  as_sync h (fun () ->
      if prefetch then begin
        charge_cycles h 2;
        in_protocol h (fun () -> E.prefetch_excl h.pcb addr) ()
      end;
      let rec acquire () =
        ignore (spin_until h addr Alpha.Insn.W32 (fun v -> v = 0L));
        if not (store_conditional h addr Alpha.Insn.W32 1L) then acquire ()
      in
      acquire ();
      mb h)

(** [sm_unlock h addr] — release: MB then an ordinary store of zero. *)
let sm_unlock h addr =
  mb h;
  store h addr Alpha.Insn.W32 0L

(** [sm_barrier h ~addr ~parties] — transparent barrier: an atomically
    incremented count (this is what makes Ocean's frequent barriers
    contended in Figure 3) and a generation word spun upon. *)
let sm_barrier h ~addr ~parties =
  as_sync h (fun () ->
      let gen_addr = addr + 8 in
      let my_gen = load64 h gen_addr in
      let c = atomic_add h addr 1 in
      if c + 1 = parties then begin
        store64 h addr 0L;
        mb h;
        store64 h gen_addr (Int64.add my_gen 1L);
        mb h
      end
      else begin
        ignore (spin_until h gen_addr Alpha.Insn.W64 (fun v -> v <> my_gen));
        disarm h
      end)

(* --- blocking (for the OS layer) --- *)

(** [wakeup h] — make a process parked in [block] runnable again. *)
let wakeup h = Sim.Proc.wakeup h.proc

(** [block h] — release the CPU until [wakeup]; counted as blocked. *)
let block h =
  let eng = Mchan.Net.engine (E.net h.peng) in
  let t0 = Sim.Engine.now eng in
  flush h;
  in_protocol h Sim.Proc.block ();
  h.blocked_time <- h.blocked_time +. (Sim.Engine.now eng -. t0)

(* --- measurement --- *)

let breakdown h =
  let st = E.stats h.pcb in
  {
    Breakdown.task = h.proc.Sim.Proc.times.Sim.Proc.work_time;
    read = st.E.read_stall;
    write = st.E.write_stall;
    mb = st.E.mb_stall;
    sync = h.ep.Sync.sync_stall;
    blocked = h.blocked_time;
    msg = h.proc.Sim.Proc.times.Sim.Proc.msg_time;
  }

let pstats h = E.stats h.pcb

(** Shared loads+stores this process issued in API mode. *)
let accesses h = h.accesses

(* --- IR mode --- *)

(* A [Batch_check]'s entries from the [i]th on, at the resolved
   addresses [addrs]: are they all ready, and which of them are shared
   (the batch miss handler's list, built only on a miss)? *)
let rec entries_ready h entries addrs i =
  match entries with
  | [] -> true
  | e :: rest -> ready h addrs.(i) e.Alpha.Insn.b_kind && entries_ready h rest addrs (i + 1)

let rec shared_entries h entries addrs i =
  match entries with
  | [] -> []
  | e :: rest ->
      let addr = addrs.(i) and tl = shared_entries h rest addrs (i + 1) in
      if is_shared h addr then (addr, e.Alpha.Insn.b_width, e.Alpha.Insn.b_kind) :: tl else tl

(** [alpha_runtime h] — the machine interface for interpreter execution:
    raw accesses hit the node image (or private memory); the pseudo-
    instruction callbacks enter the protocol. *)
let alpha_runtime h =
  let dispatch_read addr w =
    if is_shared h addr then E.raw_read h.pcb addr w else private_read h addr w
  in
  let dispatch_write addr w v =
    if is_shared h addr then E.raw_write h.pcb addr w v else private_write h addr w v
  in
  (* Applied once here, so an LL check builds no closure. *)
  let ll_ensure = E.ll_ensure h.pcb in
  {
    Alpha.Runtime.load = dispatch_read;
    store = dispatch_write;
    miss_flag = flag;
    load_check =
      (fun value addr w ->
        if is_shared h addr then in_protocol h (fun () -> E.load_miss h.pcb addr w) ()
        else value);
    store_check =
      (fun addr _w ->
        if is_shared h addr then
          match E.private_state h.pcb addr with
          | Protocol.Ptypes.Exclusive -> ()
          | Protocol.Ptypes.Invalid | Protocol.Ptypes.Shared | Protocol.Ptypes.Pending ->
              in_protocol h (fun () -> E.store_miss h.pcb addr) ());
    batch_check =
      (fun entries addrs ->
        if not (entries_ready h entries addrs 0) then
          in_protocol h (fun () -> E.batch h.pcb (shared_entries h entries addrs 0)) ());
    ll =
      (fun addr w ->
        if is_shared h addr then E.raw_ll h.pcb addr w else private_read h addr w);
    sc =
      (fun addr w v ->
        if is_shared h addr then E.raw_sc h.pcb addr w v
        else begin
          private_write h addr w v;
          true
        end);
    ll_check =
      (fun addr -> if is_shared h addr then in_protocol h ll_ensure addr);
    sc_check =
      (fun addr w v ->
        if is_shared h addr then sc_check h addr w v
        else Alpha.Runtime.Run_in_hardware);
    mb = (fun () -> ());
    mb_check = (fun () -> in_protocol h E.mb h.pcb);
    poll = (fun () -> in_protocol h E.poll h.pcb);
    prefetch_excl =
      (fun addr ->
        if is_shared h addr then in_protocol h (fun () -> E.prefetch_excl h.pcb addr) ());
    charge = (fun n -> charge_cycles h n);
    (* MP synchronisation system calls (lock id in a0; barrier id in
       a0, parties in a1) — the IR-mode twin of [lock]/[unlock]/
       [barrier] above, sharing their release/fence semantics. *)
    syscall =
      (fun name args ->
        let a0 = Int64.to_int args.(0) and a1 = Int64.to_int args.(1) in
        if name = Alpha.Runtime.sync_lock_proc then begin
          lock h a0;
          true
        end
        else if name = Alpha.Runtime.sync_unlock_proc then begin
          unlock h a0;
          true
        end
        else if name = Alpha.Runtime.sync_barrier_proc then begin
          barrier h ~id:a0 ~parties:a1;
          true
        end
        else false);
  }

(** [run_program h program ~entry ?args ()] — execute an (instrumented)
    program on this process. *)
let run_program ?max_steps h program ~entry ?args () =
  let rt = alpha_runtime h in
  let outcome = Alpha.Interp.run ?max_steps program rt ~entry ?args () in
  flush h;
  outcome
