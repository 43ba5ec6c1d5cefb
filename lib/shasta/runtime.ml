(** The per-process Shasta runtime.

    Ties together a simulated process, its protocol control block, its
    synchronisation endpoint and its private memory, and exposes:

    - the {e API mode}: [load]/[store]/[work]/[lock]/[barrier]/... used by
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
  acc_width : Alpha.Insn.width;
  acc_store : bool;
  acc_value : int64;
}

type t = {
  proc : Sim.Proc.t;
  pcb : E.pcb;
  ep : Sync.endpoint;
  cfg : Config.t;
  sync : Sync.t;
  peng : E.t;
  private_mem : Bytes.t;
  flag_w32 : int64;  (** [Protocol.Config.flag_value _ W32], precomputed *)
  flag_w64 : int64;  (** [Protocol.Config.flag_value _ W64], precomputed *)
  img : Protocol.Memimg.t;  (** this process's domain image, cached *)
  shared_lo : int;  (** shared-range bounds, cached as immediates *)
  shared_hi : int;
  c_load : int;  (** cycles charged per checked load, precomputed *)
  c_store : int;  (** cycles charged per checked store *)
  c_batched : int;  (** cycles charged per batch-covered access *)
  mutable acc_cycles : int;
  mutable blocked_time : float;
  mutable accesses : int;  (** shared loads+stores issued in API mode *)
  mutable on_access : (access -> unit) option;
      (** trace hook over API-mode shared accesses (incl. LL/SC);
          [None] (the default) costs nothing *)
}

let flush_threshold = 2048

let flush h =
  if h.acc_cycles > 0 then begin
    Sim.Proc.work (Config.cycles h.cfg h.acc_cycles);
    h.acc_cycles <- 0
  end

let charge_cycles h n =
  h.acc_cycles <- h.acc_cycles + n;
  if h.acc_cycles >= flush_threshold then flush h

(* Protocol routines and system calls set the per-process flag used by
   the direct-downgrade optimisation (Section 4.3.4). *)
let in_protocol h f =
  flush h;
  h.pcb.E.in_app := false;
  let finally () = h.pcb.E.in_app := true in
  (try
     let r = f () in
     finally ();
     r
   with e ->
     finally ();
     raise e)

let create ~cfg ~peng ~sync (proc : Sim.Proc.t) =
  let pcb = E.attach peng proc in
  let ep = Sync.register sync ~pid:proc.Sim.Proc.pid ~node:proc.Sim.Proc.cpu.Sim.Proc.node_id in
  let h =
    {
      proc;
      pcb;
      ep;
      cfg;
      sync;
      peng;
      private_mem = Bytes.make cfg.Config.private_mem_size '\000';
      flag_w32 = Protocol.Config.flag_value cfg.Config.protocol Alpha.Insn.W32;
      flag_w64 = Protocol.Config.flag_value cfg.Config.protocol Alpha.Insn.W64;
      img = pcb.E.dom.E.img;
      shared_lo = cfg.Config.protocol.Protocol.Config.shared_base;
      shared_hi =
        cfg.Config.protocol.Protocol.Config.shared_base
        + cfg.Config.protocol.Protocol.Config.shared_size;
      c_load =
        (if cfg.Config.checks_enabled then
           cfg.Config.checks.Config.access_cycles + cfg.Config.checks.Config.load_check_cycles
         else cfg.Config.checks.Config.access_cycles);
      c_store =
        (if cfg.Config.checks_enabled then
           cfg.Config.checks.Config.access_cycles + cfg.Config.checks.Config.store_check_cycles
         else cfg.Config.checks.Config.access_cycles);
      c_batched =
        cfg.Config.checks.Config.access_cycles + (if cfg.Config.checks_enabled then 1 else 0);
      acc_cycles = 0;
      blocked_time = 0.0;
      accesses = 0;
      on_access = None;
    }
  in
  let node = proc.Sim.Proc.cpu.Sim.Proc.node_id in
  proc.Sim.Proc.on_poll <- (fun _ -> E.service pcb +. Sync.service sync ~node);
  h

let pid h = h.proc.Sim.Proc.pid
let node h = h.proc.Sim.Proc.cpu.Sim.Proc.node_id

let trace_access h ~store addr w v =
  match h.on_access with
  | None -> ()
  | Some f ->
      f
        {
          acc_pid = pid h;
          acc_time = Sim.Engine.now (Mchan.Net.engine (E.net h.peng));
          acc_addr = addr;
          acc_width = w;
          acc_store = store;
          acc_value = v;
        }
let is_shared h addr = addr >= h.shared_lo && addr < h.shared_hi

(* The miss-flag bit pattern for a width, without recomputing the 64-bit
   replication per access. *)
let flag h (w : Alpha.Insn.width) =
  match w with Alpha.Insn.W32 -> h.flag_w32 | Alpha.Insn.W64 -> h.flag_w64

(** [layout h] — the region layout of the shared address space (block
    extents vary by region; consumers must not assume a fixed line). *)
let layout h = E.layout h.peng

(* --- private memory --- *)

let private_read h addr (w : Alpha.Insn.width) =
  match w with
  | Alpha.Insn.W32 -> Int64.of_int32 (Bytes.get_int32_le h.private_mem addr)
  | Alpha.Insn.W64 -> Bytes.get_int64_le h.private_mem addr

let private_write h addr (w : Alpha.Insn.width) v =
  match w with
  | Alpha.Insn.W32 -> Bytes.set_int32_le h.private_mem addr (Int64.to_int32 v)
  | Alpha.Insn.W64 -> Bytes.set_int64_le h.private_mem addr v

(* --- API mode: the inline-check state machine, in function form --- *)

(** [load h addr w] — a checked shared load: raw access, flag comparison,
    protocol slow path on a (possibly false) miss. *)
let load h addr w =
  h.accesses <- h.accesses + 1;
  if not (is_shared h addr) then begin
    charge_cycles h h.cfg.Config.checks.Config.access_cycles;
    private_read h addr w
  end
  else begin
    if h.cfg.Config.checks_enabled then
      charge_cycles h
        (h.cfg.Config.checks.Config.access_cycles + h.cfg.Config.checks.Config.load_check_cycles)
    else charge_cycles h h.cfg.Config.checks.Config.access_cycles;
    let v0 = E.raw_read h.pcb addr w in
    let v =
      if v0 = flag h w then
        in_protocol h (fun () -> E.load_miss h.pcb addr w)
      else v0
    in
    trace_access h ~store:false addr w v;
    v
  end

(** [store h addr w v] — a checked shared store. *)
let store h addr w v =
  h.accesses <- h.accesses + 1;
  if not (is_shared h addr) then begin
    charge_cycles h h.cfg.Config.checks.Config.access_cycles;
    private_write h addr w v
  end
  else begin
    if h.cfg.Config.checks_enabled then
      charge_cycles h
        (h.cfg.Config.checks.Config.access_cycles + h.cfg.Config.checks.Config.store_check_cycles)
    else charge_cycles h h.cfg.Config.checks.Config.access_cycles;
    (match E.private_state h.pcb addr with
    | Protocol.Ptypes.Exclusive -> ()
    | Protocol.Ptypes.Invalid | Protocol.Ptypes.Shared | Protocol.Ptypes.Pending ->
        in_protocol h (fun () -> E.store_miss h.pcb addr));
    E.raw_write h.pcb addr w v;
    trace_access h ~store:true addr w v
  end

(* --- width-specialised 64-bit paths ---

   Behaviourally identical to the generic functions at [W64]; they skip
   the width dispatch, read/write the image without the boxed-width
   detour, and avoid the block lookup on the raw store.  The array-based
   workloads do almost all their shared traffic through these. *)

let load64 h addr =
  h.accesses <- h.accesses + 1;
  if not (is_shared h addr) then begin
    charge_cycles h h.cfg.Config.checks.Config.access_cycles;
    Bytes.get_int64_le h.private_mem addr
  end
  else begin
    charge_cycles h h.c_load;
    let v0 = Protocol.Memimg.read64 h.img addr in
    let v =
      if v0 = h.flag_w64 then in_protocol h (fun () -> E.load_miss h.pcb addr Alpha.Insn.W64)
      else v0
    in
    trace_access h ~store:false addr Alpha.Insn.W64 v;
    v
  end

let store64 h addr v =
  h.accesses <- h.accesses + 1;
  if not (is_shared h addr) then begin
    charge_cycles h h.cfg.Config.checks.Config.access_cycles;
    Bytes.set_int64_le h.private_mem addr v
  end
  else begin
    charge_cycles h h.c_store;
    (match E.private_state h.pcb addr with
    | Protocol.Ptypes.Exclusive -> ()
    | Protocol.Ptypes.Invalid | Protocol.Ptypes.Shared | Protocol.Ptypes.Pending ->
        in_protocol h (fun () -> E.store_miss h.pcb addr));
    E.raw_write64 h.pcb addr v;
    trace_access h ~store:true addr Alpha.Insn.W64 v
  end

let load64_batched h addr =
  h.accesses <- h.accesses + 1;
  charge_cycles h h.c_batched;
  if not (is_shared h addr) then Bytes.get_int64_le h.private_mem addr
  else begin
    let v0 = Protocol.Memimg.read64 h.img addr in
    let v =
      if v0 = h.flag_w64 then in_protocol h (fun () -> E.load_miss h.pcb addr Alpha.Insn.W64)
      else v0
    in
    trace_access h ~store:false addr Alpha.Insn.W64 v;
    v
  end

let store64_batched h addr v =
  h.accesses <- h.accesses + 1;
  charge_cycles h h.c_batched;
  if not (is_shared h addr) then Bytes.set_int64_le h.private_mem addr v
  else begin
    (match E.private_state h.pcb addr with
    | Protocol.Ptypes.Exclusive -> ()
    | Protocol.Ptypes.Invalid | Protocol.Ptypes.Shared | Protocol.Ptypes.Pending ->
        in_protocol h (fun () -> E.store_miss h.pcb addr));
    E.raw_write64 h.pcb addr v;
    trace_access h ~store:true addr Alpha.Insn.W64 v
  end

let load_int h addr = Int64.to_int (load64 h addr)
let store_int h addr v = store64 h addr (Int64.of_int v)
let load_float h addr = Int64.float_of_bits (load64 h addr)
let store_float h addr v = store64 h addr (Int64.bits_of_float v)

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
  if h.cfg.Config.checks_enabled then in_protocol h (fun () -> E.mb h.pcb)
  else if h.pcb.E.n_outstanding_stores > 0 then in_protocol h (fun () -> E.mb h.pcb)

(* The inline part of a batched check: all lines already in the needed
   state in the private table.  Runs without suspension, so the decision
   cannot go stale before the batched code that follows. *)
let batch_fast_path h accesses =
  List.for_all
    (fun (addr, _w, kind) ->
      match E.private_state h.pcb addr with
      | Protocol.Ptypes.Exclusive -> true
      | Protocol.Ptypes.Shared -> kind = Alpha.Insn.Load_acc
      | Protocol.Ptypes.Invalid | Protocol.Ptypes.Pending -> false)
    accesses

(** [batch h accesses] — the combined check for a run of accesses, then
    the accesses themselves.  Like the inserted inline code, the check
    itself is cheap and the protocol is entered only when some line is
    not in the needed state (Section 2.2). *)
let batch h accesses =
  if h.cfg.Config.checks_enabled then
    charge_cycles h (2 + (2 * List.length accesses));
  let shared = List.filter (fun (addr, _, _) -> is_shared h addr) accesses in
  if shared <> [] && not (batch_fast_path h shared) then
    in_protocol h (fun () -> E.batch h.pcb shared)

(* --- MP synchronisation --- *)

let lock h id = in_protocol h (fun () -> Sync.acquire h.sync h.ep id)

(* Release semantics: a lock release or barrier arrival must make every
   outstanding (non-blocking) store globally performed first, exactly as
   the MB in an LL/SC unlock sequence would. *)
let unlock h id =
  in_protocol h (fun () ->
      E.mb h.pcb;
      Sync.release h.sync h.ep id)

let barrier h ~id ~parties =
  in_protocol h (fun () ->
      E.mb h.pcb;
      Sync.barrier h.sync h.ep ~id ~parties)

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

(** [atomic_add h addr delta] — LL/SC fetch-and-add through the full
    transparent path (inline checks, prefetch-free).  Returns the old
    value. *)
let atomic_add h addr delta =
  let rec attempt () =
    charge_cycles h (3 + 2) (* ll_check + ll *);
    in_protocol h (fun () -> E.ll_ensure h.pcb addr);
    let v = E.raw_ll h.pcb addr Alpha.Insn.W64 in
    trace_access h ~store:false addr Alpha.Insn.W64 v;
    let v' = Int64.add v (Int64.of_int delta) in
    charge_cycles h (4 + 2) (* sc_check + sc *);
    let ok =
      match in_protocol h (fun () -> E.sc_check h.pcb addr Alpha.Insn.W64 v') with
      | Alpha.Runtime.Run_in_hardware -> E.raw_sc h.pcb addr Alpha.Insn.W64 v'
      | Alpha.Runtime.Handled ok -> ok
    in
    if ok then begin
      trace_access h ~store:true addr Alpha.Insn.W64 v';
      Int64.to_int v
    end
    else attempt ()
  in
  attempt ()

(** [sm_lock h addr] — acquire a spin lock at shared address [addr] with
    LL/SC, exactly the Figure 1 loop (with the optional prefetch-
    exclusive of Section 3.1.2 controlled by [prefetch]).  Ends with the
    MB of a lock acquire. *)
let sm_lock ?(prefetch = false) h addr =
  as_sync h (fun () ->
      if prefetch then begin
        charge_cycles h 2;
        in_protocol h (fun () -> E.prefetch_excl h.pcb addr)
      end;
      let pause = ref 2.0e-7 in
      let rec try_again () =
        charge_cycles h (3 + 2);
        in_protocol h (fun () -> E.ll_ensure h.pcb addr);
        let v = E.raw_ll h.pcb addr Alpha.Insn.W32 in
        trace_access h ~store:false addr Alpha.Insn.W32 v;
        if v <> 0L then begin
          (* Lock taken: spin, polling (the loop's inserted poll).  The
             pause backs off to bound the simulator's event rate; the
             added wake latency is well under the protocol round trip. *)
          charge_cycles h h.cfg.Config.checks.Config.poll_cycles;
          flush h;
          Sim.Proc.work !pause;
          pause := Float.min (2.0 *. !pause) 2.0e-6;
          try_again ()
        end
        else begin
          charge_cycles h (4 + 2);
          let ok =
            match in_protocol h (fun () -> E.sc_check h.pcb addr Alpha.Insn.W32 1L) with
            | Alpha.Runtime.Run_in_hardware -> E.raw_sc h.pcb addr Alpha.Insn.W32 1L
            | Alpha.Runtime.Handled ok -> ok
          in
          if ok then trace_access h ~store:true addr Alpha.Insn.W32 1L
          else try_again ()
        end
      in
      try_again ();
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
      let my_gen = load h gen_addr Alpha.Insn.W64 in
      let c = atomic_add h addr 1 in
      if c + 1 = parties then begin
        store h addr Alpha.Insn.W64 0L;
        mb h;
        store h gen_addr Alpha.Insn.W64 (Int64.add my_gen 1L);
        mb h
      end
      else begin
        let pause = ref 3.0e-7 in
        let rec spin () =
          if load h gen_addr Alpha.Insn.W64 = my_gen then begin
            charge_cycles h h.cfg.Config.checks.Config.poll_cycles;
            flush h;
            Sim.Proc.work !pause;
            pause := Float.min (2.0 *. !pause) 2.0e-6;
            spin ()
          end
        in
        spin ()
      end)

(* --- blocking (for the OS layer) --- *)

(** [block_for h dt] — the process is blocked (in a syscall or on I/O)
    for [dt] seconds; counted in the "blocked" breakdown category. *)
let block_for h dt =
  flush h;
  h.blocked_time <- h.blocked_time +. dt;
  in_protocol h (fun () -> Sim.Proc.sleep dt)

(** [block_until h pred] — block until [pred] holds (checked when the
    process is explicitly woken). *)
let wakeup h = Sim.Proc.wakeup h.proc

let block h =
  let eng = Mchan.Net.engine (E.net h.peng) in
  let t0 = Sim.Engine.now eng in
  flush h;
  in_protocol h (fun () -> Sim.Proc.block ());
  h.blocked_time <- h.blocked_time +. (Sim.Engine.now eng -. t0)

(* --- measurement --- *)

let breakdown h =
  let st = E.stats h.pcb in
  {
    Breakdown.task = h.proc.Sim.Proc.work_time;
    read = st.E.read_stall;
    write = st.E.write_stall;
    mb = st.E.mb_stall;
    sync = h.ep.Sync.sync_stall;
    blocked = h.blocked_time;
    msg = h.proc.Sim.Proc.msg_time;
  }

let pstats h = E.stats h.pcb

(** Shared loads+stores this process issued in API mode. *)
let accesses h = h.accesses

(* --- IR mode --- *)

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
  {
    Alpha.Runtime.hz = h.cfg.Config.cpu_hz;
    load = dispatch_read;
    store = dispatch_write;
    load_check =
      (fun value addr w ->
        if is_shared h addr && value = flag h w then
          in_protocol h (fun () -> E.load_miss h.pcb addr w)
        else value);
    store_check =
      (fun addr _w ->
        if is_shared h addr then
          match E.private_state h.pcb addr with
          | Protocol.Ptypes.Exclusive -> ()
          | Protocol.Ptypes.Invalid | Protocol.Ptypes.Shared | Protocol.Ptypes.Pending ->
              in_protocol h (fun () -> E.store_miss h.pcb addr));
    batch_check =
      (fun accesses ->
        let shared = List.filter (fun (a, _, _) -> is_shared h a) accesses in
        if shared <> [] && not (batch_fast_path h shared) then
          in_protocol h (fun () -> E.batch h.pcb shared));
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
      (fun addr -> if is_shared h addr then in_protocol h (fun () -> E.ll_ensure h.pcb addr));
    sc_check =
      (fun addr w v ->
        if is_shared h addr then in_protocol h (fun () -> E.sc_check h.pcb addr w v)
        else Alpha.Runtime.Run_in_hardware);
    mb = (fun () -> ());
    mb_check = (fun () -> in_protocol h (fun () -> E.mb h.pcb));
    poll = (fun () -> in_protocol h (fun () -> E.poll h.pcb));
    prefetch_excl =
      (fun addr -> if is_shared h addr then in_protocol h (fun () -> E.prefetch_excl h.pcb addr));
    charge = (fun n -> charge_cycles h n);
    (* MP synchronisation system calls (lock id in a0; barrier id in
       a0, parties in a1) — the IR-mode twin of [lock]/[unlock]/
       [barrier] above, sharing their release/fence semantics. *)
    syscall =
      (fun name regs ->
        let a0 = Int64.to_int regs.(16) and a1 = Int64.to_int regs.(17) in
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
