(** The cluster OS layer (Section 4).

    The kernel manages a fixed pool of Shasta processes created at
    startup ("the user specifies a fixed number of Shasta processes...
    the maximum number of processes that will ever be alive",
    Section 4.3.3).  Application processes created by [fork] are assigned
    to pool slots; when one exits, its Shasta process remains alive,
    keeps serving protocol requests for its application and directory
    data, and can be reused for a later fork.

    System calls whose arguments reference shared memory are validated
    first: the buffer is treated as a batch of loads/stores and brought
    into the right coherence state before the call proceeds
    (Section 4.1).  [fork] copies the parent's writable private data
    (stack + static) to the child's node over the network (Section 4.2).

    [pid_block]/[pid_unblock]/[kill] are implemented with messages; a
    blocked process is exactly the situation the direct-downgrade
    optimisation (Section 4.3.4) exists for. *)

exception Exit_process of int
exception No_children
exception No_free_slot
exception Bad_fd of int

type ostate = Embryo | Active | In_wait | Pid_blocked | Zombie | Reaped

type fd = { fd_file : Vfs.file; mutable pos : int }

type osproc = {
  ospid : int;
  parent : int;  (** -1 for the initial process *)
  mutable state : ostate;
  mutable exit_status : int;
  mutable children : int list;
  fds : (int, fd) Hashtbl.t;
  mutable next_fd : int;
  mutable slot : int;
  mutable killed : bool;
  mutable unblock_pending : bool;
      (** a [pid_unblock] arrived while the target was not blocked; the
          next [pid_block] consumes it instead of sleeping (condition-
          variable semantics, avoiding lost wakeups) *)
}

type job = { j_ospid : int; j_body : ctx -> unit; j_private : Bytes.t option }

and slot = {
  s_index : int;
  s_cpu : int;
  mutable s_runtime : Shasta.Runtime.t option;
  mutable s_pending : job option;
  mutable s_busy : bool;
}

and ctx = { k : t; os : osproc; h : Shasta.Runtime.t }

and t = {
  cluster : Shasta.Cluster.t;
  vfs : Vfs.t;
  slots : slot array;
  procs : (int, osproc) Hashtbl.t;
  mutable next_ospid : int;
  shm_segs : (int, int * int) Hashtbl.t;  (** segid -> (addr, bytes) *)
  mutable next_seg : int;
  mutable next_slot_rr : int;
  mutable forks : int;
  mutable syscalls : int;
}

let cfg k = k.cluster.Shasta.Cluster.cfg
let net k = k.cluster.Shasta.Cluster.net

let runtime_of_slot slot =
  match slot.s_runtime with
  | Some h -> h
  | None -> invalid_arg "Kernel: slot not booted"

let proc k ospid = Hashtbl.find k.procs ospid

let node_of_slot k slot = (Mchan.Net.nth_cpu (net k) slot.s_cpu).Sim.Proc.node_id

(* The slot loop: wait for an assignment, install the forked private
   image, run the process body, clean up, repeat.  While idle the Shasta
   process keeps servicing incoming messages (its stall polls). *)
let slot_loop k slot (h : Shasta.Runtime.t) =
  slot.s_runtime <- Some h;
  let rec loop () =
    h.Shasta.Runtime.proc.Sim.Proc.yield_waiting <- true;
    Sim.Proc.stall (fun () -> slot.s_pending <> None);
    h.Shasta.Runtime.proc.Sim.Proc.yield_waiting <- false;
    (match slot.s_pending with
    | None -> ()
    | Some job ->
        slot.s_pending <- None;
        slot.s_busy <- true;
        (match job.j_private with
        | Some img ->
            let mem = Shasta.Runtime.private_mem h in
            Bytes.blit img 0 mem 0 (min (Bytes.length img) (Bytes.length mem))
        | None -> ());
        let os = proc k job.j_ospid in
        os.state <- Active;
        let ctx = { k; os; h } in
        let status =
          try
            job.j_body ctx;
            0
          with
          | Exit_process s -> s
          | e ->
              Format.eprintf "osproc %d died: %s@.%s@." os.ospid (Printexc.to_string e)
                (Printexc.get_backtrace ());
              (-1)
        in
        (* Process termination: close descriptors, become a zombie, wake
           a waiting parent.  The Shasta process itself stays alive. *)
        Hashtbl.reset os.fds;
        os.exit_status <- status;
        os.state <- Zombie;
        (match Hashtbl.find_opt k.procs os.parent with
        | Some p when p.state = In_wait ->
            Shasta.Runtime.wakeup (runtime_of_slot k.slots.(p.slot))
        | Some _ | None -> ());
        slot.s_busy <- false);
    loop ()
  in
  loop ()

let spawn_protocol_process cluster ~cpu =
  ignore
    (Shasta.Cluster.spawn ~serve:false ~priority:1 cluster ~cpu
       (Printf.sprintf "protoproc%d" cpu)
       (fun h ->
         h.Shasta.Runtime.proc.Sim.Proc.yield_waiting <- true;
         Sim.Proc.stall (fun () -> false)))

(** [boot cluster ~slot_cpus ()] — create the kernel and its fixed pool
    of Shasta processes, one per entry of [slot_cpus] (a global processor
    index each; several slots may share a processor, which is how
    more-processes-than-processors configurations are built). *)
let boot ?(protocol_processes = true) cluster ~slot_cpus () =
  let k =
    {
      cluster;
      vfs = Vfs.create ();
      slots =
        Array.of_list
          (List.mapi (fun i cpu -> { s_index = i; s_cpu = cpu; s_runtime = None; s_pending = None; s_busy = false }) slot_cpus);
      procs = Hashtbl.create 64;
      next_ospid = 1;
      shm_segs = Hashtbl.create 16;
      next_seg = 1;
      next_slot_rr = 0;
      forks = 0;
      syscalls = 0;
    }
  in
  Array.iter
    (fun slot ->
      ignore
        (Shasta.Cluster.spawn ~serve:false k.cluster ~cpu:slot.s_cpu
           (Printf.sprintf "slot%d" slot.s_index)
           (fun h -> slot_loop k slot h)))
    k.slots;
  (* One low-priority protocol process per processor (Section 4.3.2):
     always available to service incoming messages, preempted the moment
     an application process becomes runnable.  Without them, a node whose
     only application process is blocked cannot serve requests at all. *)
  if protocol_processes then
    for cpu = 0 to Mchan.Net.total_cpus (net k) - 1 do
      spawn_protocol_process cluster ~cpu
    done;
  k

let fresh_ospid k =
  let p = k.next_ospid in
  k.next_ospid <- p + 1;
  p

let make_osproc k ~parent ~slot =
  let ospid = fresh_ospid k in
  let os =
    {
      ospid;
      parent;
      state = Embryo;
      exit_status = 0;
      children = [];
      fds = Hashtbl.create 8;
      next_fd = 3;
      slot;
      killed = false;
      unblock_pending = false;
    }
  in
  Hashtbl.replace k.procs ospid os;
  (match Hashtbl.find_opt k.procs parent with
  | Some p -> p.children <- ospid :: p.children
  | None -> ());
  os

let pick_slot k ~cpu_hint =
  let n = Array.length k.slots in
  let free s = (not s.s_busy) && s.s_pending = None in
  let by_hint =
    match cpu_hint with
    | Some cpu -> Array.to_list k.slots |> List.find_opt (fun s -> s.s_cpu = cpu && free s)
    | None -> None
  in
  match by_hint with
  | Some s -> s
  | None ->
      let rec scan i tried =
        if tried >= n then raise No_free_slot
        else
          let s = k.slots.(i mod n) in
          if free s then begin
            k.next_slot_rr <- i + 1;
            s
          end
          else scan (i + 1) (tried + 1)
      in
      scan k.next_slot_rr 0

let assign k slot job =
  slot.s_pending <- Some job;
  (match slot.s_runtime with
  | Some h -> Sim.Signal.pulse (Mchan.Net.node_signal (net k) (Shasta.Runtime.node h))
  | None -> ())

(** [start k ?cpu_hint body] — launch a root process (no parent);
    usable before or during the run. *)
let start k ?cpu_hint body =
  let slot = pick_slot k ~cpu_hint in
  let os = make_osproc k ~parent:(-1) ~slot:slot.s_index in
  assign k slot { j_ospid = os.ospid; j_body = body; j_private = None };
  os.ospid

(* --- system calls (called from process bodies, fiber context) --- *)

(* Simulated CPU time, in seconds, charged for a system call's kernel
   entry, and for a fork's process creation on top of it. *)
let syscall_entry_cost = 4.0e-6
let fork_cpu_cost = 80.0e-6

let syscall_enter ctx =
  ctx.k.syscalls <- ctx.k.syscalls + 1;
  Shasta.Runtime.work ctx.h syscall_entry_cost

let getpid ctx = ctx.os.ospid

(** [fork ctx ?cpu_hint body] — create a child process running [body].
    The child may land on any node; the parent's writable private data
    is copied over the network (our remote fork does not duplicate open
    files or signal state — the same limitation the paper notes). *)
let fork ctx ?cpu_hint body =
  syscall_enter ctx;
  ctx.k.forks <- ctx.k.forks + 1;
  Shasta.Runtime.work ctx.h fork_cpu_cost;
  let slot = pick_slot ctx.k ~cpu_hint in
  let os = make_osproc ctx.k ~parent:ctx.os.ospid ~slot:slot.s_index in
  let image = Bytes.copy (Shasta.Runtime.private_mem ctx.h) in
  let job = { j_ospid = os.ospid; j_body = body; j_private = Some image } in
  let src = Shasta.Runtime.node ctx.h in
  let dst = node_of_slot ctx.k slot in
  Mchan.Net.send (net ctx.k) ~src_node:src ~dst_node:dst ~size:(Bytes.length image) (fun () ->
      assign ctx.k slot job);
  os.ospid

(** [wait ctx] — wait for any child to exit; returns [(ospid, status)]. *)
let rec wait ctx =
  syscall_enter ctx;
  let zombie =
    List.find_opt
      (fun c ->
        match Hashtbl.find_opt ctx.k.procs c with
        | Some p -> p.state = Zombie
        | None -> false)
      ctx.os.children
  in
  match zombie with
  | Some c ->
      let p = proc ctx.k c in
      p.state <- Reaped;
      ctx.os.children <- List.filter (fun x -> x <> c) ctx.os.children;
      (c, p.exit_status)
  | None ->
      let live =
        List.exists
          (fun c ->
            match Hashtbl.find_opt ctx.k.procs c with
            | Some p -> p.state <> Reaped
            | None -> false)
          ctx.os.children
      in
      if not live then raise No_children;
      ctx.os.state <- In_wait;
      Shasta.Runtime.block ctx.h;
      ctx.os.state <- Active;
      wait ctx

(** [pid_block ctx] — block until another process issues [pid_unblock];
    the typical Oracle daemon wait.  Returns [true] if woken by a kill. *)
let pid_block ctx =
  syscall_enter ctx;
  if ctx.os.unblock_pending then ctx.os.unblock_pending <- false
  else begin
    ctx.os.state <- Pid_blocked;
    Shasta.Runtime.block ctx.h;
    ctx.os.state <- Active
  end;
  ctx.os.killed

(** [pid_unblock ctx target] — wake a pid-blocked process (a message to
    its node, as in Section 4.2). *)
let pid_unblock ctx target =
  syscall_enter ctx;
  match Hashtbl.find_opt ctx.k.procs target with
  | None -> ()
  | Some p ->
      let slot = ctx.k.slots.(p.slot) in
      let dst = node_of_slot ctx.k slot in
      Mchan.Net.send (net ctx.k) ~src_node:(Shasta.Runtime.node ctx.h) ~dst_node:dst ~size:32
        (fun () ->
          if p.state = Pid_blocked then Shasta.Runtime.wakeup (runtime_of_slot slot)
          else p.unblock_pending <- true)

(** [kill ctx target] — deliver a terminating signal: sets the target's
    killed flag and wakes it if blocked (cooperative termination). *)
let kill ctx target =
  syscall_enter ctx;
  match Hashtbl.find_opt ctx.k.procs target with
  | None -> ()
  | Some p ->
      let slot = ctx.k.slots.(p.slot) in
      let dst = node_of_slot ctx.k slot in
      Mchan.Net.send (net ctx.k) ~src_node:(Shasta.Runtime.node ctx.h) ~dst_node:dst ~size:32
        (fun () ->
          p.killed <- true;
          if p.state = Pid_blocked || p.state = In_wait then
            Shasta.Runtime.wakeup (runtime_of_slot slot))

(* --- shared memory segments (Section 4.2) --- *)

(** [shmget ctx ?granularity bytes] — create a segment in the Shasta
    shared region; [granularity] hints the coherence block size the
    segment wants (see {!Shasta.Cluster.alloc}). *)
let shmget ?granularity ctx bytes =
  syscall_enter ctx;
  let addr = Shasta.Cluster.alloc ?granularity ctx.k.cluster bytes in
  let id = ctx.k.next_seg in
  ctx.k.next_seg <- id + 1;
  Hashtbl.replace ctx.k.shm_segs id (addr, bytes);
  id

(** [shmat ctx segid] — attach: returns the segment's address.  Attaching
    at a caller-chosen address is unsupported, as in the paper. *)
let shmat ctx segid =
  syscall_enter ctx;
  match Hashtbl.find_opt ctx.k.shm_segs segid with
  | Some (addr, _) -> addr
  | None -> invalid_arg "shmat: unknown segment"

(* --- file system calls with argument validation (Section 4.1) --- *)

(* Treat the buffer as a batch of per-line accesses and bring every line
   into the needed state before the kernel touches it.  Validation is a
   protocol routine, not inline code: it walks the ranges in software,
   which is the measurable per-line overhead of Table 2 (about 0.15 us a
   line in Base-Shasta; more under SMP-Shasta, whose shared protocol
   structures need locking). *)
let validate_line_cost_base = 0.14e-6
let validate_line_cost_smp = 0.55e-6

let validate ctx ~addr ~len ~(kind : Alpha.Insn.access_kind) =
  if
    len > 0
    && (cfg ctx.k).Shasta.Config.checks_enabled
    && Shasta.Runtime.is_shared ctx.h addr
  then begin
    let pcfg = (cfg ctx.k).Shasta.Config.protocol in
    let layout = Shasta.Runtime.layout ctx.h in
    (* One check per coherence block the buffer overlaps: block extents
       vary by region, so walk the layout rather than a fixed stride. *)
    let es =
      List.map
        (fun b -> (Protocol.Layout.block_base layout b, Alpha.Insn.W32, kind))
        (Protocol.Layout.blocks_of_range layout ~addr ~len)
    in
    let per_line =
      match pcfg.Protocol.Config.variant with
      | Protocol.Config.Base -> validate_line_cost_base
      | Protocol.Config.Smp -> validate_line_cost_smp
    in
    Shasta.Runtime.work ctx.h (float_of_int (List.length es) *. per_line);
    Shasta.Runtime.batch ctx.h es
  end

let fresh_fd ctx file =
  let n = ctx.os.next_fd in
  ctx.os.next_fd <- n + 1;
  Hashtbl.replace ctx.os.fds n { fd_file = file; pos = 0 };
  n

let fd_state ctx fd =
  match Hashtbl.find_opt ctx.os.fds fd with Some s -> s | None -> raise (Bad_fd fd)

(** [open_file ctx path] — open (creating if needed). *)
let open_file ctx path =
  syscall_enter ctx;
  Shasta.Runtime.work ctx.h ctx.k.vfs.Vfs.open_cost;
  let f = Vfs.create_file ctx.k.vfs path in
  fresh_fd ctx f

(** [read ctx fd ~buf ~len] — read into simulated memory at [buf].  A
    shared-memory buffer is validated (fetched exclusive) first. *)
let read ctx fd ~buf ~len =
  syscall_enter ctx;
  let st = fd_state ctx fd in
  validate ctx ~addr:buf ~len ~kind:Alpha.Insn.Store_acc;
  let vfs = ctx.k.vfs in
  let cold =
    Vfs.touch_cache vfs ~node:(Shasta.Runtime.node ctx.h)
      ~now:(Shasta.Cluster.now ctx.k.cluster) st.fd_file
  in
  Shasta.Runtime.work ctx.h (Vfs.read_cost vfs len +. if cold then vfs.Vfs.disk_cost else 0.0);
  let tmp = Bytes.create len in
  let n = Vfs.pread st.fd_file ~pos:st.pos ~len tmp 0 in
  st.pos <- st.pos + n;
  if n > 0 then begin
    if Shasta.Runtime.is_shared ctx.h buf then
      Protocol.Engine.raw_blit_in ctx.h.Shasta.Runtime.pcb ~addr:buf tmp 0 n
    else Bytes.blit tmp 0 (Shasta.Runtime.private_mem ctx.h) buf n
  end;
  n

(** [write ctx fd ~buf ~len] — write from simulated memory at [buf]. *)
let write ctx fd ~buf ~len =
  syscall_enter ctx;
  let st = fd_state ctx fd in
  validate ctx ~addr:buf ~len ~kind:Alpha.Insn.Load_acc;
  let vfs = ctx.k.vfs in
  Shasta.Runtime.work ctx.h (Vfs.write_cost vfs len);
  let tmp = Bytes.create len in
  if Shasta.Runtime.is_shared ctx.h buf then
    Protocol.Engine.raw_blit_out ctx.h.Shasta.Runtime.pcb ~addr:buf ~len tmp 0
  else Bytes.blit (Shasta.Runtime.private_mem ctx.h) buf tmp 0 len;
  Vfs.pwrite vfs st.fd_file ~pos:st.pos tmp 0 len;
  st.pos <- st.pos + len;
  len

let lseek ctx fd pos =
  let st = fd_state ctx fd in
  st.pos <- pos

let close ctx fd =
  syscall_enter ctx;
  Hashtbl.remove ctx.os.fds fd
