(** Common harness for the SPLASH-2-style workloads.

    Every application is expressed against this small layer so that it
    can run with either synchronisation flavour of Figure 3:

    - [Mp] — Shasta's message-passing locks and barriers (left graph);
    - [Sm] — the transparent path: binaries compiled for an Alpha
      multiprocessor synchronise through LL/SC and MB instructions
      executed through the inline-check machinery (right graph).

    Applications are scaled-down kernels: the paper's inputs run for
    seconds on 300 MHz hardware, which is out of reach for an
    instruction-cost simulator, so each app exposes a [size] knob and
    per-element compute costs chosen to preserve the published
    computation-to-communication shape. *)

module R = Shasta.Runtime
module C = Shasta.Cluster

type sync_kind = Mp | Sm

type t = {
  cluster : C.t;
  sync : sync_kind;
  nprocs : int;
  home_placement : bool;  (** apply the apps' home placement hints *)
  mutable next_lock_id : int;
  mutable next_barrier_id : int;
  mutable parallel_start : float;
      (** set by the workload once sequential initialisation is done; the
          reported time covers only the parallel phase, as in the paper *)
  timing_mu : Mutex.t;
      (** [start_timing] is called from every process — from different
          lanes in parallel mode, so the max-accumulate is locked *)
}

type lock = Mp_lock of int | Sm_lock of int (* shared address *)
type barrier = Mp_barrier of int | Sm_barrier of int (* shared address *)

let create ?(home_placement = true) cluster ~sync ~nprocs =
  {
    cluster;
    sync;
    nprocs;
    home_placement;
    next_lock_id = 0;
    next_barrier_id = 1000;
    parallel_start = 0.0;
    timing_mu = Mutex.create ();
  }

(** [start_timing t] — called by each process after the initialisation
    barrier; the latest call marks the start of the timed phase. *)
let start_timing t =
  let now = C.now t.cluster in
  Mutex.lock t.timing_mu;
  t.parallel_start <- Float.max t.parallel_start now;
  Mutex.unlock t.timing_mu

let make_lock t =
  match t.sync with
  | Mp ->
      let id = t.next_lock_id in
      t.next_lock_id <- id + 1;
      Mp_lock id
  | Sm -> Sm_lock (C.alloc ~granularity:64 t.cluster 64)

let make_barrier t =
  match t.sync with
  | Mp ->
      let id = t.next_barrier_id in
      t.next_barrier_id <- id + 1;
      Mp_barrier id
  | Sm -> Sm_barrier (C.alloc ~granularity:64 t.cluster 64)

let lock h = function Mp_lock id -> R.lock h id | Sm_lock a -> R.sm_lock h a
let unlock h = function Mp_lock id -> R.unlock h id | Sm_lock a -> R.sm_unlock h a

let barrier t h = function
  | Mp_barrier id -> R.barrier h ~id ~parties:t.nprocs
  | Sm_barrier a -> R.sm_barrier h ~addr:a ~parties:t.nprocs

(* Shared arrays of 8-byte elements. *)

type farray = { base : int }

(** [alloc_farray t ?granularity len] — shared array of [len] 8-byte
    elements.  [granularity] places it in the layout region with the
    closest block size: bulk arrays want coarse blocks (fewer misses on
    streaming scans), contended per-element arrays want fine ones. *)
let alloc_farray ?granularity t len = { base = C.alloc ?granularity t.cluster (8 * len) }

let fget h a i = R.load_float h (a.base + (8 * i))

(** Batched-sequence load: the rewriter would have covered this access
    with a combined check (streaming inner loops). *)
let fget_b h a i = R.load_float_batched h (a.base + (8 * i))

let fset_b h a i v = R.store_float_batched h (a.base + (8 * i)) v
let fset h a i v = R.store_float h (a.base + (8 * i)) v
let iget h a i = R.load_int h (a.base + (8 * i))
let iset h a i v = R.store_int h (a.base + (8 * i)) v

(** [batch_read h a lo hi] — bring elements [lo..hi) of a shared array
    into readable state with batched (overlapping) fetches, the way the
    rewriter batches an inner loop's accesses (Section 2.2).  Issued in
    windows of 16 lines, the practical size of a batched sequence. *)
let batch_read h (a : farray) lo hi =
  let layout = R.layout h in
  let start = a.base + (8 * lo) in
  let stop = a.base + (8 * hi) in
  let rec go addr acc n =
    if addr >= stop then (if acc <> [] then R.batch h (List.rev acc))
    else if n = 16 then begin
      R.batch h (List.rev acc);
      go addr [] 0
    end
    else
      (* Step a whole coherence block at a time: extents vary by region. *)
      let b = Protocol.Layout.block_of_addr layout addr in
      let base = Protocol.Layout.block_base layout b in
      go
        (base + Protocol.Layout.block_len layout b)
        ((base, Alpha.Insn.W64, Alpha.Insn.Load_acc) :: acc)
        (n + 1)
  in
  go start [] 0

(** [place_home t ~addr ~len ~owner] — home the given range at the
    domain of processor [owner] (the paper's home placement optimisation,
    used by FMM, LU-Contiguous and Ocean).  Relies on the node-major
    placement of [run_spec]: processor p of an SMP cluster lives on node
    p / cpus_per_node; under Base-Shasta each process is its own domain
    and pids follow spawn order. *)
let place_home t ~addr ~len ~owner =
  if t.home_placement && len > 0 then begin
    let cfg = t.cluster.C.cfg in
    let domain =
      match cfg.Shasta.Config.protocol.Protocol.Config.variant with
      | Protocol.Config.Smp -> owner / cfg.Shasta.Config.net.Mchan.Net.cpus_per_node
      | Protocol.Config.Base -> owner
    in
    Protocol.Engine.set_home (C.protocol_engine t.cluster) ~addr ~len ~domain
  end

(** [read_valid cluster addr] — the value every domain with a valid copy
    agrees on (post-run validation helper); [None] if copies disagree or
    none is valid. *)
let read_valid cluster addr =
  let values =
    List.filter_map
      (fun h ->
        match Protocol.Engine.block_state h.R.pcb addr with
        | _, (Protocol.Ptypes.Shared | Protocol.Ptypes.Exclusive) ->
            Some (Protocol.Engine.raw_read h.R.pcb addr Alpha.Insn.W64)
        | _, (Protocol.Ptypes.Invalid | Protocol.Ptypes.Pending) -> None)
      (C.runtimes cluster)
  in
  match values with
  | [] -> None
  | v :: rest -> if List.for_all (fun x -> x = v) rest then Some v else None

(** Per-application interface: [make] allocates the shared structures
    and returns the per-process body plus a post-run validator. *)
type spec = {
  name : string;
  paper_seq : float;  (** sequential seconds from Table 3 *)
  paper_overhead : float;  (** checking-overhead fraction from Table 3 *)
  paper_growth : float;  (** code-size growth fraction from Table 3 *)
  default_size : int;
  make : t -> size:int -> (int -> R.t -> unit) * (unit -> bool);
}

(** [start cluster spec ~nprocs ~sync ~size] — instantiate one
    application and spawn its processes without running the cluster, so
    a size the application rejects ([Invalid_argument] from [make]) is
    reported before anything runs.  The returned thunk runs the cluster
    and gives (elapsed seconds, validated). *)
let start ?home_placement cluster spec ~nprocs ~sync ?size () =
  let size = Option.value size ~default:spec.default_size in
  let t = create ?home_placement cluster ~sync ~nprocs in
  let body, validate = spec.make t ~size in
  for p = 0 to nprocs - 1 do
    ignore (C.spawn cluster ~cpu:p (Printf.sprintf "%s%d" spec.name p) (fun h -> body p h))
  done;
  fun () ->
    let total = C.run cluster in
    let elapsed = if t.parallel_start > 0.0 then total -. t.parallel_start else total in
    (elapsed, validate ())

(** [run_spec cluster spec ~nprocs ~sync ~size] — instantiate and run one
    application; returns (elapsed seconds, validated). *)
let run_spec ?home_placement cluster spec ~nprocs ~sync ?size () =
  start ?home_placement cluster spec ~nprocs ~sync ?size () ()

(** Work partitioning helper: the half-open range of [p]'s share of
    [0..n). *)
let chunk ~n ~nprocs p =
  let per = (n + nprocs - 1) / nprocs in
  let lo = p * per in
  let hi = min n (lo + per) in
  (lo, max lo hi)
