(** Protocol configuration: geometry, variant, consistency model and
    the software cost model. *)

(** Base-Shasta keeps a private copy of shared memory per process and
    exchanges messages even between processes of one node; SMP-Shasta
    (Section 2.3) lets processes of a node share memory through the
    hardware, with private state tables kept consistent by selective
    downgrade messages. *)
type variant = Base | Smp

(** Consistency model implemented by the protocol (Section 3.2.3):
    [Rc] — Alpha-style relaxed model, stores are non-blocking and MBs
    drain them; [Sc] — sequential consistency, every store miss stalls
    until all invalidation acknowledgements are in. *)
type model = Rc | Sc

(** Software protocol occupancy costs (seconds); the wire costs live in
    {!Mchan.Net.config}.  Defaults are calibrated so that the latency
    microbenchmarks land near Section 6.1/6.2: ~20 us to fetch a 64-byte
    block two hops away, 0.32/1.68 us for a Base/SMP memory barrier. *)
type costs = {
  miss_entry : float;  (** requester: enter protocol, allocate miss entry *)
  send : float;  (** build + inject one message (user-level) *)
  handler : float;  (** service one incoming request at the home *)
  reply_process : float;  (** requester: integrate a reply *)
  inval_apply : float;  (** write flag values, update tables *)
  downgrade_apply : float;  (** private-state-table downgrade *)
  intra_node_hit : float;  (** protocol entry resolved from the node's shared table *)
  mb_base : float;  (** memory-barrier protocol check, Base-Shasta *)
  mb_smp : float;  (** memory-barrier protocol check, SMP-Shasta *)
  lock_acquire_queue : float;  (** message-passing lock bookkeeping *)
}

let default_costs =
  {
    miss_entry = 1.5e-6;
    send = 0.5e-6;
    handler = 2.5e-6;
    reply_process = 1.5e-6;
    inval_apply = 0.8e-6;
    downgrade_apply = 0.8e-6;
    intra_node_hit = 0.9e-6;
    mb_base = 0.32e-6;
    mb_smp = 1.68e-6;
    lock_acquire_queue = 1.0e-6;
  }

(** Home-reassignment policy for the sharded directory.  [Static] keeps
    every block at the home chosen at [init] (the paper's protocol, and
    the bit-identical default).  [Migratory] moves a block's directory
    entry to a domain that has issued [migration_threshold] consecutive
    exclusive requests — the owner-predicts-next pattern, so recalls for
    migrating data collapse from 4 network hops to an intra-domain round
    trip.  An entry moves only while it is quiescent (no transaction in
    flight, no deferred requests); requests racing the move are bounced
    back with a forwarding hint. *)
type homing = Static | Migratory

type t = {
  variant : variant;
  model : model;
  line_size : int;  (** bytes; typically 64 or 128 (Section 2.1) *)
  regions : Layout.region_spec list;
      (** variable-granularity regions; [[]] = one uniform region of
          [line_size] blocks covering the whole shared segment *)
  shared_base : int;
  shared_size : int;
  costs : costs;
  direct_downgrade : bool;  (** Section 4.3.4 optimisation *)
  check_invariants : bool;
      (** cross-check directory vs state tables after every message *)
  homing : homing;  (** dynamic home-reassignment policy *)
  migration_threshold : int;
      (** [Migratory]: consecutive exclusive requests from one remote
          domain before the home follows it *)
}

let default =
  {
    variant = Smp;
    model = Rc;
    line_size = 64;
    regions = [];
    shared_base = 0x4000_0000;
    shared_size = 8 * 1024 * 1024;
    costs = default_costs;
    direct_downgrade = true;
    check_invariants = false;
    homing = Static;
    migration_threshold = 3;
  }

(** [layout t] places the region list in the shared segment; an empty
    [regions] is one uniform region at [line_size]. *)
let layout t =
  match t.regions with
  | [] -> Layout.uniform ~base:t.shared_base ~size:t.shared_size ~block:t.line_size ()
  | specs -> Layout.create ~base:t.shared_base ~size:t.shared_size specs

(** [flag_value w] — what a load of width [w] returns from a word
    holding the invalid flag {!Memimg.flag32}: the 32-bit flag
    sign-extended, or the flag in both halves of a 64-bit word. *)
let flag_value (w : Alpha.Insn.width) =
  match w with
  | Alpha.Insn.W32 -> Int64.of_int32 Memimg.flag32
  | Alpha.Insn.W64 ->
      let lo = Int64.logand (Int64.of_int32 Memimg.flag32) 0xFFFFFFFFL in
      Int64.logor (Int64.shift_left lo 32) lo

let mb_cost t =
  match t.variant with Base -> t.costs.mb_base | Smp -> t.costs.mb_smp
