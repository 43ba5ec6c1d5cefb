(** The Shasta coherence protocol's state and its transitions.

    One {!t} holds the protocol state of a whole cluster.  Processes are
    grouped into {e coherence domains}: one per process in Base-Shasta,
    one per SMP node in SMP-Shasta.  The protocol is a home-serialised
    directory invalidation protocol:

    - all directory state changes for a block happen at its home domain,
      which defers conflicting requests while a transaction is in flight
      (this serialises writes to the same location);
    - invalidation acknowledgements are collected at the home before the
      grant is sent, so the [Sc] configuration gives sequential
      consistency by construction and [Rc] simply allows stores to be
      outstanding past the inline check;
    - dirty blocks are recalled through the home (a 4-hop transfer where
      the original Shasta forwards in 3; the constant is absorbed in the
      cost calibration and noted in DESIGN.md).

    Each step applies one message, or one fiber-side request, at one
    domain: it updates the state and appends, in order, its handler costs
    and its outgoing [(destination, message)] pairs to that domain's
    [outbox].  Time
    and the network are not modelled here: {!Engine} drains the outbox,
    charging each cost and sending each message at its running cursor.

    Nothing here is sized by the segment.  A block's static home is a
    rule ({!Homes}): its last {!set_home} override, else the stripe
    [init] fixes; blocks that migration moved sit in a sparse table.
    The per-block state tables grow with the blocks a run writes, and a
    byte past a table's end reads as [init] leaves it (see
    {!shared_state}), so [create], [attach] and [init] cost the same at
    64 KB and at 64 MB. *)

type miss_kind = MRead | MStore | MSc | MPrefetch

(** Deliberately seeded protocol bugs, consumed by the mutation harness
    in [lib/check] to prove the invariant checker actually fails.  Each
    one disables a step the protocol needs for coherence; an engine runs
    the correct protocol unless {!seed_mutation} plants one. *)
type mutation =
  | Skip_invalidate  (** acknowledge an invalidation without applying it *)
  | Skip_inval_ack  (** apply an invalidation but never acknowledge it *)
  | Keep_private_on_recall
      (** leave members' private state tables untouched by a recall *)
  | Skip_one_invalidation
      (** the home forgets the first sharer when collecting invalidations *)
  | Wrong_block_extent
      (** an invalidation writes flag words one chunk past its block *)

type miss = {
  m_kind : miss_kind;
  m_req : Ptypes.req_kind;
      (** the request kind on the wire, re-sent verbatim when a bounce
          (a [Home_hint]) reveals the request went to a stale home *)
  mutable m_done : bool;
  mutable m_store : (int * Alpha.Insn.width * int64) option;
      (** [(addr, w, v)]: the store this miss carries, an SC's or an [Sc]
          store's, until {!handle} performs it with the exclusive grant *)
  mutable m_stores : (int * int * Alpha.Insn.width * int64) list;
      (** [(stamp, addr, w, v)]: stores recorded while the miss was
          outstanding, replayed over arriving data in stamp order
          (non-blocking stores, Section 3.2.3) *)
}

type pstats = {
  mutable read_misses : int;
  mutable store_misses : int;
  mutable sc_misses : int;
  mutable prefetch_misses : int;
  mutable intra_hits : int;
  mutable false_misses : int;
  mutable downgrades_direct : int;
  mutable downgrades_msg : int;
  mutable read_stall : float;
  mutable write_stall : float;
  mutable mb_stall : float;
  mutable messages_handled : int;
  mutable reissued_stores : int;
  mutable bounces : int;
      (** requests re-issued after a [Home_hint] (the home had moved) *)
}

(** Where an outgoing message goes. *)
type dest =
  | To_domain of int  (** a domain's mailbox *)
  | To_pid of int  (** a process's own mailbox *)
  | To_nic of int
      (** a domain's network interface: transfer traffic, applied on
          arrival by {!apply_transport} *)
  | Self of int
      (** a domain's own mailbox, without crossing the network: the
          home's self-invalidation, ordered behind pending local replies *)

(** One outbox entry: a handler cost in seconds, or a message to send
    once every cost before it has been paid. *)
type out = Cost of float | Send of dest * Ptypes.msg

(** Per-process protocol state. *)
type proc = {
  pid : int;
  app : bool;
      (** an application process, not a protocol server: only domains
          with one are default homes *)
  dom : domain;
  mutable private_tab : Bytes.t;
      (** one byte per block, grown with use: see {!private_state} *)
  outstanding : miss Ptypes.Itbl.t;
  mutable n_outstanding_stores : int;
  in_app : bool ref;  (** false while in protocol/syscalls: enables direct downgrade *)
  mutable in_batch : bool;
  mutable batch_blocks : int list;
  mutable deferred_flags : int list;  (** blocks whose flag writes are delayed (Section 4.1) *)
  mutable watch_blocks : int list;  (** post-batch store-reissue watch *)
  mutable reissue : (int * Alpha.Insn.width * int64) list;  (** (addr, w, v) to re-issue *)
  mutable last_ll : int;  (** block of the last LL whose line was exclusive, or -1 *)
  parked : Ptypes.msg list ref;
      (** replies that arrived ahead of their per-block sequence order *)
  stats : pstats;
}

and domain = {
  dom_id : int;
  dom_node : int;
  img : Memimg.t;
  mutable shared_tab : Bytes.t;
      (** node-level state, one byte per block, grown with use: see
          {!shared_state} *)
  mutable members : proc list;
  dir : Directory.t;
  pending_local : local_txn Ptypes.Itbl.t;
      (** recalls waiting for intra-node private-table downgrades *)
  applied_seq : int Ptypes.Itbl.t;
      (** per block: how many home-originated ordered messages were applied *)
  parked_dom : Ptypes.msg list ref;
      (** invalidations/recalls that arrived ahead of sequence order *)
  mutable n_parked : int;  (** messages in [parked_dom] and every member's [parked] *)
  mutable stores_recorded : int;
      (** stamps the members' recorded stores, so a replay keeps their order *)
  home_hint : int Ptypes.Itbl.t;
      (** this domain's (possibly stale) view of migrated homes: blocks
          absent from the table are assumed to live at their static home.
          Updated by [Home_hint] bounces and by the domain's own
          transfers; never consulted when [Config.homing = Static]. *)
  mutable homes_in : int;  (** directory entries this domain received *)
  mutable homes_out : int;  (** directory entries this domain gave away *)
  mutable dom_bounces : int;  (** hints received after requests hit a stale home *)
  outbox : out Queue.t;
      (** the costs and messages of the step just taken here, in order;
          per domain, so parallel lanes never share one *)
}

and local_txn = { mutable lt_awaiting : int; lt_to_shared : bool; lt_home : int (** recaller *) }

and rstat = {
  mutable r_read_misses : int;
  mutable r_store_misses : int;
  mutable r_sc_misses : int;
  mutable r_prefetch_misses : int;
  mutable r_invals : int;
  mutable r_recalls : int;
  mutable r_data_bytes : int;  (** payload bytes moved in data replies/writebacks *)
}

and transfer = { tr_from : int; tr_to : int }

and t = {
  cfg : Config.t;
  layout : Layout.t;  (** region layout; all state tables are per block *)
  mutable domains : domain list;  (** most-recent first; use [domain_by_id] *)
  domain_tbl : domain Ptypes.Ids.t;
  procs : proc Ptypes.Ids.t;
  homes : Homes.t;
      (** where each block starts: the {!set_home} overrides, else the
          stripe [init] fixes; shared with every image *)
  moved : int Ptypes.Itbl.t;
      (** blocks whose home migration moved, at their current home —
          with [homes], the authoritative sharded directory map.
          Updated the moment a transfer is initiated (the entry may
          still be in flight: [transfers] says so).  Domains route by
          their own hints, not by this table — only arrival-side checks
          may consult it. *)
  transfers : transfer Ptypes.Itbl.t;
      (** blocks whose directory entry currently lives in the transport *)
  rstats : rstat array array;
      (** per-region protocol traffic counters, sharded by the node that
          records the event ([rstats.(node).(region)]) so parallel lanes
          never share a counter; [Engine.region_stats] sums the shards *)
  mutable migrations : int;  (** home transfers completed *)
  mutable transfer_acks : int;  (** transfer acks received by old homes *)
  mutable bounces : int;  (** requests bounced off a stale or in-flight home *)
  mutable initialized : bool;
  mutable mutation : mutation option;  (** seeded protocol bug, [None] = correct *)
  mutable mutation_fires : int;  (** times the seeded bug was exercised *)
  mutable invariant_checks : int;  (** per-message invariant sweeps run *)
  mutable legal_transients : int;
      (** times the checker observed (and exempted) the documented legal
          transient: a directory owner holding S/I while its exclusive
          grant is still in flight *)
}

(* --- state table helpers --- *)

let st_char = function
  | Ptypes.Invalid -> 'I'
  | Ptypes.Shared -> 'S'
  | Ptypes.Exclusive -> 'E'
  | Ptypes.Pending -> 'P'

let st_of_char = function
  | 'I' -> Ptypes.Invalid
  | 'S' -> Ptypes.Shared
  | 'E' -> Ptypes.Exclusive
  | 'P' -> Ptypes.Pending
  | c -> invalid_arg (Printf.sprintf "bad state char %c" c)

(* The state tables hold only the blocks a run has touched: each grows,
   by doubling, up to the highest block written, never past the layout.
   A byte beyond a table's end reads as [init] leaves it: Shared at the
   block's static home once the homes are placed, Invalid elsewhere and
   in every private table. *)

let grown tab ~b ~n_blocks =
  let len = Bytes.length tab in
  let fresh = Bytes.make (min n_blocks (max (b + 1) (2 * len))) 'I' in
  Bytes.blit tab 0 fresh 0 len;
  fresh

(* Mark Shared the blocks [lo..hi-1] of [d]'s table that [init] places
   at [d]. *)
let place_shared d ~lo ~hi =
  let homes = d.img.Memimg.homes in
  if Homes.placed homes then
    Homes.iter_homed homes ~dom:d.dom_id ~lo ~hi (fun b ->
        Bytes.set d.shared_tab b (st_char Ptypes.Shared))

(** [shared_state d b] — domain [d]'s state for block [b]. *)
let shared_state d b =
  if b < Bytes.length d.shared_tab then st_of_char (Bytes.get d.shared_tab b)
  else if Homes.placed d.img.Memimg.homes && Homes.static_home d.img.Memimg.homes b = d.dom_id
  then Ptypes.Shared
  else Ptypes.Invalid

let set_shared d b s =
  let len = Bytes.length d.shared_tab in
  if b >= len then begin
    d.shared_tab <- grown d.shared_tab ~b ~n_blocks:(Layout.n_blocks d.img.Memimg.layout);
    place_shared d ~lo:len ~hi:(Bytes.length d.shared_tab)
  end;
  Bytes.set d.shared_tab b (st_char s)

(** [private_state p b] — process [p]'s private state for block [b]. *)
let private_state p b =
  if b < Bytes.length p.private_tab then st_of_char (Bytes.get p.private_tab b)
  else Ptypes.Invalid

let set_private p b s =
  if b >= Bytes.length p.private_tab then
    p.private_tab <- grown p.private_tab ~b ~n_blocks:(Layout.n_blocks p.dom.img.Memimg.layout);
  Bytes.set p.private_tab b (st_char s)

let cost d c = Queue.add (Cost c) d.outbox
let send d dst msg = Queue.add (Send (dst, msg)) d.outbox

(* Per-(block, domain) ordering of home-originated messages: those that
   change a domain's state for a block carry a sequence number from 1;
   the rest read 0.  Transfer traffic is applied at the network
   interface, not through a domain's ordered mailbox; its own ordering
   is the transfer protocol. *)
let msg_seq = function
  | Ptypes.Data_reply { seq; _ }
  | Ptypes.Ack_exclusive { seq; _ }
  | Ptypes.Sc_result { seq; _ }
  | Ptypes.Invalidate { seq; _ }
  | Ptypes.Recall { seq; _ } ->
      seq
  | _ -> 0

let seq_expected d b = 1 + Option.value (Ptypes.Itbl.find_opt d.applied_seq b) ~default:0

let in_seq_order d msg =
  let s = msg_seq msg in
  s = 0 || s = seq_expected d (Ptypes.msg_block msg)

let consume_seq d msg =
  if msg_seq msg > 0 then
    let b = Ptypes.msg_block msg in
    Ptypes.Itbl.replace d.applied_seq b (seq_expected d b)

let zero_rstat _ =
  {
    r_read_misses = 0;
    r_store_misses = 0;
    r_sc_misses = 0;
    r_prefetch_misses = 0;
    r_invals = 0;
    r_recalls = 0;
    r_data_bytes = 0;
  }

let fresh_domain t ~node ~id =
  let d =
    {
      dom_id = id;
      dom_node = node;
      img = Memimg.create ~layout:t.layout ~homes:t.homes ~dom:id;
      shared_tab = Bytes.empty;
      members = [];
      dir = Directory.create ~home_domain:id;
      pending_local = Ptypes.Itbl.create 16;
      applied_seq = Ptypes.Itbl.create 64;
      parked_dom = ref [];
      n_parked = 0;
      stores_recorded = 0;
      home_hint = Ptypes.Itbl.create 16;
      homes_in = 0;
      homes_out = 0;
      dom_bounces = 0;
      outbox = Queue.create ();
    }
  in
  t.domains <- d :: t.domains;
  Ptypes.Ids.replace t.domain_tbl id d;
  d

(** [create ~cfg ~nodes] — the protocol state for a cluster of [nodes]
    nodes; SMP-Shasta's per-node domains are created here, Base-Shasta's
    per-process ones by {!attach}. *)
let create ~cfg ~nodes =
  let layout = Config.layout cfg in
  let t =
    {
      cfg;
      layout;
      domains = [];
      domain_tbl = Ptypes.Ids.create ();
      procs = Ptypes.Ids.create ();
      homes = Homes.create ();
      moved = Ptypes.Itbl.create 16;
      transfers = Ptypes.Itbl.create 16;
      migrations = 0;
      transfer_acks = 0;
      bounces = 0;
      rstats = Array.init nodes (fun _ -> Array.init (Layout.n_regions layout) zero_rstat);
      initialized = false;
      mutation = None;
      mutation_fires = 0;
      invariant_checks = 0;
      legal_transients = 0;
    }
  in
  (match cfg.Config.variant with
  | Config.Smp ->
      (* One domain per node, eagerly. *)
      for node = 0 to nodes - 1 do
        ignore (fresh_domain t ~node ~id:node)
      done
  | Config.Base -> ());
  t

let domain_by_id t id = Ptypes.Ids.find t.domain_tbl id

(** [attach t ~pid ~node ~app] registers process [pid] on [node]: in
    Base-Shasta it gets a coherence domain of its own, in SMP-Shasta it
    joins its node's domain.  Must precede [init], which lays out the
    images. *)
let attach t ~pid ~node ~app =
  if t.initialized then invalid_arg "attach after init";
  let dom =
    match t.cfg.Config.variant with
    | Config.Smp -> domain_by_id t node
    | Config.Base -> fresh_domain t ~node ~id:pid
  in
  let p =
    {
      pid;
      app;
      dom;
      private_tab = Bytes.empty;
      outstanding = Ptypes.Itbl.create 8;
      n_outstanding_stores = 0;
      in_app = ref true;
      in_batch = false;
      batch_blocks = [];
      deferred_flags = [];
      watch_blocks = [];
      reissue = [];
      last_ll = -1;
      parked = ref [];
      stats =
        {
          read_misses = 0;
          store_misses = 0;
          sc_misses = 0;
          prefetch_misses = 0;
          intra_hits = 0;
          false_misses = 0;
          downgrades_direct = 0;
          downgrades_msg = 0;
          read_stall = 0.0;
          write_stall = 0.0;
          mb_stall = 0.0;
          messages_handled = 0;
          reissued_stores = 0;
          bounces = 0;
        };
    }
  in
  dom.members <- p :: dom.members;
  Ptypes.Ids.replace t.procs pid p;
  p

let block_of_addr t addr = Layout.block_of_addr t.layout addr

(** [home_domain_of_block t b] — the block's current home: where its
    directory entry lives, or (if a transfer is in flight) where it will
    land.  Authoritative — an omniscient view only arrival-side checks
    and the invariant checker may use; request routing goes through each
    domain's own {!hinted_home}. *)
let home_domain_of_block t b =
  (* [moved] is empty unless homes migrate: skip hashing then. *)
  if Ptypes.Itbl.length t.moved = 0 then Homes.static_home t.homes b
  else
    match Ptypes.Itbl.find_opt t.moved b with
    | Some h -> h
    | None -> Homes.static_home t.homes b

(* A domain's own view of the home map: its sparse hint table over the
   static placement.  May be stale — a request routed here can bounce. *)
let hinted_home t d b =
  match Ptypes.Itbl.find_opt d.home_hint b with
  | Some h -> h
  | None -> Homes.static_home t.homes b

(** [set_home t ~addr ~len ~domain] — the "home placement optimisation"
    used for FMM, LU-Contiguous and Ocean (Section 6.4): blocks in
    [\[addr, addr+len)] are homed at [domain], typically the domain of
    the processor that predominantly writes them.  Must precede [init];
    later ranges overwrite earlier overlapping ones. *)
let set_home t ~addr ~len ~domain =
  if t.initialized then invalid_arg "set_home after init";
  if domain < 0 || domain >= Directory.max_domains then
    invalid_arg (Printf.sprintf "set_home: domain %d outside 0..%d" domain (Directory.max_domains - 1));
  if len > 0 then
    Homes.set t.homes
      ~first:(Layout.block_of_addr t.layout addr)
      ~last:(Layout.block_of_addr t.layout (addr + len - 1))
      ~domain

(** [seed_mutation t m] plants the seeded bug [m], for the mutation
    harness.  Must precede [init]. *)
let seed_mutation t m =
  if t.initialized then invalid_arg "seed_mutation after init";
  t.mutation <- Some m

(** [init ?homes t] finalises setup: picks the home domains (default:
    every domain) and places every block's home, which holds it Shared.
    The images hold nothing yet: each grows on first touch, flagged
    except for zeros at the block's home (see {!Memimg}). *)
let init ?homes t =
  if t.initialized then invalid_arg "Engine.init: already initialized";
  t.initialized <- true;
  let domains = List.rev t.domains in
  let stripe =
    match homes with
    | Some hs -> Array.of_list hs
    | None ->
        (* Only domains with attached application processes can serve
           directory requests; protocol processes exist to service
           *other* domains' traffic and, in Base-Shasta, have no
           application process in their own domain at all. *)
        let inhabited = List.filter (fun d -> List.exists (fun m -> m.app) d.members) domains in
        let candidates =
          if inhabited <> [] then inhabited
          else List.filter (fun d -> d.members <> []) domains
        in
        let candidates = if candidates = [] then domains else candidates in
        Array.of_list (List.map (fun d -> d.dom_id) candidates)
  in
  let n = Array.length stripe in
  if n = 0 then invalid_arg "Engine.init: no home domains";
  (* Domains by id, so placing a block costs an array read. *)
  let by_id = Array.make (1 + List.fold_left (fun m d -> max m d.dom_id) (-1) domains) None in
  List.iter (fun d -> by_id.(d.dom_id) <- Some d) domains;
  let find id = if id >= 0 && id < Array.length by_id then by_id.(id) else None in
  Array.iter
    (fun d ->
      if Option.is_none (find d) then
        invalid_arg (Printf.sprintf "Engine.init: home domain %d does not exist" d))
    stripe;
  (* Each block's home holds it Shared: the stripe and the overrides
     are the rule, so no block is visited.  A home override naming a
     non-existent domain is caught here, before first use. *)
  List.iter
    (fun (first, _, domain) ->
      if Option.is_none (find domain) then
        invalid_arg
          (Printf.sprintf "Engine.init: block %d homed at non-existent domain %d" first domain))
    (Homes.overrides t.homes);
  Homes.place t.homes stripe;
  (* The homes are final, so what a table or an image already holds is
     laid out again; what they gain later is laid out as they grow. *)
  List.iter
    (fun d ->
      place_shared d ~lo:0 ~hi:(Bytes.length d.shared_tab);
      Memimg.fill_flags d.img)
    domains

(* Per-region traffic accounting: payload bytes of every data-carrying
   message, attributed to the block's region and recorded in the sending
   node's counter shard. *)
let count_data t ~node msg =
  match msg with
  | Ptypes.Data_reply { block; data; _ } | Ptypes.Writeback { block; data; _ } ->
      let r = t.rstats.(node).(Layout.block_region t.layout block) in
      r.r_data_bytes <- r.r_data_bytes + Bytes.length data
  | _ -> ()

(* --- state transitions applied at a domain --- *)

(** [record_store d miss addr w v] — record a store made at domain [d]
    while [miss] is outstanding, for replay over the arriving data. *)
let record_store d miss addr w v =
  d.stores_recorded <- d.stores_recorded + 1;
  miss.m_stores <- (d.stores_recorded, addr, w, v) :: miss.m_stores

(* Forget the members' recorded stores on block [b]; see below. *)
let drop_recorded_stores d b =
  List.iter
    (fun m ->
      match Ptypes.Itbl.find_opt m.outstanding b with
      | Some miss -> miss.m_stores <- []
      | None -> ())
    d.members

(* Replay every member's stores recorded against an outstanding miss on
   block [b], in the order the domain made them.  Arriving block data (a
   fetch reply or writeback) reflects the home's version and would
   otherwise clobber locally-performed non-blocking stores that are
   still waiting for their own grant — the software analogue of merging
   dirty words on a cache fill.

   With [~owned], the reply made the domain the block's owner: its image
   is now the coherent copy and every recorded store in it is performed,
   so they are dropped.  Replaying one later, after a node-mate's newer
   store or SC, or over a fill that already carries it, would undo the
   newer write. *)
let replay_recorded_stores ?(owned = false) d b =
  let stores = ref [] in
  List.iter
    (fun m ->
      match Ptypes.Itbl.find_opt m.outstanding b with
      | Some ({ m_stores = _ :: _; _ } as miss) ->
          List.iter (fun (stamp, addr, w, v) -> stores := (stamp, m.pid, addr, w, v) :: !stores)
            miss.m_stores
      | Some _ | None -> ())
    d.members;
  if owned then drop_recorded_stores d b;
  match !stores with
  | [] -> ()
  | stores ->
      List.iter
        (fun (_, pid, addr, w, v) -> Memimg.write ~pid d.img addr w v)
        (List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> Int.compare a b) stores)

(** Write flag values into every word of a block, unless a member process
    is mid-batch over the block, in which case the flag writes are
    deferred until that process next enters the protocol (Section 4.1). *)
let invalidate_block_data t d b =
  let deferring = List.filter (fun m -> m.in_batch && List.mem b m.batch_blocks) d.members in
  if deferring = [] then begin
    Memimg.write_flags d.img ~block:b;
    (* Mutation: the flag writes overrun the block's layout extent by
       one chunk, corrupting whatever the next block holds — exactly the
       failure the per-block-extent invariants must catch. *)
    if t.mutation = Some Wrong_block_extent then begin
      let spill_addr = Layout.block_base t.layout b + Layout.block_len t.layout b in
      if Layout.contains t.layout spill_addr then begin
        t.mutation_fires <- t.mutation_fires + 1;
        Memimg.write_flags_range d.img ~addr:spill_addr ~len:(Layout.chunk t.layout)
      end
    end
  end
  else List.iter (fun m -> m.deferred_flags <- b :: m.deferred_flags) deferring

(* --- sharded-directory home transfers ---

   A directory entry moves homes through a [Home_transfer] /
   [Home_transfer_ack] exchange; a request that races the move is bounced
   back with a [Home_hint].  Between send and receive the entry lives in
   the transport (the IronFleet delegation idiom): [t.transfers] names
   such blocks and both the old and the new home bounce requests for
   them.  Transfer traffic is applied directly at the network interface
   on arrival — Memory-Channel remote-write semantics — never through a
   domain mailbox, so a transfer completes even after every process of
   the destination node has stopped polling. *)

let apply_transport t msg =
  match msg with
  | Ptypes.Home_transfer { block = b; owner; sharers; seqs; data; from_domain } ->
      let d =
        match Ptypes.Itbl.find_opt t.transfers b with
        | Some tr -> domain_by_id t tr.tr_to
        | None -> invalid_arg "Home_transfer for a block not in flight"
      in
      let e = Directory.install d.dir ~block:b ~owner ~sharers ~seqs in
      (match data with
      | Some bytes -> (
          (* The new home must be able to serve data replies from its own
             image.  If it already holds the block S/E the image is
             current; otherwise (I, or P with its own miss still in
             flight) the carried copy is installed and the domain joins
             the sharer set. *)
          match shared_state d b with
          | Ptypes.Shared | Ptypes.Exclusive -> ()
          | Ptypes.Invalid | Ptypes.Pending ->
              Memimg.write_block d.img ~block:b bytes;
              replay_recorded_stores d b;
              set_shared d b Ptypes.Shared;
              if not (Directory.is_sharer e d.dom_id) then Directory.add_sharer e d.dom_id)
      | None -> ());
      Ptypes.Itbl.remove t.transfers b;
      Ptypes.Itbl.replace d.home_hint b d.dom_id;
      d.homes_in <- d.homes_in + 1;
      t.migrations <- t.migrations + 1;
      cost d t.cfg.Config.costs.Config.handler;
      send d (To_nic from_domain) (Ptypes.Home_transfer_ack { block = b; from_domain = d.dom_id })
  | Ptypes.Home_transfer_ack _ -> t.transfer_acks <- t.transfer_acks + 1
  | Ptypes.Home_hint { block = b; home = h; to_pid } -> (
      let p = Ptypes.Ids.find t.procs to_pid in
      Ptypes.Itbl.replace p.dom.home_hint b h;
      p.dom.dom_bounces <- p.dom.dom_bounces + 1;
      p.stats.bounces <- p.stats.bounces + 1;
      match Ptypes.Itbl.find_opt p.outstanding b with
      | Some miss when not miss.m_done ->
          (* Re-issue the bounced request to the hinted home.  The hinted
             home may itself still see the entry in flight and bounce
             again; the chase terminates because the transfer's arrival
             is a fixed, already-scheduled event and every bounce costs a
             round trip. *)
          cost p.dom t.cfg.Config.costs.Config.send;
          send p.dom (To_domain h)
            (Ptypes.Request
               { kind = miss.m_req; block = b; from_domain = p.dom.dom_id; from_pid = p.pid })
      | _ -> ())
  | _ -> invalid_arg "apply_transport: not transfer traffic"

(* Invalidate (shared -> invalid) at a domain; acks back to the home.
   Two of the seeded mutations live here: [Skip_invalidate] acknowledges
   without touching any state (a stale copy survives), [Skip_inval_ack]
   invalidates but never acknowledges (the home's transaction hangs). *)
let apply_invalidate t d ~home_domain b =
  let skip_apply = t.mutation = Some Skip_invalidate in
  let skip_ack = t.mutation = Some Skip_inval_ack in
  if skip_apply || skip_ack then t.mutation_fires <- t.mutation_fires + 1;
  let r = t.rstats.(d.dom_node).(Layout.block_region t.layout b) in
  r.r_invals <- r.r_invals + 1;
  if not skip_apply then begin
    invalidate_block_data t d b;
    set_shared d b Ptypes.Invalid;
    List.iter (fun m -> set_private m b Ptypes.Invalid) d.members
  end;
  cost d t.cfg.Config.costs.Config.inval_apply;
  if not skip_ack then
    send d (To_domain home_domain) (Ptypes.Inval_ack { block = b; from_domain = d.dom_id })

(* Complete a recall once all private-table downgrades are done. *)
let complete_recall t d b ~to_shared ~home_domain =
  let keep_private = t.mutation = Some Keep_private_on_recall in
  let data = Memimg.read_block d.img ~block:b in
  if to_shared then begin
    set_shared d b Ptypes.Shared;
    if not keep_private then
      List.iter
        (fun m ->
          if private_state m b = Ptypes.Exclusive then set_private m b Ptypes.Shared)
        d.members
  end
  else begin
    invalidate_block_data t d b;
    set_shared d b Ptypes.Invalid;
    if not keep_private then List.iter (fun m -> set_private m b Ptypes.Invalid) d.members
  end;
  send d (To_domain home_domain) (Ptypes.Writeback { block = b; data; from_domain = d.dom_id })

(* Recall (exclusive -> shared/invalid) at the owning domain.  Private
   state tables holding the block exclusive must be downgraded first:
   directly when the holder is not in application code (Section 4.3.4),
   via an explicit message otherwise (Section 2.3). *)
let apply_recall t d ~servicer b ~to_shared ~home_domain =
  let r = t.rstats.(d.dom_node).(Layout.block_region t.layout b) in
  r.r_recalls <- r.r_recalls + 1;
  (* Block intra-node exclusive grants while the recall is in flight. *)
  set_shared d b Ptypes.Pending;
  if t.mutation = Some Keep_private_on_recall then begin
    (* Mutation: skip every private-state-table downgrade — the
       members' stale Exclusive/Shared entries survive the recall
       (complete_recall is gated on the same mutation). *)
    t.mutation_fires <- t.mutation_fires + 1;
    complete_recall t d b ~to_shared ~home_domain
  end
  else
  let to_state = if to_shared then Ptypes.Shared else Ptypes.Invalid in
  let pending = ref 0 in
  List.iter
    (fun m ->
      if m.pid = servicer then set_private m b to_state
      else if private_state m b = Ptypes.Exclusive then begin
        if t.cfg.Config.direct_downgrade && not !(m.in_app) then begin
          set_private m b to_state;
          m.stats.downgrades_direct <- m.stats.downgrades_direct + 1;
          cost d t.cfg.Config.costs.Config.downgrade_apply
        end
        else begin
          m.stats.downgrades_msg <- m.stats.downgrades_msg + 1;
          incr pending;
          send d (To_pid m.pid)
            (Ptypes.Downgrade { block = b; to_state; to_pid = m.pid; from_domain = d.dom_id })
        end
      end)
    d.members;
  if !pending = 0 then complete_recall t d b ~to_shared ~home_domain
  else
    Ptypes.Itbl.replace d.pending_local b
      { lt_awaiting = !pending; lt_to_shared = to_shared; lt_home = home_domain }

(* --- the home side --- *)

(* Send process [pid] of domain [dom] the home's next message in [entry]'s
   per-domain sequence, built by [mk seq]. *)
let reply home entry ~dom ~pid mk = send home (To_pid pid) (mk (Directory.stamp entry dom))

let rec handle_request t home msg =
  match msg with
  | Ptypes.Request { kind = _; block = b; from_domain; from_pid }
    when home_domain_of_block t b <> home.dom_id || Ptypes.Itbl.mem t.transfers b ->
      (* Stale or in-flight home: bounce with a forwarding hint, before
         any directory lookup — allocating an entry here would duplicate
         state the real home holds.  Unreachable under [Static] homing:
         hints then always equal the static map and nothing is ever in
         flight. *)
      cost home t.cfg.Config.costs.Config.handler;
      t.bounces <- t.bounces + 1;
      (* Hint the authoritative home, not this domain's own stale
         forwarding note: a block that has moved on several times since
         we gave it away would otherwise send the requester on a walk
         down the whole chain of past homes, one bounce per hop. *)
      let hint =
        match Ptypes.Itbl.find_opt t.transfers b with
        | Some tr -> tr.tr_to  (* in flight: point at where it will land *)
        | None -> home_domain_of_block t b
      in
      send home (To_nic from_domain) (Ptypes.Home_hint { block = b; home = hint; to_pid = from_pid })
  | Ptypes.Request { kind; block = b; from_domain; from_pid } -> (
      let entry = Directory.entry home.dir b in
      match entry.Directory.busy with
      | Some _ -> Queue.push msg entry.Directory.deferred
      | None -> (
          cost home t.cfg.Config.costs.Config.handler;
          observe_request t home entry ~kind ~from_domain;
          let reply = reply home entry ~dom:from_domain ~pid:from_pid in
          (match (kind, entry.Directory.owner) with
          | Ptypes.Sc_upgrade, owner
            when owner <> None || not (Directory.is_sharer entry from_domain) ->
              (* A failed SC must not send invalidations (livelock
                 avoidance, Section 3.1.1). *)
              reply (fun seq -> Ptypes.Sc_result { block = b; ok = false; to_pid = from_pid; seq })
          | _, Some o when o <> from_domain ->
              (* Another domain owns the block: recall it (to Shared for a
                 read); the writeback completes the transaction. *)
              let to_shared = kind = Ptypes.Read in
              entry.Directory.busy <-
                Some
                  {
                    Directory.t_kind = (if to_shared then Ptypes.Read else Ptypes.Read_ex);
                    t_requester_domain = from_domain;
                    t_requester_pid = from_pid;
                    t_awaiting = 1;
                    t_data = None;
                  };
              send home (To_domain o)
                (Ptypes.Recall
                   { block = b; to_shared; home_domain = home.dom_id; seq = Directory.stamp entry o })
          | _, Some _ ->
              (* The requester's domain already owns the block (a stale
                 request); grant exclusivity again. *)
              reply (fun seq -> Ptypes.Ack_exclusive { block = b; to_pid = from_pid; seq })
          | Ptypes.Read, None ->
              Directory.add_sharer entry from_domain;
              let data = Memimg.read_block home.img ~block:b in
              reply (fun seq ->
                  Ptypes.Data_reply { block = b; data; exclusive = false; to_pid = from_pid; seq })
          | (Ptypes.Read_ex | Ptypes.Upgrade | Ptypes.Sc_upgrade), None ->
              let still_sharer = Directory.is_sharer entry from_domain in
              (* Upgrades from a domain that lost its copy are
                 promoted to full read-exclusives. *)
              let kind =
                if kind = Ptypes.Upgrade && not still_sharer then Ptypes.Read_ex else kind
              in
              (* Snapshot data before invalidating anyone (the home
                 itself may be a sharer). *)
              let data =
                if kind = Ptypes.Read_ex then Some (Memimg.read_block home.img ~block:b)
                else None
              in
              let others =
                List.filter (fun s -> s <> from_domain) (Directory.sharers_list entry)
              in
              let others =
                (* Mutation: the home forgets one sharer, which
                   keeps a stale Shared copy past the grant. *)
                match t.mutation with
                | Some Skip_one_invalidation when others <> [] ->
                    t.mutation_fires <- t.mutation_fires + 1;
                    List.tl others
                | _ -> others
              in
              List.iter
                (fun s ->
                  (* Self-invalidation goes through the ordered local
                     mailbox so that a pending reply to a local process
                     is applied first. *)
                  send home
                    (if s = home.dom_id then Self s else To_domain s)
                    (Ptypes.Invalidate
                       { block = b; home_domain = home.dom_id; seq = Directory.stamp entry s }))
                others;
              let txn =
                {
                  Directory.t_kind = kind;
                  t_requester_domain = from_domain;
                  t_requester_pid = from_pid;
                  t_awaiting = List.length others;
                  t_data = data;
                }
              in
              if others = [] then grant t home entry txn ~data
              else entry.Directory.busy <- Some txn);
          (* A request that completed without a transaction may leave the
             entry quiescent with a fresh policy verdict. *)
          maybe_migrate t home b))
  | _ -> invalid_arg "handle_request: not a request"

(* Grant the pending exclusive transaction — all invalidations are done,
   or the recalled owner has written back — and make the requester's
   domain the owner.  [data] is the block's contents when the requester
   needs them; an upgrade of a copy it still holds gets a bare ack. *)
and grant t home entry txn ~data =
  let b = entry.Directory.block in
  let pid = txn.Directory.t_requester_pid in
  reply home entry ~dom:txn.Directory.t_requester_domain ~pid (fun seq ->
      match (txn.Directory.t_kind, data) with
      | Ptypes.Sc_upgrade, _ -> Ptypes.Sc_result { block = b; ok = true; to_pid = pid; seq }
      | _, Some data -> Ptypes.Data_reply { block = b; data; exclusive = true; to_pid = pid; seq }
      | Ptypes.Upgrade, None -> Ptypes.Ack_exclusive { block = b; to_pid = pid; seq }
      | (Ptypes.Read | Ptypes.Read_ex), None -> invalid_arg "grant: no data for a fetch");
  entry.Directory.owner <- Some txn.Directory.t_requester_domain;
  Directory.clear_sharers entry;
  finish_txn t home entry

and finish_txn t home entry =
  entry.Directory.busy <- None;
  (* Drain deferred requests until one starts a new transaction (which
     re-busies the entry) or the queue empties: a request that completes
     immediately must not strand those queued behind it. *)
  let rec drain () =
    if entry.Directory.busy = None then
      match Queue.take_opt entry.Directory.deferred with
      | None -> ()
      | Some msg ->
          handle_request t home msg;
          drain ()
  in
  drain ();
  maybe_migrate t home entry.Directory.block

(* Feed the home-reassignment policy one served request.  Pure
   observation: the verdict ([want_home]) is consumed by [maybe_migrate]
   the next time the entry is quiescent. *)
and observe_request t home entry ~kind ~from_domain =
  match t.cfg.Config.homing with
  | Config.Static -> ()
  | Config.Migratory -> (
      match kind with
      | Ptypes.Read -> ()
      | Ptypes.Read_ex | Ptypes.Upgrade | Ptypes.Sc_upgrade ->
          if from_domain = entry.Directory.last_excl then
            entry.Directory.excl_streak <- entry.Directory.excl_streak + 1
          else begin
            entry.Directory.last_excl <- from_domain;
            entry.Directory.excl_streak <- 1
          end;
          if
            from_domain <> home.dom_id
            && entry.Directory.excl_streak >= t.cfg.Config.migration_threshold
          then entry.Directory.want_home <- Some from_domain)

(* Consume a policy verdict: start the transfer if the entry is
   quiescent.  A verdict set while a transaction or deferred work is
   pending simply waits for the next quiescent moment. *)
and maybe_migrate t home b =
  if t.cfg.Config.homing <> Config.Static then
    match Directory.find home.dir b with
    | None -> ()
    | Some e -> (
        match e.Directory.want_home with
        | Some dst when dst = home.dom_id -> e.Directory.want_home <- None
        | Some dst
          when e.Directory.busy = None
               && Queue.is_empty e.Directory.deferred
               && home_domain_of_block t b = home.dom_id
               && not (Ptypes.Itbl.mem t.transfers b) ->
            e.Directory.want_home <- None;
            initiate_transfer t home b ~dst
        | _ -> ())

and initiate_transfer t home b ~dst =
  let e = Directory.entry home.dir b in
  let owner, sharers, seqs = Directory.export e in
  (* With no owner the home's copy is the authoritative data and must
     travel with the entry (the home is always a sharer then). *)
  let data = if owner = None then Some (Memimg.read_block home.img ~block:b) else None in
  Directory.remove home.dir b;
  Ptypes.Itbl.replace t.transfers b { tr_from = home.dom_id; tr_to = dst };
  Ptypes.Itbl.replace t.moved b dst;
  (* Leave this domain's own routing hint pointing at itself: once the
     entry has moved on several times, "ask me and get bounced locally"
     is a cheaper start than chasing the one-hop-forward note a
     give-away could record here. *)
  home.homes_out <- home.homes_out + 1;
  cost home t.cfg.Config.costs.Config.send;
  send home (To_nic dst)
    (Ptypes.Home_transfer { block = b; owner; sharers; seqs; data; from_domain = home.dom_id })

let handle_writeback t home b data ~from_domain =
  let entry = Directory.entry home.dir b in
  match entry.Directory.busy with
  | None -> invalid_arg "writeback with no transaction"
  | Some txn -> (
      cost home t.cfg.Config.costs.Config.handler;
      match txn.Directory.t_kind with
      | Ptypes.Read ->
          (* Downgrade-to-shared recall: the home takes a valid copy.
             When the recalled owner *is* the home domain the data is
             already in this image — and possibly newer than the
             snapshot (a local store may have landed since), so writing
             the snapshot back would lose it. *)
          let data =
            if from_domain = home.dom_id then Memimg.read_block home.img ~block:b
            else begin
              Memimg.write_block home.img ~block:b data;
              replay_recorded_stores home b;
              data
            end
          in
          set_shared home b Ptypes.Shared;
          entry.Directory.owner <- None;
          Directory.clear_sharers entry;
          List.iter (Directory.add_sharer entry)
            [ from_domain; home.dom_id; txn.Directory.t_requester_domain ];
          let pid = txn.Directory.t_requester_pid in
          reply home entry ~dom:txn.Directory.t_requester_domain ~pid (fun seq ->
              Ptypes.Data_reply { block = b; data; exclusive = false; to_pid = pid; seq });
          finish_txn t home entry
      | Ptypes.Read_ex | Ptypes.Upgrade | Ptypes.Sc_upgrade ->
          (* Recall-invalidate: ownership moves; the home image stays
             invalid (flags already there or written by apply_recall at
             the old owner; the home was not a sharer). *)
          grant t home entry txn ~data:(Some data))

let handle_inval_ack t home b =
  let entry = Directory.entry home.dir b in
  match entry.Directory.busy with
  | None -> invalid_arg "inval ack with no transaction"
  | Some txn ->
      txn.Directory.t_awaiting <- txn.Directory.t_awaiting - 1;
      if txn.Directory.t_awaiting = 0 then grant t home entry txn ~data:txn.Directory.t_data

(* --- one step: a message applied where it was delivered --- *)

(* Perform [p]'s miss's carried store, once its domain owns the block. *)
let write_carried p miss =
  match miss.m_store with
  | Some (addr, w, v) ->
      Memimg.write ~pid:p.pid p.dom.img addr w v;
      miss.m_store <- None
  | None -> ()

(** [handle t p msg] — apply [msg] at process [p]'s domain, with [p]
    serving it: a reply or downgrade addressed to [p] (only the requester
    may handle its replies, Section 6.5), or a domain-addressed message,
    which any member of the domain may serve.  Transfer traffic is not
    handled here but by {!apply_transport}. *)
let handle t p msg =
  let d = p.dom in
  (* The miss is satisfied: both state tables take the granted state. *)
  let complete miss b s =
    set_shared d b s;
    set_private p b s;
    miss.m_done <- true;
    Ptypes.Itbl.remove p.outstanding b;
    if miss.m_kind = MStore then p.n_outstanding_stores <- p.n_outstanding_stores - 1
  in
  let with_miss b f =
    match Ptypes.Itbl.find_opt p.outstanding b with None -> () | Some m -> f m
  in
  match msg with
  | Ptypes.Request _ -> handle_request t d msg
  | Ptypes.Invalidate { block = b; home_domain; seq = _ } -> apply_invalidate t d ~home_domain b
  | Ptypes.Recall { block = b; to_shared; home_domain; seq = _ } ->
      cost d t.cfg.Config.costs.Config.handler;
      apply_recall t d ~servicer:p.pid b ~to_shared ~home_domain
  | Ptypes.Writeback { block = b; data; from_domain } ->
      handle_writeback t d b data ~from_domain
  | Ptypes.Inval_ack { block = b; _ } ->
      cost d t.cfg.Config.costs.Config.reply_process;
      handle_inval_ack t d b
  | Ptypes.Downgrade_ack { block = b; _ } -> (
      match Ptypes.Itbl.find_opt d.pending_local b with
      | None -> ()
      | Some lt ->
          lt.lt_awaiting <- lt.lt_awaiting - 1;
          if lt.lt_awaiting = 0 then begin
            Ptypes.Itbl.remove d.pending_local b;
            complete_recall t d b ~to_shared:lt.lt_to_shared ~home_domain:lt.lt_home
          end)
  | Ptypes.Data_reply { block = b; data; exclusive; _ } ->
      cost d t.cfg.Config.costs.Config.reply_process;
      Memimg.write_block d.img ~block:b data;
      (* Our own recorded stores are replayed here, with the siblings'.  A
         reply with no miss left is e.g. a prefetch that raced with an
         invalidation. *)
      replay_recorded_stores ~owned:exclusive d b;
      with_miss b (fun miss ->
          if exclusive then write_carried p miss;
          complete miss b (if exclusive then Ptypes.Exclusive else Ptypes.Shared))
  | Ptypes.Ack_exclusive { block = b; _ } ->
      cost d t.cfg.Config.costs.Config.reply_process;
      with_miss b (fun miss ->
          (* A sibling's fetch may have overwritten our early-visible
             stores; put them back now that we own the block. *)
          replay_recorded_stores ~owned:true d b;
          write_carried p miss;
          complete miss b Ptypes.Exclusive)
  | Ptypes.Sc_result { block = b; ok; _ } ->
      cost d t.cfg.Config.costs.Config.reply_process;
      with_miss b (fun miss ->
          if ok then begin
            (* The home granted exclusivity either way.  The copy the
               domain held already carries the recorded stores. *)
            drop_recorded_stores d b;
            set_shared d b Ptypes.Exclusive;
            set_private p b Ptypes.Exclusive
          end;
          (* The grant proves no *remote* write intervened, but a sibling's
             store or a newly fetched copy of the block since our LL shows
             as a broken hardware monitor: the SC must then fail
             (spuriously, which Alpha allows) rather than complete against
             a stale LL value.  A store left carried is the SC's failure. *)
          (match miss.m_store with
          | Some (addr, _, _) when ok && Memimg.monitor_armed d.img ~pid:p.pid addr ->
              write_carried p miss
          | Some _ | None -> ());
          miss.m_done <- true;
          Ptypes.Itbl.remove p.outstanding b)
  | Ptypes.Downgrade { block = b; to_state; from_domain; _ } ->
      cost d t.cfg.Config.costs.Config.downgrade_apply;
      set_private p b to_state;
      send d (To_domain from_domain) (Ptypes.Downgrade_ack { block = b; from_pid = p.pid })
  | Ptypes.Home_transfer _ | Ptypes.Home_transfer_ack _ | Ptypes.Home_hint _ ->
      invalid_arg "Core.handle: transfer traffic is applied at the network interface"

(** [issue t p b kind mkind store] — the state part of a miss:
    register it, mark both state tables Pending and send the request to
    the home this domain believes in (a wrong guess comes back as a
    bounce with a fresh hint).  Non-blocking. *)
let issue t p b kind mkind store =
  let miss =
    {
      m_kind = mkind;
      m_req = kind;
      m_done = false;
      m_store = store;
      m_stores = [];
    }
  in
  (* Every caller checks [outstanding] first: a second miss on the block
     would orphan the first one's waiter. *)
  assert (not (Ptypes.Itbl.mem p.outstanding b));
  Ptypes.Itbl.replace p.outstanding b miss;
  (* The one count of issued requests, by kind: the per-pid and
     per-region columns are two views of it. *)
  (let s = p.stats and r = t.rstats.(p.dom.dom_node).(Layout.block_region t.layout b) in
   match mkind with
   | MRead ->
       s.read_misses <- s.read_misses + 1;
       r.r_read_misses <- r.r_read_misses + 1
   | MStore ->
       s.store_misses <- s.store_misses + 1;
       r.r_store_misses <- r.r_store_misses + 1
   | MSc ->
       s.sc_misses <- s.sc_misses + 1;
       r.r_sc_misses <- r.r_sc_misses + 1
   | MPrefetch ->
       s.prefetch_misses <- s.prefetch_misses + 1;
       r.r_prefetch_misses <- r.r_prefetch_misses + 1);
  if mkind = MStore then p.n_outstanding_stores <- p.n_outstanding_stores + 1;
  (* Only the tables go Pending: the image keeps its contents, so an
     upgrading copy stays readable. *)
  set_shared p.dom b Ptypes.Pending;
  set_private p b Ptypes.Pending;
  send p.dom
    (To_domain (hinted_home t p.dom b))
    (Ptypes.Request { kind; block = b; from_domain = p.dom.dom_id; from_pid = p.pid });
  miss
