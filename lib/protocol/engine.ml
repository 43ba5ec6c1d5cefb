(** The Shasta coherence protocol engine.

    One {!t} is the protocol instance for a whole cluster.  Processes are
    attached to it and grouped into {e coherence domains}: one per process
    in Base-Shasta, one per SMP node in SMP-Shasta.  The engine implements
    a home-serialised directory invalidation protocol:

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

    Fiber-side entry points ([load_miss], [store_miss], [mb], [batch],
    [sc_protocol], ...) are called from inside simulated processes and may
    stall; [service] is the poll hook, called from scheduler context, and
    only mutates state and sends messages. *)

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
  m_block : int;
  m_kind : miss_kind;
  m_req : Ptypes.req_kind;
      (** the request kind on the wire, re-sent verbatim when a bounce
          (a [Home_hint]) reveals the request went to a stale home *)
  mutable m_done : bool;
  mutable m_sc_ok : bool;
  m_sc_store : (int * Alpha.Insn.width * int64) option;
  mutable m_stores : (int * Alpha.Insn.width * int64) list;
      (** stores recorded while the miss was outstanding, replayed over
          arriving data (non-blocking stores, Section 3.2.3) *)
}

type pstats = {
  mutable read_misses : int;
  mutable store_misses : int;
  mutable sc_misses : int;
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

let empty_pstats () =
  {
    read_misses = 0;
    store_misses = 0;
    sc_misses = 0;
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
  }

type pcb = {
  pid : int;
  proc : Sim.Proc.t;
  dom : domain;
  eng : t;
  private_tab : Bytes.t;
  mailbox : Ptypes.msg Mchan.Mailbox.t;
  outstanding : (int, miss) Hashtbl.t;
  mutable n_outstanding_stores : int;
  in_app : bool ref;  (** false while in protocol/syscalls: enables direct downgrade *)
  mutable in_batch : bool;
  mutable batch_blocks : int list;
  mutable deferred_flags : int list;  (** blocks whose flag writes are delayed (Section 4.1) *)
  mutable watch_blocks : int list;  (** post-batch store-reissue watch *)
  mutable reissue : (int * Alpha.Insn.width * int64) list;  (** (addr, w, v) to re-issue *)
  mutable last_ll : int option;  (** block of the last LL whose line was exclusive *)
  mutable parked : Ptypes.msg list;
      (** replies that arrived ahead of their per-block sequence order *)
  stats : pstats;
}

and domain = {
  dom_id : int;
  dom_node : int;
  img : Memimg.t;
  shared_tab : Bytes.t;  (** node-level state, one byte per block *)
  mutable members : pcb list;
  dom_mailbox : Ptypes.msg Mchan.Mailbox.t;
  dir : Directory.t;
  pending_local : (int, local_txn) Hashtbl.t;
      (** recalls waiting for intra-node private-table downgrades *)
  applied_seq : (int, int) Hashtbl.t;
      (** per block: how many home-originated ordered messages were applied *)
  mutable parked_dom : Ptypes.msg list;
      (** invalidations/recalls that arrived ahead of sequence order *)
  home_hint : (int, int) Hashtbl.t;
      (** this domain's (possibly stale) view of migrated homes: blocks
          absent from the table are assumed to live at their static home.
          Updated by [Home_hint] bounces and by the domain's own
          transfers; never consulted when [Config.homing = Static]. *)
  mutable homes_in : int;  (** directory entries this domain received *)
  mutable homes_out : int;  (** directory entries this domain gave away *)
  mutable dom_bounces : int;  (** hints received after requests hit a stale home *)
}

and local_txn = { mutable lt_awaiting : int; lt_to_shared : bool }

and rstat = {
  mutable r_read_misses : int;
  mutable r_store_misses : int;
  mutable r_invals : int;
  mutable r_recalls : int;
  mutable r_data_bytes : int;  (** payload bytes moved in data replies/writebacks *)
}

and transfer = { tr_from : int; tr_to : int }

and t = {
  cfg : Config.t;
  net : Mchan.Net.t;
  layout : Layout.t;  (** region layout; all state tables are per block *)
  mutable domains : domain list;  (** most-recent first; use [domain_by_id] *)
  domain_tbl : (int, domain) Hashtbl.t;
  pcbs : (int, pcb) Hashtbl.t;
  static_home : int array;
      (** per block: where it starts — a {!set_home} override, or -1
          until [init] stripes it over the home domains *)
  home : int array;
      (** authoritative per-block home — the sharded directory map.
          Filled at [init] from the static placement; updated the moment
          a transfer is initiated (the entry may still be in flight:
          [transfers] says so).  Domains route by their own hints, not by
          this array — only arrival-side checks may consult it. *)
  transfers : (int, transfer) Hashtbl.t;
      (** blocks whose directory entry currently lives in the transport *)
  rstats : rstat array array;
      (** per-region protocol traffic counters, sharded by the node that
          records the event ([rstats.(node).(region)]) so parallel lanes
          never share a counter; {!region_stats} sums the shards *)
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

let tab_get tab block = st_of_char (Bytes.get tab block)
let tab_set tab block s = Bytes.set tab block (st_char s)

(* Per-(block, domain) ordering of home-originated messages. *)
let msg_block_seq = function
  | Ptypes.Data_reply { block; seq; _ }
  | Ptypes.Ack_exclusive { block; seq; _ }
  | Ptypes.Sc_result { block; seq; _ }
  | Ptypes.Invalidate { block; seq; _ }
  | Ptypes.Recall { block; seq; _ } ->
      Some (block, seq)
  | Ptypes.Request _ | Ptypes.Writeback _ | Ptypes.Inval_ack _ | Ptypes.Downgrade _
  | Ptypes.Downgrade_ack _
  (* Transfer traffic is applied at the network interface, not through a
     domain's ordered mailbox; its own ordering is the transfer protocol. *)
  | Ptypes.Home_transfer _ | Ptypes.Home_transfer_ack _ | Ptypes.Home_hint _ ->
      None

let seq_expected d b = 1 + Option.value (Hashtbl.find_opt d.applied_seq b) ~default:0
let seq_mark d b = Hashtbl.replace d.applied_seq b (seq_expected d b)

let in_seq_order d msg =
  match msg_block_seq msg with None -> true | Some (b, seq) -> seq = seq_expected d b

let consume_seq d msg =
  match msg_block_seq msg with Some (b, _) -> seq_mark d b | None -> ()

let fresh_domain t ~node ~id =
  let d =
    {
      dom_id = id;
      dom_node = node;
      img = Memimg.create ~layout:t.layout;
      shared_tab = Bytes.make (Layout.n_blocks t.layout) 'I';
      members = [];
      dom_mailbox = Mchan.Mailbox.create ~owner:id;
      dir = Directory.create ~home_domain:id;
      pending_local = Hashtbl.create 16;
      applied_seq = Hashtbl.create 64;
      parked_dom = [];
      home_hint = Hashtbl.create 16;
      homes_in = 0;
      homes_out = 0;
      dom_bounces = 0;
    }
  in
  t.domains <- d :: t.domains;
  Hashtbl.replace t.domain_tbl id d;
  d

let create ~cfg ~net =
  let layout = Config.layout cfg in
  let n_blocks = Layout.n_blocks layout in
  let t =
    {
      cfg;
      net;
      layout;
      domains = [];
      domain_tbl = Hashtbl.create 32;
      pcbs = Hashtbl.create 64;
      static_home = Array.make n_blocks (-1);
      home = Array.make n_blocks (-1);
      transfers = Hashtbl.create 16;
      migrations = 0;
      transfer_acks = 0;
      bounces = 0;
      rstats =
        Array.init (Mchan.Net.config net).Mchan.Net.nodes (fun _ ->
            Array.init (Layout.n_regions layout) (fun _ ->
                {
                  r_read_misses = 0;
                  r_store_misses = 0;
                  r_invals = 0;
                  r_recalls = 0;
                  r_data_bytes = 0;
                }));
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
      for node = 0 to (Mchan.Net.config net).Mchan.Net.nodes - 1 do
        ignore (fresh_domain t ~node ~id:node)
      done
  | Config.Base -> ());
  t

let domain_by_id t id = Hashtbl.find t.domain_tbl id

(** [attach t proc] registers a simulated process with the protocol and
    returns its control block.  In Base-Shasta this creates a new
    coherence domain for the process; in SMP-Shasta it joins its node's
    domain.  Also installs the poll hook and stall signal on [proc]. *)
let attach t (proc : Sim.Proc.t) =
  let node = proc.Sim.Proc.cpu.Sim.Proc.node_id in
  let pid = proc.Sim.Proc.pid in
  let dom =
    match t.cfg.Config.variant with
    | Config.Smp -> domain_by_id t node
    | Config.Base -> fresh_domain t ~node ~id:pid
  in
  let pcb =
    {
      pid;
      proc;
      dom;
      eng = t;
      private_tab = Bytes.make (Layout.n_blocks t.layout) 'I';
      mailbox = Mchan.Mailbox.create ~owner:pid;
      outstanding = Hashtbl.create 8;
      n_outstanding_stores = 0;
      in_app = ref true;
      in_batch = false;
      batch_blocks = [];
      deferred_flags = [];
      watch_blocks = [];
      reissue = [];
      last_ll = None;
      parked = [];
      stats = empty_pstats ();
    }
  in
  dom.members <- pcb :: dom.members;
  Hashtbl.replace t.pcbs pid pcb;
  proc.Sim.Proc.stall_signal <- Some (Mchan.Net.node_signal t.net node);
  pcb

(** [layout t] — the compiled region layout; variable granularity comes
    from [Config.regions] (Section 2.1), fixed before the engine exists. *)
let layout t = t.layout

let block_of_addr t addr = Layout.block_of_addr t.layout addr
let block_bytes t b = Layout.block_len t.layout b

(** [home_domain_of_block t b] — the block's current home: where its
    directory entry lives, or (if a transfer is in flight) where it will
    land.  Authoritative — an omniscient view only arrival-side checks
    and the invariant checker may use; request routing goes through each
    domain's own {!hinted_home}. *)
let home_domain_of_block t b = t.home.(b)

(* A domain's own view of the home map: its sparse hint table over the
   static placement.  May be stale — a request routed here can bounce. *)
let hinted_home t d b =
  match Hashtbl.find_opt d.home_hint b with Some h -> h | None -> t.static_home.(b)

(** [set_home t ~addr ~len ~domain] — the "home placement optimisation"
    used for FMM, LU-Contiguous and Ocean (Section 6.4): blocks in
    [\[addr, addr+len)] are homed at [domain], typically the domain of
    the processor that predominantly writes them.  Must precede [init];
    later ranges overwrite earlier overlapping ones. *)
let set_home t ~addr ~len ~domain =
  if t.initialized then invalid_arg "set_home after init";
  if domain < 0 || domain >= Directory.max_domains then
    invalid_arg (Printf.sprintf "set_home: domain %d outside 0..%d" domain (Directory.max_domains - 1));
  Layout.iter_range t.layout ~addr ~len (fun b -> t.static_home.(b) <- domain)

(** [seed_mutation t m] plants the seeded bug [m] in this engine, for the
    mutation harness.  Must precede [init]. *)
let seed_mutation t m =
  if t.initialized then invalid_arg "seed_mutation after init";
  t.mutation <- Some m

(** [init t ?homes ()] finalises setup: picks the home domains (default:
    every domain), fills every image with the invalid-flag value, then
    gives each block's home domain a valid zeroed copy. *)
let init ?homes t =
  if t.initialized then invalid_arg "Engine.init: already initialized";
  t.initialized <- true;
  let domains = List.rev t.domains in
  let stripe =
    match homes with
    | Some hs -> Array.of_list hs
    | None ->
        (* Only domains with attached application processes can serve
           directory requests; protocol processes (scheduling priority 1)
           exist to service *other* domains' traffic and, in Base-Shasta,
           have no application process in their own domain at all. *)
        let app_domain d =
          List.exists (fun m -> m.proc.Sim.Proc.priority = 0) d.members
        in
        let inhabited = List.filter app_domain domains in
        let candidates =
          if inhabited <> [] then inhabited
          else List.filter (fun d -> d.members <> []) domains
        in
        let candidates = if candidates = [] then domains else candidates in
        Array.of_list (List.map (fun d -> d.dom_id) candidates)
  in
  let n = Array.length stripe in
  if n = 0 then invalid_arg "Engine.init: no home domains";
  Array.iter
    (fun d ->
      if not (Hashtbl.mem t.domain_tbl d) then
        invalid_arg (Printf.sprintf "Engine.init: home domain %d does not exist" d))
    stripe;
  let n_blocks = Layout.n_blocks t.layout in
  (* The shard map starts as the static placement; any home override
     naming a non-existent domain is caught here, before first use. *)
  for b = 0 to n_blocks - 1 do
    if t.static_home.(b) < 0 then t.static_home.(b) <- stripe.(b mod n);
    let h = t.static_home.(b) in
    if not (Hashtbl.mem t.domain_tbl h) then
      invalid_arg (Printf.sprintf "Engine.init: block %d homed at non-existent domain %d" b h)
  done;
  Array.blit t.static_home 0 t.home 0 n_blocks;
  List.iter
    (fun d ->
      for b = 0 to n_blocks - 1 do
        Memimg.write_flags d.img ~flag32:t.cfg.Config.flag32 ~block:b
      done)
    domains;
  (* Home copies: zero data, Shared state. *)
  for b = 0 to n_blocks - 1 do
    let home = domain_by_id t (home_domain_of_block t b) in
    Memimg.write_block home.img ~block:b (Bytes.make (block_bytes t b) '\000');
    tab_set home.shared_tab b Ptypes.Shared
  done

(* --- message plumbing --- *)

(* Per-region traffic accounting: payload bytes of every data-carrying
   message, attributed to the block's region and recorded in the sending
   node's counter shard. *)
let count_data t ~node msg =
  match msg with
  | Ptypes.Data_reply { block; data; _ } | Ptypes.Writeback { block; data; _ } ->
      let r = t.rstats.(node).(Layout.block_region t.layout block) in
      r.r_data_bytes <- r.r_data_bytes + Bytes.length data
  | _ -> ()

let msg_block = function
  | Ptypes.Request { block; _ }
  | Ptypes.Data_reply { block; _ }
  | Ptypes.Ack_exclusive { block; _ }
  | Ptypes.Sc_result { block; _ }
  | Ptypes.Invalidate { block; _ }
  | Ptypes.Recall { block; _ }
  | Ptypes.Writeback { block; _ }
  | Ptypes.Inval_ack { block; _ }
  | Ptypes.Downgrade { block; _ }
  | Ptypes.Downgrade_ack { block; _ }
  | Ptypes.Home_transfer { block; _ }
  | Ptypes.Home_transfer_ack { block; _ }
  | Ptypes.Home_hint { block; _ } ->
      block

(* Every protocol message leaves through here, at the sender's time
   cursor; [deliver] runs at the destination on arrival. *)
let send_msg t ~cur ~from_node ~dst_node msg deliver =
  count_data t ~node:from_node msg;
  Mchan.Net.send t.net ~at:!cur ~block:(msg_block msg) ~src_node:from_node ~dst_node
    ~size:(Ptypes.msg_size msg) deliver

let send_to_domain t ~cur ~from_node dst_domain msg =
  let dst = domain_by_id t dst_domain in
  send_msg t ~cur ~from_node ~dst_node:dst.dom_node msg (fun () ->
      Mchan.Mailbox.push dst.dom_mailbox msg)

let send_to_pid t ~cur ~from_node dst_pid msg =
  let pcb = Hashtbl.find t.pcbs dst_pid in
  send_msg t ~cur ~from_node ~dst_node:pcb.dom.dom_node msg (fun () ->
      Mchan.Mailbox.push pcb.mailbox msg)

(* --- state transitions applied at a domain --- *)

let set_block_state_shared d b s = tab_set d.shared_tab b s

let set_block_state_private pcb b s = tab_set pcb.private_tab b s

let batch_contains pcb b = List.mem b pcb.batch_blocks

(* Replay every member's stores recorded against an outstanding miss on
   block [b].  Arriving block data (a fetch reply or writeback) reflects
   the home's version and would otherwise clobber locally-performed
   non-blocking stores that are still waiting for their own grant —
   the software analogue of merging dirty words on a cache fill. *)
let replay_recorded_stores d b =
  List.iter
    (fun m ->
      match Hashtbl.find_opt m.outstanding b with
      | Some miss ->
          List.iter
            (fun (addr, w, v) -> Memimg.write ~pid:m.pid d.img addr w v)
            (List.rev miss.m_stores)
      | None -> ())
    d.members

(** Write flag values into every word of a block, unless a member process
    is mid-batch over the block, in which case the flag writes are
    deferred until that process next enters the protocol (Section 4.1). *)
let invalidate_block_data t d b =
  let deferring =
    List.filter (fun m -> m.in_batch && batch_contains m b) d.members
  in
  if deferring = [] then begin
    Memimg.write_flags d.img ~flag32:t.cfg.Config.flag32 ~block:b;
    (* Mutation: the flag writes overrun the block's layout extent by
       one chunk, corrupting whatever the next block holds — exactly the
       failure the per-block-extent invariants must catch. *)
    if t.mutation = Some Wrong_block_extent then begin
      let spill_addr = Layout.block_base t.layout b + Layout.block_len t.layout b in
      if Layout.contains t.layout spill_addr then begin
        t.mutation_fires <- t.mutation_fires + 1;
        Memimg.write_flags_range d.img ~flag32:t.cfg.Config.flag32 ~addr:spill_addr
          ~len:(Layout.chunk t.layout)
      end
    end
  end
  else List.iter (fun m -> m.deferred_flags <- b :: m.deferred_flags) deferring

(* --- coherence invariant checker (the probe of lib/check) ---

   Four invariant families, cross-checking the directory against every
   domain's shared state table and every process's private state table:

   1. single writer — at most one domain holds a block Exclusive, and
      while one does every other domain is Invalid or Pending;
   2. directory agreement — only while the entry is not busy (a
      transaction in flight legally leaves transient disagreement): an
      owner implies an empty sharer set and an Exclusive/Pending holder,
      no owner means every Shared holder is in the sharer set, and a
      block with no entry is still in its pristine home-only state;
   3. table monotonicity — a private-table state never exceeds its
      domain's shared-table state (private E needs domain E/P, private S
      needs domain S/E/P);
   4. block-extent agreement — when a block is quiet (entry not busy, no
      outstanding miss, deferral or reissue anywhere), every domain
      holding it Shared carries byte-identical data over the block's
      layout extent.  A flag write that overruns its block (the
      [Wrong_block_extent] mutation) corrupts a neighbouring Shared
      replica and trips exactly this family; directory entries must also
      name layout-valid block ids.

   [check_block] is cheap (O(domains x members)) and is run after every
   protocol message, scoped to that message's block and its immediate
   neighbours (flag extents can only overrun into an adjacent block),
   when [Config.check_invariants] is set; [check_quiescent] sweeps the
   whole engine and is meant for the end of a run. *)

exception
  Coherence_violation of { block : int; time : float; violations : string list }

let () =
  Printexc.register_printer (function
    | Coherence_violation { block; time; violations } ->
        Some
          (Printf.sprintf "Protocol.Engine.Coherence_violation (block %d at %.9g: %s)"
             block time
             (String.concat "; " violations))
    | _ -> None)

(* A block is quiet when no transaction, miss, deferred flag write or
   post-batch reissue anywhere in the engine can still touch it: only
   then may family 4 compare Shared replicas byte-for-byte.  A block
   whose directory entry is mid-transfer is never quiet — the entry
   lives in the transport; the home lookup chases the current home. *)
let block_quiet t b =
  (not (Hashtbl.mem t.transfers b))
  && (let home = domain_by_id t (home_domain_of_block t b) in
     match Directory.find home.dir b with
     | Some e -> e.Directory.busy = None && Queue.is_empty e.Directory.deferred
     | None -> true)
  && List.for_all
       (fun d ->
         (not (Hashtbl.mem d.pending_local b))
         && List.for_all
              (fun m ->
                (not (Hashtbl.mem m.outstanding b))
                && (not (List.mem b m.deferred_flags))
                && (not (List.mem b m.watch_blocks))
                && not
                     (List.exists
                        (fun (a, _, _) -> Layout.block_of_addr t.layout a = b)
                        m.reissue))
              d.members)
       t.domains

let check_block t b =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let dom_state d = tab_get d.shared_tab b in
  let domains = t.domains in
  (* family 3: private vs shared monotonicity *)
  List.iter
    (fun d ->
      let ds = dom_state d in
      List.iter
        (fun m ->
          match (tab_get m.private_tab b, ds) with
          | Ptypes.Exclusive, (Ptypes.Invalid | Ptypes.Shared) ->
              err "pid%d private E but dom%d is %c" m.pid d.dom_id (st_char ds)
          | Ptypes.Shared, Ptypes.Invalid ->
              err "pid%d private S but dom%d is I" m.pid d.dom_id
          | _ -> ())
        d.members)
    domains;
  (* family 4: quiet Shared replicas agree over the block's layout extent *)
  (if block_quiet t b then
     let holders = List.filter (fun d -> dom_state d = Ptypes.Shared) domains in
     match holders with
     | [] | [ _ ] -> ()
     | d0 :: rest ->
         let ref_data = Memimg.read_block d0.img ~block:b in
         List.iter
           (fun d ->
             if not (Bytes.equal (Memimg.read_block d.img ~block:b) ref_data) then
               err "dom%d and dom%d disagree on Shared block %d (extent 0x%x+%d)" d0.dom_id
                 d.dom_id b
                 (Layout.block_base t.layout b)
                 (Layout.block_len t.layout b))
           rest);
  (* family 1: single writer *)
  let excl = List.filter (fun d -> dom_state d = Ptypes.Exclusive) domains in
  (match excl with
  | [] | [ _ ] -> ()
  | ds ->
      err "multiple Exclusive holders: [%s]"
        (String.concat "," (List.map (fun d -> string_of_int d.dom_id) ds)));
  (match excl with
  | [ e ] ->
      List.iter
        (fun d ->
          if d != e && dom_state d = Ptypes.Shared then
            err "dom%d Shared while dom%d Exclusive" d.dom_id e.dom_id)
        domains
  | _ -> ());
  (* family 2: directory agreement, only at a quiet entry whose home is
     not in flight — mid-transfer the entry lives in the transport and
     there is nothing at any home to cross-check against.  The lookup
     chases the block's current home, wherever migration put it. *)
  (if Hashtbl.mem t.transfers b then ()
   else
  let home = domain_by_id t (home_domain_of_block t b) in
  match Directory.find home.dir b with
  | None ->
      (* Untouched block: only the home may hold it (its initial copy).
         Pending is a legal transient — a requester marks the block
         Pending before the home has allocated the entry. *)
      List.iter
        (fun d ->
          match dom_state d with
          | Ptypes.Invalid | Ptypes.Pending -> ()
          | s when d.dom_id = home.dom_id ->
              if s <> Ptypes.Shared then
                err "no directory entry but home dom%d is %c" d.dom_id (st_char s)
          | s -> err "no directory entry but dom%d is %c" d.dom_id (st_char s))
        domains
  | Some entry -> (
      match entry.Directory.busy with
      | Some _ -> () (* transaction in flight: transients are legal *)
      | None -> (
          match entry.Directory.owner with
          | Some o ->
              if not (Directory.no_sharers entry) then
                err "owner dom%d with non-empty sharer set [%s]" o
                  (String.concat ","
                     (List.map string_of_int (Directory.sharers_list entry)));
              (match dom_state (domain_by_id t o) with
              | Ptypes.Exclusive | Ptypes.Pending -> ()
              | (Ptypes.Shared | Ptypes.Invalid)
                when List.exists
                       (fun m -> Hashtbl.mem m.outstanding b)
                       (domain_by_id t o).members ->
                  (* Legal transient: the grant is in flight (the owner's
                     miss on this block is still outstanding) while the
                     Pending the owner set at issue has been overwritten —
                     to S by a concurrent sharing writeback at the home, or
                     to I by an invalidation that beat the grant.  Applying
                     the granted reply moves the domain to E. *)
                  t.legal_transients <- t.legal_transients + 1
              | s -> err "directory owner dom%d holds %c" o (st_char s));
              List.iter
                (fun d ->
                  if d.dom_id <> o then
                    match dom_state d with
                    | Ptypes.Shared | Ptypes.Exclusive ->
                        err "dom%d holds %c but dom%d owns the block" d.dom_id
                          (st_char (dom_state d))
                          o
                    | _ -> ())
                domains
          | None ->
              List.iter
                (fun d ->
                  match dom_state d with
                  | Ptypes.Exclusive ->
                      err "dom%d Exclusive but the directory has no owner" d.dom_id
                  | Ptypes.Shared ->
                      if not (Directory.is_sharer entry d.dom_id) then
                        err "dom%d Shared but not in the sharer set [%s]" d.dom_id
                          (String.concat ","
                             (List.map string_of_int (Directory.sharers_list entry)))
                  | _ -> ())
                domains)));
  List.rev !errs

(* Run after a message is applied, scoped to that message's block and
   its immediate neighbours: a flag write overrunning the block's layout
   extent can only land in an adjacent block. *)
let check_msg t msg =
  t.invariant_checks <- t.invariant_checks + 1;
  let b = msg_block msg in
  let check b' =
    if Layout.valid_block t.layout b' then
      match check_block t b' with
      | [] -> ()
      | violations ->
          raise
            (Coherence_violation
               { block = b'; time = Sim.Engine.now (Mchan.Net.engine t.net); violations })
  in
  check b;
  check (b - 1);
  check (b + 1)

(** [check_quiescent t] — full-state sweep for an engine that should be
    at rest: no transaction, message, miss or Pending line may remain,
    and every block must satisfy [check_block].  Returns the violations
    (empty = coherent). *)
let check_quiescent t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  Hashtbl.iter
    (fun b tr ->
      err "block %d: home transfer dom%d -> dom%d still in flight" b tr.tr_from tr.tr_to)
    t.transfers;
  if t.transfer_acks <> t.migrations then
    err "%d home transfers installed but %d acknowledged" t.migrations t.transfer_acks;
  List.iter
    (fun d ->
      if not (Mchan.Mailbox.is_empty d.dom_mailbox) then
        err "dom%d: %d unserviced domain messages" d.dom_id
          (Mchan.Mailbox.length d.dom_mailbox);
      if d.parked_dom <> [] then
        err "dom%d: %d parked domain messages" d.dom_id (List.length d.parked_dom);
      if Hashtbl.length d.pending_local > 0 then
        err "dom%d: %d incomplete local recalls" d.dom_id (Hashtbl.length d.pending_local);
      Directory.iter_entries
        (fun e ->
          if not (Layout.valid_block t.layout e.Directory.block) then
            err "dom%d: directory entry for layout-invalid block %d" d.dom_id e.Directory.block
          else if home_domain_of_block t e.Directory.block <> d.dom_id then
            err "dom%d: directory entry for block %d, whose home is dom%d" d.dom_id
              e.Directory.block
              (home_domain_of_block t e.Directory.block);
          (match e.Directory.busy with
          | Some txn ->
              err "dom%d: block %d busy (%s, awaiting %d)" d.dom_id e.Directory.block
                (Format.asprintf "%a" Ptypes.pp_kind txn.Directory.t_kind)
                txn.Directory.t_awaiting
          | None -> ());
          if not (Queue.is_empty e.Directory.deferred) then
            err "dom%d: block %d has %d deferred requests" d.dom_id e.Directory.block
              (Queue.length e.Directory.deferred))
        d.dir;
      List.iter
        (fun m ->
          if not (Mchan.Mailbox.is_empty m.mailbox) then
            err "pid%d: %d unserviced replies" m.pid (Mchan.Mailbox.length m.mailbox);
          if m.parked <> [] then
            err "pid%d: %d parked replies" m.pid (List.length m.parked);
          Hashtbl.iter
            (fun b _ -> err "pid%d: outstanding miss on block %d" m.pid b)
            m.outstanding;
          if m.n_outstanding_stores <> 0 then
            err "pid%d: %d outstanding stores" m.pid m.n_outstanding_stores)
        d.members)
    t.domains;
  for b = 0 to Layout.n_blocks t.layout - 1 do
    List.iter
      (fun d ->
        if tab_get d.shared_tab b = Ptypes.Pending then
          err "dom%d: block %d stuck Pending" d.dom_id b;
        List.iter
          (fun m ->
            if tab_get m.private_tab b = Ptypes.Pending then
              err "pid%d: block %d stuck Pending (private)" m.pid b)
          d.members)
      t.domains;
    match check_block t b with [] -> () | es -> errs := List.rev_append es !errs
  done;
  List.rev !errs

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

let rec apply_transport t ~at msg =
  match msg with
  | Ptypes.Home_transfer { block = b; owner; sharers; seqs; data; from_domain } ->
      let tr =
        match Hashtbl.find_opt t.transfers b with
        | Some tr -> tr
        | None -> invalid_arg "Home_transfer for a block not in flight"
      in
      let d = domain_by_id t tr.tr_to in
      let e = Directory.install d.dir ~block:b ~owner ~sharers ~seqs in
      (match data with
      | Some bytes -> (
          (* The new home must be able to serve data replies from its own
             image.  If it already holds the block S/E the image is
             current; otherwise (I, or P with its own miss still in
             flight) the carried copy is installed and the domain joins
             the sharer set. *)
          match tab_get d.shared_tab b with
          | Ptypes.Shared | Ptypes.Exclusive -> ()
          | Ptypes.Invalid | Ptypes.Pending ->
              Memimg.write_block d.img ~block:b bytes;
              replay_recorded_stores d b;
              tab_set d.shared_tab b Ptypes.Shared;
              if not (Directory.is_sharer e d.dom_id) then Directory.add_sharer e d.dom_id)
      | None -> ());
      Hashtbl.remove t.transfers b;
      Hashtbl.replace d.home_hint b d.dom_id;
      d.homes_in <- d.homes_in + 1;
      t.migrations <- t.migrations + 1;
      let cur = ref (at +. t.cfg.Config.costs.Config.handler) in
      send_transport t ~cur ~from_node:d.dom_node from_domain
        (Ptypes.Home_transfer_ack { block = b; from_domain = d.dom_id });
      if t.cfg.Config.check_invariants then check_msg t msg
  | Ptypes.Home_transfer_ack _ ->
      t.transfer_acks <- t.transfer_acks + 1
  | Ptypes.Home_hint { block = b; home = h; to_pid } -> (
      let pcb = Hashtbl.find t.pcbs to_pid in
      Hashtbl.replace pcb.dom.home_hint b h;
      pcb.dom.dom_bounces <- pcb.dom.dom_bounces + 1;
      pcb.stats.bounces <- pcb.stats.bounces + 1;
      match Hashtbl.find_opt pcb.outstanding b with
      | Some miss when not miss.m_done ->
          (* Re-issue the bounced request to the hinted home.  The hinted
             home may itself still see the entry in flight and bounce
             again; the chase terminates because the transfer's arrival
             is a fixed, already-scheduled event and every bounce costs a
             round trip. *)
          let cur = ref (at +. t.cfg.Config.costs.Config.send) in
          send_to_domain t ~cur ~from_node:pcb.dom.dom_node h
            (Ptypes.Request
               { kind = miss.m_req; block = b; from_domain = pcb.dom.dom_id; from_pid = pcb.pid })
      | _ -> ())
  | _ -> invalid_arg "apply_transport: not transfer traffic"

and send_transport t ~cur ~from_node dst_domain msg =
  send_msg t ~cur ~from_node ~dst_node:(domain_by_id t dst_domain).dom_node msg (fun () ->
      apply_transport t ~at:(Sim.Engine.now (Mchan.Net.engine t.net)) msg)

(* Invalidate (shared -> invalid) at a domain; acks back to the home.
   Two of the seeded mutations live here: [Skip_invalidate] acknowledges
   without touching any state (a stale copy survives), [Skip_inval_ack]
   invalidates but never acknowledges (the home's transaction hangs). *)
let apply_invalidate t d ~cur ~home_domain b =
  let skip_apply = t.mutation = Some Skip_invalidate in
  let skip_ack = t.mutation = Some Skip_inval_ack in
  if skip_apply || skip_ack then t.mutation_fires <- t.mutation_fires + 1;
  let r = t.rstats.(d.dom_node).(Layout.block_region t.layout b) in
  r.r_invals <- r.r_invals + 1;
  if not skip_apply then begin
    invalidate_block_data t d b;
    set_block_state_shared d b Ptypes.Invalid;
    List.iter (fun m -> set_block_state_private m b Ptypes.Invalid) d.members
  end;
  cur := !cur +. t.cfg.Config.costs.Config.inval_apply;
  if not skip_ack then
    send_to_domain t ~cur ~from_node:d.dom_node home_domain
      (Ptypes.Inval_ack { block = b; from_domain = d.dom_id })

(* Complete a recall once all private-table downgrades are done. *)
let complete_recall t d ~cur b ~to_shared ~home_domain =
  let keep_private = t.mutation = Some Keep_private_on_recall in
  let data = Memimg.read_block d.img ~block:b in
  if to_shared then begin
    set_block_state_shared d b Ptypes.Shared;
    if not keep_private then
      List.iter
        (fun m ->
          if tab_get m.private_tab b = Ptypes.Exclusive then tab_set m.private_tab b Ptypes.Shared)
        d.members
  end
  else begin
    invalidate_block_data t d b;
    set_block_state_shared d b Ptypes.Invalid;
    if not keep_private then
      List.iter (fun m -> set_block_state_private m b Ptypes.Invalid) d.members
  end;
  send_to_domain t ~cur ~from_node:d.dom_node home_domain
    (Ptypes.Writeback { block = b; data; from_domain = d.dom_id })

(* Recall (exclusive -> shared/invalid) at the owning domain.  Private
   state tables holding the block exclusive must be downgraded first:
   directly when the holder is not in application code (Section 4.3.4),
   via an explicit message otherwise (Section 2.3). *)
let apply_recall t d ~cur ~servicer b ~to_shared ~home_domain =
  let r = t.rstats.(d.dom_node).(Layout.block_region t.layout b) in
  r.r_recalls <- r.r_recalls + 1;
  (* Block intra-node exclusive grants while the recall is in flight. *)
  set_block_state_shared d b Ptypes.Pending;
  if t.mutation = Some Keep_private_on_recall then begin
    (* Mutation: skip every private-state-table downgrade — the
       members' stale Exclusive/Shared entries survive the recall
       (complete_recall is gated on the same mutation). *)
    t.mutation_fires <- t.mutation_fires + 1;
    complete_recall t d ~cur b ~to_shared ~home_domain
  end
  else
  let needs_downgrade m = m.pid <> servicer && tab_get m.private_tab b = Ptypes.Exclusive in
  let pending = ref 0 in
  List.iter
    (fun m ->
      if m.pid = servicer then
        set_block_state_private m b (if to_shared then Ptypes.Shared else Ptypes.Invalid)
      else if needs_downgrade m then begin
        if t.cfg.Config.direct_downgrade && not !(m.in_app) then begin
          set_block_state_private m b (if to_shared then Ptypes.Shared else Ptypes.Invalid);
          m.stats.downgrades_direct <- m.stats.downgrades_direct + 1;
          cur := !cur +. t.cfg.Config.costs.Config.downgrade_apply
        end
        else begin
          m.stats.downgrades_msg <- m.stats.downgrades_msg + 1;
          incr pending;
          send_to_pid t ~cur ~from_node:d.dom_node m.pid
            (Ptypes.Downgrade
               {
                 block = b;
                 to_state = (if to_shared then Ptypes.Shared else Ptypes.Invalid);
                 to_pid = m.pid;
                 from_domain = d.dom_id;
               })
        end
      end)
    d.members;
  if !pending = 0 then complete_recall t d ~cur b ~to_shared ~home_domain
  else
    Hashtbl.replace d.pending_local b { lt_awaiting = !pending; lt_to_shared = to_shared }

(* --- the home side --- *)

let rec handle_request t home ~cur msg =
  match msg with
  | Ptypes.Request { kind = _; block = b; from_domain = _; from_pid }
    when t.home.(b) <> home.dom_id || Hashtbl.mem t.transfers b ->
      (* Stale or in-flight home: bounce with a forwarding hint, before
         any directory lookup — allocating an entry here would duplicate
         state the real home holds.  Unreachable under [Static] homing:
         hints then always equal the static map and nothing is ever in
         flight. *)
      cur := !cur +. t.cfg.Config.costs.Config.handler;
      t.bounces <- t.bounces + 1;
      (* Hint the authoritative home, not this domain's own stale
         forwarding note: a block that has moved on several times since
         we gave it away would otherwise send the requester on a walk
         down the whole chain of past homes, one bounce per hop. *)
      let hint =
        match Hashtbl.find_opt t.transfers b with
        | Some tr -> tr.tr_to  (* in flight: point at where it will land *)
        | None -> t.home.(b)
      in
      let rdom = (Hashtbl.find t.pcbs from_pid).dom in
      send_transport t ~cur ~from_node:home.dom_node rdom.dom_id
        (Ptypes.Home_hint { block = b; home = hint; to_pid = from_pid })
  | Ptypes.Request { kind; block = b; from_domain; from_pid } -> (
      let entry = Directory.entry home.dir b in
      match entry.Directory.busy with
      | Some _ ->
          Queue.push msg entry.Directory.deferred
      | None -> (
          cur := !cur +. t.cfg.Config.costs.Config.handler;
          observe_request t home entry ~kind ~from_domain;
          let reply msg = send_to_pid t ~cur ~from_node:home.dom_node from_pid msg in
          (match (kind, entry.Directory.owner) with
          | Ptypes.Sc_upgrade, owner
            when owner <> None || not (Directory.is_sharer entry from_domain) ->
              (* A failed SC must not send invalidations (livelock
                 avoidance, Section 3.1.1). *)
              reply
                (Ptypes.Sc_result
                   { block = b; ok = false; to_pid = from_pid; seq = Directory.stamp entry from_domain })
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
              send_to_domain t ~cur ~from_node:home.dom_node o
                (Ptypes.Recall
                   { block = b; to_shared; home_domain = home.dom_id; seq = Directory.stamp entry o })
          | _, Some _ ->
              (* The requester's domain already owns the block (a stale
                 request); grant exclusivity again. *)
              reply
                (Ptypes.Ack_exclusive
                   { block = b; to_pid = from_pid; seq = Directory.stamp entry from_domain })
          | Ptypes.Read, None ->
              Directory.add_sharer entry from_domain;
              let data = Memimg.read_block home.img ~block:b in
              reply
                (Ptypes.Data_reply
                   {
                     block = b;
                     data;
                     exclusive = false;
                     to_pid = from_pid;
                     seq = Directory.stamp entry from_domain;
                   })
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
              let awaiting = ref 0 in
              List.iter
                (fun s ->
                  incr awaiting;
                  let msg =
                    Ptypes.Invalidate
                      { block = b; home_domain = home.dom_id; seq = Directory.stamp entry s }
                  in
                  if s = home.dom_id then
                    (* Self-invalidation goes through the ordered
                       local mailbox so that a pending reply to a
                       local process is applied first. *)
                    Mchan.Mailbox.push home.dom_mailbox msg
                  else send_to_domain t ~cur ~from_node:home.dom_node s msg)
                others;
              let txn =
                {
                  Directory.t_kind = kind;
                  t_requester_domain = from_domain;
                  t_requester_pid = from_pid;
                  t_awaiting = !awaiting;
                  t_data = data;
                }
              in
              if !awaiting = 0 then grant t home ~cur entry txn ~data
              else entry.Directory.busy <- Some txn);
          (* A request that completed without a transaction may leave the
             entry quiescent with a fresh policy verdict. *)
          maybe_migrate t home ~cur b))
  | _ -> invalid_arg "handle_request: not a request"

(* Grant the pending exclusive transaction — all invalidations are done,
   or the recalled owner has written back — and make the requester's
   domain the owner.  [data] is the block's contents when the requester
   needs them; an upgrade of a copy it still holds gets a bare ack. *)
and grant t home ~cur entry txn ~data =
  let b = entry.Directory.block in
  let pid = txn.Directory.t_requester_pid in
  let seq = Directory.stamp entry txn.Directory.t_requester_domain in
  send_to_pid t ~cur ~from_node:home.dom_node pid
    (match (txn.Directory.t_kind, data) with
    | Ptypes.Sc_upgrade, _ -> Ptypes.Sc_result { block = b; ok = true; to_pid = pid; seq }
    | _, Some data -> Ptypes.Data_reply { block = b; data; exclusive = true; to_pid = pid; seq }
    | Ptypes.Upgrade, None -> Ptypes.Ack_exclusive { block = b; to_pid = pid; seq }
    | (Ptypes.Read | Ptypes.Read_ex), None -> invalid_arg "grant: no data for a fetch");
  entry.Directory.owner <- Some txn.Directory.t_requester_domain;
  Directory.clear_sharers entry;
  finish_txn t home ~cur entry

and finish_txn t home ~cur entry =
  entry.Directory.busy <- None;
  (* Drain deferred requests until one starts a new transaction (which
     re-busies the entry) or the queue empties: a request that completes
     immediately must not strand those queued behind it. *)
  let rec drain () =
    if entry.Directory.busy = None then
      match Queue.take_opt entry.Directory.deferred with
      | None -> ()
      | Some msg ->
          handle_request t home ~cur msg;
          drain ()
  in
  drain ();
  maybe_migrate t home ~cur entry.Directory.block

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
and maybe_migrate t home ~cur b =
  if t.cfg.Config.homing <> Config.Static then
    match Directory.find home.dir b with
    | None -> ()
    | Some e -> (
        match e.Directory.want_home with
        | Some dst when dst = home.dom_id -> e.Directory.want_home <- None
        | Some dst
          when e.Directory.busy = None
               && Queue.is_empty e.Directory.deferred
               && t.home.(b) = home.dom_id
               && not (Hashtbl.mem t.transfers b) ->
            e.Directory.want_home <- None;
            initiate_transfer t home ~cur b ~dst
        | _ -> ())

and initiate_transfer t home ~cur b ~dst =
  let e = Directory.entry home.dir b in
  let owner, sharers, seqs = Directory.export e in
  (* With no owner the home's copy is the authoritative data and must
     travel with the entry (the home is always a sharer then). *)
  let data = if owner = None then Some (Memimg.read_block home.img ~block:b) else None in
  Directory.remove home.dir b;
  Hashtbl.replace t.transfers b { tr_from = home.dom_id; tr_to = dst };
  t.home.(b) <- dst;
  (* Leave this domain's own routing hint pointing at itself: once the
     entry has moved on several times, "ask me and get bounced locally"
     is a cheaper start than chasing the one-hop-forward note a
     give-away could record here. *)
  home.homes_out <- home.homes_out + 1;
  cur := !cur +. t.cfg.Config.costs.Config.send;
  send_transport t ~cur ~from_node:home.dom_node dst
    (Ptypes.Home_transfer { block = b; owner; sharers; seqs; data; from_domain = home.dom_id })

let handle_writeback t home ~cur b data ~from_domain =
  let entry = Directory.entry home.dir b in
  match entry.Directory.busy with
  | None -> invalid_arg "writeback with no transaction"
  | Some txn -> (
      cur := !cur +. t.cfg.Config.costs.Config.handler;
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
          set_block_state_shared home b Ptypes.Shared;
          entry.Directory.owner <- None;
          Directory.clear_sharers entry;
          List.iter (Directory.add_sharer entry)
            [ from_domain; home.dom_id; txn.Directory.t_requester_domain ];
          send_to_pid t ~cur ~from_node:home.dom_node txn.Directory.t_requester_pid
            (Ptypes.Data_reply
               {
                 block = b;
                 data;
                 exclusive = false;
                 to_pid = txn.Directory.t_requester_pid;
                 seq = Directory.stamp entry txn.Directory.t_requester_domain;
               });
          finish_txn t home ~cur entry
      | Ptypes.Read_ex | Ptypes.Upgrade | Ptypes.Sc_upgrade ->
          (* Recall-invalidate: ownership moves; the home image stays
             invalid (flags already there or written by apply_recall at
             the old owner; the home was not a sharer). *)
          grant t home ~cur entry txn ~data:(Some data))

let handle_inval_ack t home ~cur b =
  let entry = Directory.entry home.dir b in
  match entry.Directory.busy with
  | None -> invalid_arg "inval ack with no transaction"
  | Some txn ->
      txn.Directory.t_awaiting <- txn.Directory.t_awaiting - 1;
      if txn.Directory.t_awaiting = 0 then grant t home ~cur entry txn ~data:txn.Directory.t_data

(* --- the requester side --- *)

let apply_reply t pcb ~cur msg =
  let d = pcb.dom in
  (* The miss is satisfied: both state tables take the granted state. *)
  let complete miss b s =
    set_block_state_shared d b s;
    set_block_state_private pcb b s;
    miss.m_done <- true;
    Hashtbl.remove pcb.outstanding b;
    if miss.m_kind = MStore then pcb.n_outstanding_stores <- pcb.n_outstanding_stores - 1
  in
  match msg with
  | Ptypes.Data_reply { block = b; data; exclusive; _ } ->
      cur := !cur +. t.cfg.Config.costs.Config.reply_process;
      Memimg.write_block d.img ~block:b data;
      (* Our own recorded stores are replayed here, with the siblings'. *)
      replay_recorded_stores d b;
      (match Hashtbl.find_opt pcb.outstanding b with
      | None -> () (* e.g. a prefetch raced with an invalidation *)
      | Some miss -> complete miss b (if exclusive then Ptypes.Exclusive else Ptypes.Shared))
  | Ptypes.Ack_exclusive { block = b; _ } ->
      cur := !cur +. t.cfg.Config.costs.Config.reply_process;
      (match Hashtbl.find_opt pcb.outstanding b with
      | None -> ()
      | Some miss ->
          (* A sibling's fetch may have overwritten our early-visible
             stores; put them back now that we own the block. *)
          replay_recorded_stores d b;
          complete miss b Ptypes.Exclusive)
  | Ptypes.Sc_result { block = b; ok; _ } ->
      cur := !cur +. t.cfg.Config.costs.Config.reply_process;
      (match Hashtbl.find_opt pcb.outstanding b with
      | None -> ()
      | Some miss ->
          let really_ok = ref ok in
          if ok then begin
            (* The home granted exclusivity either way. *)
            set_block_state_shared d b Ptypes.Exclusive;
            set_block_state_private pcb b Ptypes.Exclusive;
            match miss.m_sc_store with
            | Some (addr, w, v) ->
                (* The grant proves no *remote* write intervened, but a
                   sibling's store or a newly fetched copy of the block
                   since our LL shows as a broken hardware monitor: the
                   SC must then fail (spuriously, which Alpha allows)
                   rather than complete against a stale LL value. *)
                if Memimg.monitor_armed d.img ~pid:pcb.pid addr then
                  Memimg.write ~pid:pcb.pid d.img addr w v
                else really_ok := false
            | None -> ()
          end;
          miss.m_sc_ok <- !really_ok;
          miss.m_done <- true;
          Hashtbl.remove pcb.outstanding b)
  | Ptypes.Downgrade { block = b; to_state; from_domain; _ } ->
      cur := !cur +. t.cfg.Config.costs.Config.downgrade_apply;
      set_block_state_private pcb b to_state;
      send_to_domain t ~cur ~from_node:d.dom_node from_domain
        (Ptypes.Downgrade_ack { block = b; from_pid = pcb.pid })
  | _ -> invalid_arg "apply_reply: unexpected message"

let handle_domain_msg t d ~cur ~servicer msg =
  match msg with
  | Ptypes.Request _ -> handle_request t d ~cur msg
  | Ptypes.Invalidate { block = b; home_domain; seq = _ } ->
      apply_invalidate t d ~cur ~home_domain b
  | Ptypes.Recall { block = b; to_shared; home_domain; seq = _ } ->
      cur := !cur +. t.cfg.Config.costs.Config.handler;
      apply_recall t d ~cur ~servicer b ~to_shared ~home_domain
  | Ptypes.Writeback { block = b; data; from_domain } ->
      handle_writeback t d ~cur b data ~from_domain
  | Ptypes.Inval_ack { block = b; _ } ->
      cur := !cur +. t.cfg.Config.costs.Config.reply_process;
      handle_inval_ack t d ~cur b
  | Ptypes.Downgrade_ack { block = b; _ } -> (
      match Hashtbl.find_opt d.pending_local b with
      | None -> ()
      | Some lt ->
          lt.lt_awaiting <- lt.lt_awaiting - 1;
          if lt.lt_awaiting = 0 then begin
            Hashtbl.remove d.pending_local b;
            let home_domain = home_domain_of_block t b in
            complete_recall t d ~cur b ~to_shared:lt.lt_to_shared ~home_domain
          end)
  | Ptypes.Data_reply _ | Ptypes.Ack_exclusive _ | Ptypes.Sc_result _ | Ptypes.Downgrade _ ->
      invalid_arg "handle_domain_msg: process-addressed message in domain mailbox"
  | Ptypes.Home_transfer _ | Ptypes.Home_transfer_ack _ | Ptypes.Home_hint _ ->
      invalid_arg "handle_domain_msg: transfer traffic is applied at the network interface"

(** [service pcb] is the poll hook: drains this process's own mailbox
    (replies may only be handled by the requester — the limitation noted
    in Section 6.5) and then the domain mailbox, which any local process
    may service.  Returns the CPU seconds consumed.  Never called from
    fiber context. *)
let service_slow pcb =
  let t = pcb.eng in
  let d = pcb.dom in
  let start = Sim.Engine.now (Mchan.Net.engine t.net) in
  let cur = ref start in
  let apply_own msg =
    pcb.stats.messages_handled <- pcb.stats.messages_handled + 1;
    consume_seq d msg;
    apply_reply t pcb ~cur msg;
    if t.cfg.Config.check_invariants then check_msg t msg
  in
  let apply_dom msg =
    pcb.stats.messages_handled <- pcb.stats.messages_handled + 1;
    consume_seq d msg;
    handle_domain_msg t d ~cur ~servicer:pcb.pid msg;
    if t.cfg.Config.check_invariants then check_msg t msg
  in
  let progress = ref true in
  while !progress do
    progress := false;
    (* 1. Parked replies of this process that are now in order. *)
    let ready, rest = List.partition (in_seq_order d) pcb.parked in
    if ready <> [] then begin
      pcb.parked <- rest;
      List.iter apply_own ready;
      progress := true
    end;
    (* 2. This process's own mailbox (only the requester may handle its
       replies, Section 6.5). *)
    (match Mchan.Mailbox.pop pcb.mailbox with
    | Some msg ->
        progress := true;
        if in_seq_order d msg then apply_own msg else pcb.parked <- pcb.parked @ [ msg ]
    | None -> ());
    (* 3. Parked domain-addressed messages now in order. *)
    let ready, rest = List.partition (in_seq_order d) d.parked_dom in
    if ready <> [] then begin
      d.parked_dom <- rest;
      List.iter apply_dom ready;
      progress := true
    end;
    (* 4. The shared domain mailbox (any local process may serve it). *)
    (match Mchan.Mailbox.pop d.dom_mailbox with
    | Some msg ->
        progress := true;
        if in_seq_order d msg then apply_dom msg else d.parked_dom <- d.parked_dom @ [ msg ]
    | None -> ())
  done;
  (* A sibling's parked reply may have become applicable through our
     domain-side work.  If that sibling is signal-waiting it will never
     look again on its own, so wake the node; a running or ready sibling
     polls soon anyway (and pulsing for it would ping-pong the waiters
     on this node forever). *)
  if
    List.exists
      (fun m ->
        m != pcb
        && m.proc.Sim.Proc.state = Sim.Proc.Waiting
        && List.exists (in_seq_order d) m.parked)
      d.members
  then Sim.Signal.pulse (Mchan.Net.node_signal t.net d.dom_node);
  !cur -. start

(* Idle fast path: polls vastly outnumber message arrivals, and the full
   drain above allocates (closures, [List.partition] pairs) even when
   every queue is empty.  The guard must also cover the end-of-drain
   sibling wake-up: a signal-waiting sibling with an in-order parked
   reply is owed a pulse even when {e this} process has nothing to do,
   so the fast path applies only when no member of the domain holds any
   parked message at all — then the sibling scan is vacuously false and
   skipping the drain is exact. *)
let rec no_parked = function
  | [] -> true
  | m :: rest -> m.parked == [] && no_parked rest

let service pcb =
  let d = pcb.dom in
  if
    d.parked_dom == []
    && Mchan.Mailbox.is_empty pcb.mailbox
    && Mchan.Mailbox.is_empty d.dom_mailbox
    && no_parked d.members
  then 0.0
  else service_slow pcb

(** In SMP-Shasta, processes on the same node can also serve each other's
    {e domain} traffic; this hook additionally drains the mailboxes of
    sibling processes' pending work when they are descheduled is not
    modelled — requests are domain-addressed so no forwarding is needed. *)

(* --- fiber-side entry points --- *)

let charge dt = if dt > 0.0 then Sim.Proc.work dt

let stall_until pcb ~bucket pred =
  let eng = Mchan.Net.engine pcb.eng.net in
  let t0 = Sim.Engine.now eng in
  Sim.Proc.stall pred;
  let dt = Sim.Engine.now eng -. t0 in
  (match bucket with
  | `Read -> pcb.stats.read_stall <- pcb.stats.read_stall +. dt
  | `Write -> pcb.stats.write_stall <- pcb.stats.write_stall +. dt
  | `Mb -> pcb.stats.mb_stall <- pcb.stats.mb_stall +. dt
  | `None -> ());
  dt

(** [block_state pcb addr] — the (private, domain-shared) state pair of
    the coherence block covering [addr]. *)
let block_state pcb addr =
  let b = Layout.block_of_addr pcb.eng.layout addr in
  (tab_get pcb.private_tab b, tab_get pcb.dom.shared_tab b)

(** [private_state pcb addr] — just the private-table state of the block
    covering [addr]; the allocation-free form of [fst (block_state ...)]
    for the inline-check fast paths. *)
let private_state pcb addr =
  tab_get pcb.private_tab (Layout.block_of_addr pcb.eng.layout addr)

(* Issue a request to the home; non-blocking (caller stalls if desired). *)
let issue pcb b kind mkind ?(sc_store = None) () =
  let t = pcb.eng in
  let miss =
    {
      m_block = b;
      m_kind = mkind;
      m_req = kind;
      m_done = false;
      m_sc_ok = false;
      m_sc_store = sc_store;
      m_stores = [];
    }
  in
  (* Every caller checks [outstanding] first: a second miss on the block
     would orphan the first one's waiter. *)
  assert (not (Hashtbl.mem pcb.outstanding b));
  Hashtbl.replace pcb.outstanding b miss;
  (let r = t.rstats.(pcb.dom.dom_node).(Layout.block_region t.layout b) in
   match mkind with
   | MRead -> r.r_read_misses <- r.r_read_misses + 1
   | MStore | MSc | MPrefetch -> r.r_store_misses <- r.r_store_misses + 1);
  if mkind = MStore then pcb.n_outstanding_stores <- pcb.n_outstanding_stores + 1;
  (* Only the tables go Pending: the image keeps its contents, so an
     upgrading copy stays readable. *)
  set_block_state_shared pcb.dom b Ptypes.Pending;
  set_block_state_private pcb b Ptypes.Pending;
  let cur = ref (Sim.Engine.now (Mchan.Net.engine t.net)) in
  (* Route by this domain's own (possibly stale) view of the home map;
     a wrong guess comes back as a bounce with a fresh hint. *)
  send_to_domain t ~cur ~from_node:pcb.dom.dom_node (hinted_home t pcb.dom b)
    (Ptypes.Request { kind; block = b; from_domain = pcb.dom.dom_id; from_pid = pcb.pid });
  charge t.cfg.Config.costs.Config.send;
  miss

(* The request that makes a non-exclusive block writable: a Shared copy
   only needs upgrading, anything else needs the data too. *)
let store_request shared = if shared = Ptypes.Shared then Ptypes.Upgrade else Ptypes.Read_ex

(* Reissue stores that executed after a batch while their line had been
   downgraded (Section 4.1), and apply deferred flag writes.  Runs at
   every protocol entry outside a batch. *)
let rec apply_deferred pcb =
  if not pcb.in_batch then begin
    let t = pcb.eng in
    (match pcb.deferred_flags with
    | [] -> ()
    | blocks ->
        pcb.deferred_flags <- [];
        List.iter
          (fun b ->
            (* Only flag blocks that are still invalid. *)
            if tab_get pcb.dom.shared_tab b = Ptypes.Invalid then
              Memimg.write_flags pcb.dom.img ~flag32:t.cfg.Config.flag32 ~block:b)
          blocks);
    pcb.watch_blocks <- [];
    match pcb.reissue with
    | [] -> ()
    | stores ->
        pcb.reissue <- [];
        List.iter
          (fun (addr, w, v) ->
            pcb.stats.reissued_stores <- pcb.stats.reissued_stores + 1;
            reissue_store pcb addr w v)
          (List.rev stores)
  end

and reissue_store pcb addr w v =
  let t = pcb.eng in
  let b = block_of_addr t addr in
  let _, shared = block_state pcb addr in
  match shared with
  | Ptypes.Exclusive ->
      set_block_state_private pcb b Ptypes.Exclusive;
      Memimg.write ~pid:pcb.pid pcb.dom.img addr w v
  | Ptypes.Shared | Ptypes.Invalid | Ptypes.Pending -> (
      match Hashtbl.find_opt pcb.outstanding b with
      | Some miss -> miss.m_stores <- (addr, w, v) :: miss.m_stores
      | None ->
          let miss = issue pcb b (store_request shared) MStore () in
          miss.m_stores <- [ (addr, w, v) ])

(* Ensure the block is readable; blocking.

   The protocol-entry cost is paid up front: between the final state
   inspection and the caller's access there must be no suspension
   (Section 2.3's check/access atomicity — a [charge] yields to the
   scheduler, during which a recall could invalidate the line under us). *)
let ensure_read pcb addr =
  let t = pcb.eng in
  let b = block_of_addr t addr in
  charge t.cfg.Config.costs.Config.intra_node_hit;
  let rec go () =
    match Hashtbl.find_opt pcb.outstanding b with
    | Some miss ->
        ignore (stall_until pcb ~bucket:`Read (fun () -> miss.m_done));
        go ()
    | None -> (
        let _, shared = block_state pcb addr in
        match shared with
        | Ptypes.Shared | Ptypes.Exclusive ->
            (* Intra-node resolution: another process of the domain holds
               the data; just refresh the private table. *)
            pcb.stats.intra_hits <- pcb.stats.intra_hits + 1;
            set_block_state_private pcb b
              (if shared = Ptypes.Exclusive then Ptypes.Exclusive else Ptypes.Shared)
        | Ptypes.Invalid | Ptypes.Pending ->
            pcb.stats.read_misses <- pcb.stats.read_misses + 1;
            let miss = issue pcb b Ptypes.Read MRead () in
            ignore (stall_until pcb ~bucket:`Read (fun () -> miss.m_done));
            go ())
  in
  go ()

(** [load_miss pcb value addr w] — the slow path of the inline load check:
    the loaded [value] equalled the flag.  Distinguishes false misses from
    real ones; returns the definitive value.  Loops like the re-executed
    inline check does: the line may be invalidated again in the very poll
    pass that completed the miss (reply and a later invalidation applied
    back-to-back, in order). *)
let rec load_miss pcb addr w =
  let t = pcb.eng in
  charge t.cfg.Config.costs.Config.miss_entry;
  apply_deferred pcb;
  let _, shared = block_state pcb addr in
  match shared with
  | Ptypes.Shared | Ptypes.Exclusive ->
      (* False miss: the data genuinely contains the flag value. *)
      pcb.stats.false_misses <- pcb.stats.false_misses + 1;
      Memimg.read pcb.dom.img addr w
  | Ptypes.Invalid | Ptypes.Pending ->
      ensure_read pcb addr;
      let v = Memimg.read pcb.dom.img addr w in
      if v = Config.flag_value t.cfg w then load_miss pcb addr w else v

(* Ensure the block is writable.  Like [ensure_read], all costs are
   charged before the final state inspection: the caller's store follows
   with no intervening suspension, so the exclusivity decision cannot go
   stale (the Section 2.3 race).  For blocking (SC) stores the loop
   re-inspects after every stall; for non-blocking stores an outstanding
   miss is enough — [raw_write] records the store for replay. *)
let ensure_write pcb addr ~blocking =
  let t = pcb.eng in
  let b = block_of_addr t addr in
  charge t.cfg.Config.costs.Config.intra_node_hit;
  (* A blocking store stalls on the miss and re-inspects; a non-blocking
     one is recorded against the outstanding miss by [raw_write]. *)
  let rec wait miss =
    if blocking then begin
      ignore (stall_until pcb ~bucket:`Write (fun () -> miss.m_done));
      go ()
    end
  and go () =
    match Hashtbl.find_opt pcb.outstanding b with
    | Some miss -> wait miss
    | None -> (
        let _, shared = block_state pcb addr in
        match shared with
        | Ptypes.Exclusive ->
            pcb.stats.intra_hits <- pcb.stats.intra_hits + 1;
            set_block_state_private pcb b Ptypes.Exclusive
        | Ptypes.Shared | Ptypes.Invalid | Ptypes.Pending ->
            (* Pending means a recall of our exclusive copy, or a
               sibling's miss, is in flight: go through the home. *)
            pcb.stats.store_misses <- pcb.stats.store_misses + 1;
            wait (issue pcb b (store_request shared) MStore ()))
  in
  go ()

(** [store_miss pcb addr] — slow path of the inline store check.  Under
    [Sc] the store stalls until all invalidations are acknowledged; under
    [Rc] it is non-blocking, bounded by [max_outstanding_stores]. *)
let store_miss pcb addr =
  let t = pcb.eng in
  charge t.cfg.Config.costs.Config.miss_entry;
  apply_deferred pcb;
  let blocking = t.cfg.Config.model = Config.Sc in
  if (not blocking) && pcb.n_outstanding_stores >= t.cfg.Config.max_outstanding_stores then
    ignore
      (stall_until pcb ~bucket:`Write (fun () ->
           pcb.n_outstanding_stores < t.cfg.Config.max_outstanding_stores));
  ensure_write pcb addr ~blocking

(** Raw memory access used by the runtime for the actual load/store
    instructions.  Stores are intercepted: while a miss is outstanding on
    the block, the store is recorded for replay over the arriving data;
    after a batch, stores to since-downgraded lines are recorded for
    reissue (Section 4.1). *)
let raw_read pcb addr w = Memimg.read pcb.dom.img addr w

(** Region copies for OS syscall buffers (post-validation DMA). *)
let raw_blit_out pcb ~addr ~len buf off = Memimg.blit_out pcb.dom.img ~addr ~len buf off

let raw_blit_in pcb ~addr buf off len = Memimg.blit_in pcb.dom.img ~addr buf off len

(** Raw hardware LL/SC against the node image (monitors per process). *)
let raw_ll pcb addr w = Memimg.ll pcb.dom.img ~pid:pcb.pid addr w

let raw_sc pcb addr w v = Memimg.sc pcb.dom.img ~pid:pcb.pid addr w v

let raw_write pcb addr w v =
  let t = pcb.eng in
  let b = block_of_addr t addr in
  (* The dominant case — no miss outstanding, no watched blocks — must
     not hash or allocate.  A store is bound-checked before it is
     recorded: a recorded store that does not fit the image would be
     replayed, and fail again, when the reply arrives. *)
  (if Hashtbl.length pcb.outstanding > 0 || pcb.watch_blocks <> [] then begin
     Memimg.check pcb.dom.img addr (Alpha.Insn.bytes_of_width w);
     match Hashtbl.find_opt pcb.outstanding b with
     | Some miss -> miss.m_stores <- (addr, w, v) :: miss.m_stores
     | None ->
         if List.mem b pcb.watch_blocks then begin
           let _, shared = block_state pcb addr in
           match shared with
           | Ptypes.Exclusive -> ()
           | Ptypes.Shared | Ptypes.Invalid | Ptypes.Pending ->
               pcb.reissue <- (addr, w, v) :: pcb.reissue
         end
   end);
  Memimg.write ~pid:pcb.pid pcb.dom.img addr w v

(** [mb pcb] — the protocol part of a memory barrier: complete all
    outstanding (non-blocking) stores and service pending invalidations. *)
let mb pcb =
  let t = pcb.eng in
  charge (Config.mb_cost t.cfg);
  apply_deferred pcb;
  if pcb.n_outstanding_stores > 0 then
    ignore (stall_until pcb ~bucket:`Mb (fun () -> pcb.n_outstanding_stores = 0))

(** [poll pcb] — fiber-side poll (the inline 3-instruction poll's cycle
    cost is charged by the interpreter); message servicing itself happens
    through the scheduler's poll hook, so nothing to do here beyond
    deferred work. *)
let poll pcb = apply_deferred pcb

(** [batch pcb accesses] — the batch miss handler (Sections 2.2, 4.1):
    bring every line of the batch into the needed state, issuing the
    fetches in parallel, then let the batched code run.  Lines that are
    invalidated or downgraded before the batched code executes are
    handled by deferred flag writes and store reissues. *)
let batch pcb accesses =
  let t = pcb.eng in
  charge t.cfg.Config.costs.Config.miss_entry;
  apply_deferred pcb;
  let blocks_of (addr, w, _) =
    (* An access can straddle a block boundary only if misaligned, which
       the interpreter rejects; a single block per access suffices. *)
    ignore w;
    block_of_addr t addr
  in
  pcb.in_batch <- true;
  pcb.batch_blocks <- List.sort_uniq compare (List.map blocks_of accesses);
  let misses = ref [] in
  List.iter
    (fun (addr, _w, kind) ->
      let b = block_of_addr t addr in
      match Hashtbl.find_opt pcb.outstanding b with
      | Some miss -> misses := miss :: !misses
      | None -> (
          let _, shared = block_state pcb addr in
          match (kind, shared) with
          | _, Ptypes.Exclusive ->
              set_block_state_private pcb b Ptypes.Exclusive
          | Alpha.Insn.Load_acc, Ptypes.Shared ->
              set_block_state_private pcb b Ptypes.Shared
          | Alpha.Insn.Load_acc, (Ptypes.Invalid | Ptypes.Pending) ->
              pcb.stats.read_misses <- pcb.stats.read_misses + 1;
              misses := issue pcb b Ptypes.Read MRead () :: !misses
          | Alpha.Insn.Store_acc, (Ptypes.Shared | Ptypes.Invalid | Ptypes.Pending) ->
              pcb.stats.store_misses <- pcb.stats.store_misses + 1;
              misses := issue pcb b (store_request shared) MStore () :: !misses))
    accesses;
  (match !misses with
  | [] -> ()
  | ms -> ignore (stall_until pcb ~bucket:`Read (fun () -> List.for_all (fun m -> m.m_done) ms)));
  pcb.in_batch <- false;
  (* Watch the store targets until the next protocol entry. *)
  pcb.watch_blocks <-
    List.sort_uniq compare
      (List.filter_map
         (fun (addr, _w, kind) ->
           match kind with
           | Alpha.Insn.Store_acc -> Some (block_of_addr t addr)
           | Alpha.Insn.Load_acc -> None)
         accesses);
  pcb.batch_blocks <- []

(** [ll_ensure pcb addr] — inline code before a load-locked: fetch the
    line if needed and remember whether it was exclusive (deciding the
    hardware vs protocol path for the following SC, Section 3.1.2). *)
let rec ll_ensure pcb addr =
  let t = pcb.eng in
  apply_deferred pcb;
  match Hashtbl.find_opt pcb.outstanding (block_of_addr t addr) with
  | Some miss ->
      (* One of our own misses (e.g. a non-blocking store upgrade) is in
         flight on this block; wait for it before deciding the LL path. *)
      ignore (stall_until pcb ~bucket:`Read (fun () -> miss.m_done));
      ll_ensure pcb addr
  | None ->
  let private_s, shared = block_state pcb addr in
  (match shared with
  | Ptypes.Invalid | Ptypes.Pending ->
      charge t.cfg.Config.costs.Config.miss_entry;
      ensure_read pcb addr
  | Ptypes.Shared | Ptypes.Exclusive -> (
      match private_s with
      | Ptypes.Invalid | Ptypes.Pending ->
          set_block_state_private pcb (block_of_addr t addr)
            (if shared = Ptypes.Exclusive then Ptypes.Exclusive else Ptypes.Shared)
      | Ptypes.Shared | Ptypes.Exclusive -> ()));
  let private_s, _ = block_state pcb addr in
  pcb.last_ll <-
    (if private_s = Ptypes.Exclusive then Some (block_of_addr t addr) else None)

(** [sc_check pcb addr w v] — inline code before a store-conditional. *)
let rec sc_check pcb addr w v =
  let t = pcb.eng in
  apply_deferred pcb;
  let b = block_of_addr t addr in
  match Hashtbl.find_opt pcb.outstanding b with
  | Some miss ->
      ignore (stall_until pcb ~bucket:`Write (fun () -> miss.m_done));
      sc_check pcb addr w v
  | None ->
  let private_s, shared = block_state pcb addr in
  match (private_s, shared) with
  | Ptypes.Exclusive, _ when pcb.last_ll = Some b ->
      (* Fast path: run the SC in hardware; the memory-image monitor
         decides success. *)
      Alpha.Runtime.Run_in_hardware
  | _, Ptypes.Exclusive ->
      set_block_state_private pcb b Ptypes.Exclusive;
      Alpha.Runtime.Run_in_hardware
  | _, Ptypes.Shared ->
      pcb.stats.sc_misses <- pcb.stats.sc_misses + 1;
      charge t.cfg.Config.costs.Config.miss_entry;
      let miss = issue pcb b Ptypes.Sc_upgrade MSc ~sc_store:(Some (addr, w, v)) () in
      ignore (stall_until pcb ~bucket:`Write (fun () -> miss.m_done));
      Alpha.Runtime.Handled miss.m_sc_ok
  | _, (Ptypes.Invalid | Ptypes.Pending) ->
      (* The line was lost since the LL: the SC fails without any
         protocol traffic. *)
      pcb.stats.sc_misses <- pcb.stats.sc_misses + 1;
      Alpha.Runtime.Handled false

(** [prefetch_excl pcb addr] — non-binding exclusive prefetch inserted
    before LL/SC loops (Section 3.1.2). *)
let prefetch_excl pcb addr =
  let t = pcb.eng in
  let b = block_of_addr t addr in
  if not (Hashtbl.mem pcb.outstanding b) then begin
    let _, shared = block_state pcb addr in
    match shared with
    | Ptypes.Exclusive | Ptypes.Pending -> ()
    | Ptypes.Shared | Ptypes.Invalid -> ignore (issue pcb b (store_request shared) MPrefetch ())
  end

(** [word_is_flag pcb addr] — used by the API-mode runtime to emulate the
    inline value comparison. *)
let word_is_flag pcb addr = Memimg.word_is_flag pcb.dom.img ~flag32:pcb.eng.cfg.Config.flag32 addr

let stats pcb = pcb.stats
let config t = t.cfg
let net t = t.net

(** Times the seeded {!mutation} bug was exercised. *)
let mutation_fires t = t.mutation_fires

(** Per-message invariant sweeps run so far (0 unless [check_invariants]). *)
let invariant_checks t = t.invariant_checks

let legal_transients t = t.legal_transients

(** [(migrations, bounces, in_flight)] — completed home transfers,
    requests bounced off a stale or in-flight home, and transfers whose
    entry is still in the transport (0 at quiescence). *)
let migration_stats t = (t.migrations, t.bounces, Hashtbl.length t.transfers)

(** Per-node [(entries received, entries given away, bounces taken)],
    for the cluster's per-node report. *)
let migration_by_node t =
  let nodes = (Mchan.Net.config t.net).Mchan.Net.nodes in
  let a = Array.make nodes (0, 0, 0) in
  List.iter
    (fun d ->
      let i, o, bn = a.(d.dom_node) in
      a.(d.dom_node) <- (i + d.homes_in, o + d.homes_out, bn + d.dom_bounces))
    t.domains;
  a

(** Per-region protocol traffic counters, indexed like the layout's
    regions.  A fresh snapshot summing the per-node shards. *)
let region_stats t =
  Array.init (Layout.n_regions t.layout) (fun ri ->
      Array.fold_left
        (fun acc per_node ->
          let r = per_node.(ri) in
          {
            r_read_misses = acc.r_read_misses + r.r_read_misses;
            r_store_misses = acc.r_store_misses + r.r_store_misses;
            r_invals = acc.r_invals + r.r_invals;
            r_recalls = acc.r_recalls + r.r_recalls;
            r_data_bytes = acc.r_data_bytes + r.r_data_bytes;
          })
        { r_read_misses = 0; r_store_misses = 0; r_invals = 0; r_recalls = 0; r_data_bytes = 0 }
        t.rstats)

(** [pp_layout_report ppf t] — per-region protocol traffic table.  The
    cluster layer wraps this with allocator fragmentation columns. *)
let pp_layout_report ppf t =
  Format.fprintf ppf "%-10s %5s %7s %9s %9s %7s %7s %10s@." "region" "block" "blocks"
    "read-miss" "store-miss" "invals" "recalls" "data-bytes";
  Array.iteri
    (fun ri r ->
      let reg = Layout.region t.layout ri in
      Format.fprintf ppf "%-10s %5d %7d %9d %9d %7d %7d %10d@." reg.Layout.r_name
        reg.Layout.r_block reg.Layout.r_n_blocks r.r_read_misses r.r_store_misses r.r_invals
        r.r_recalls r.r_data_bytes)
    (region_stats t)
