(** The protocol engine: the shell that runs {!Core}'s transitions in the
    simulated cluster.  It owns the mailboxes and drains each Core step's
    outbox, charging the costs, sending at the running time cursor and
    running {!Invariants.check_msg} when [Config.check_invariants] is set.
    Fiber-side entry points ([load_miss], [store_miss], [mb], [batch],
    ...) are called from inside simulated processes and may stall;
    [service] is the poll hook, called from scheduler context.  Core is
    included, so [Protocol.Engine] names its types too. *)

include Core

type mailbox = Ptypes.msg Mchan.Mailbox.t

type pcb = {
  st : proc;  (** the process's protocol state *)
  sim_proc : Sim.Proc.t;
  mailbox : mailbox;
  dom_box : mailbox;  (** its domain's mailbox *)
  eng : t;
}

and t = {
  core : Core.t;
  net : Mchan.Net.t;
  pcbs : pcb Ptypes.Ids.t;
  boxes : mailbox Ptypes.Ids.t;  (** domain mailboxes, by domain id *)
}

let now t = Sim.Engine.now (Mchan.Net.engine t.net)

let block_of p addr = block_of_addr p.eng.core addr

let check t msg =
  if t.core.cfg.Config.check_invariants then Invariants.check_msg t.core ~time:(now t) msg

let add_box t id =
  if not (Ptypes.Ids.mem t.boxes id) then Ptypes.Ids.replace t.boxes id (Mchan.Mailbox.create ())

let create ~cfg ~net =
  let core = Core.create ~cfg ~nodes:(Mchan.Net.config net).Mchan.Net.nodes in
  let t = { core; net; pcbs = Ptypes.Ids.create (); boxes = Ptypes.Ids.create () } in
  List.iter (fun d -> add_box t d.dom_id) core.domains;
  t

(** [attach t proc] registers a simulated process with the protocol and
    returns its control block.  In Base-Shasta this creates a new
    coherence domain for the process; in SMP-Shasta it joins its node's
    domain.  Also installs the stall signal on [proc]. *)
let attach t (proc : Sim.Proc.t) =
  let node = proc.Sim.Proc.cpu.Sim.Proc.node_id in
  let st =
    Core.attach t.core ~pid:proc.Sim.Proc.pid ~node ~app:(proc.Sim.Proc.priority = 0)
  in
  add_box t st.dom.dom_id;
  let pcb =
    {
      st;
      sim_proc = proc;
      mailbox = Mchan.Mailbox.create ();
      dom_box = Ptypes.Ids.find t.boxes st.dom.dom_id;
      eng = t;
    }
  in
  Ptypes.Ids.replace t.pcbs st.pid pcb;
  proc.Sim.Proc.stall_signal <- Some (Mchan.Net.node_signal t.net node);
  pcb

(** [layout t] — the compiled region layout; variable granularity comes
    from [Config.regions] (Section 2.1), fixed before the engine exists. *)
let layout t = t.core.layout

let set_home t = Core.set_home t.core
let seed_mutation t = Core.seed_mutation t.core
let init ?homes t = Core.init ?homes t.core

(* --- draining the outbox --- *)

(* Wake [d]'s node when an LL monitor in its image was broken: spin
   waits stall until theirs is (DESIGN §6). *)
let[@inline] wake t d =
  if d.img.Memimg.breaks > 0 then begin
    d.img.Memimg.breaks <- 0;
    Sim.Signal.pulse (Mchan.Net.node_signal t.net d.dom_node)
  end

(* Every protocol message that crosses the network leaves through here,
   at time [at]; [deliver] runs at the destination on arrival. *)
let net_send t ~from_node ~at ~dst_node msg deliver =
  count_data t.core ~node:from_node msg;
  Mchan.Net.send t.net ~at ~block:(Ptypes.msg_block msg) ~src_node:from_node ~dst_node
    ~size:(Ptypes.msg_size msg) deliver

(* Drain the outbox of the Core step just taken at domain [d]: pay each
   cost on the cursor [cur] and send each message at the cursor's value. *)
let rec flush t d cur =
  let from_node = d.dom_node in
  wake t d;
  while not (Queue.is_empty d.outbox) do
    match Queue.take d.outbox with
    | Cost c -> cur := !cur +. c
    | Send (Self id, msg) -> Mchan.Mailbox.push (Ptypes.Ids.find t.boxes id) msg
    | Send (To_domain id, msg) ->
        let dst = domain_by_id t.core id and box = Ptypes.Ids.find t.boxes id in
        net_send t ~from_node ~at:!cur ~dst_node:dst.dom_node msg (fun () ->
            Mchan.Mailbox.push box msg)
    | Send (To_pid pid, msg) ->
        let p = Ptypes.Ids.find t.pcbs pid in
        net_send t ~from_node ~at:!cur ~dst_node:p.st.dom.dom_node msg (fun () ->
            Mchan.Mailbox.push p.mailbox msg)
    | Send (To_nic id, msg) ->
        let dst = domain_by_id t.core id in
        net_send t ~from_node ~at:!cur ~dst_node:dst.dom_node msg (fun () -> transport t dst msg)
  done

(* Transfer traffic is applied at domain [d]'s network interface on
   arrival. *)
and transport t d msg =
  apply_transport t.core msg;
  flush t d (ref (now t));
  match msg with Ptypes.Home_transfer _ -> check t msg | _ -> ()

(* --- the ordered-delivery service loop --- *)

(* Apply the messages of [parked] that are now in sequence order, then
   take one message from [box], parking it if it is early.  Returns
   whether anything moved.  Nothing is parked in the common case, which
   allocates nothing. *)
let serve_queue d parked box apply =
  let applied =
    match !parked with
    | [] -> false
    | ps -> (
        match List.partition (in_seq_order d) ps with
        | [], _ -> false
        | ready, rest ->
            parked := rest;
            d.n_parked <- d.n_parked - List.length ready;
            List.iter apply ready;
            true)
  in
  match Mchan.Mailbox.pop box with
  | Some msg ->
      if in_seq_order d msg then apply msg
      else begin
        parked := !parked @ [ msg ];
        d.n_parked <- d.n_parked + 1
      end;
      true
  | None -> applied

let service_slow p =
  let t = p.eng and d = p.st.dom in
  let start = now t in
  let cur = ref start in
  let apply msg =
    p.st.stats.messages_handled <- p.st.stats.messages_handled + 1;
    consume_seq d msg;
    handle t.core p.st msg;
    flush t d cur;
    check t msg
  in
  (* Our own mailbox first (only the requester may handle its replies,
     Section 6.5), then the shared domain mailbox (any local process may
     serve it), until neither moves. *)
  while
    let moved = serve_queue d p.st.parked p.mailbox apply in
    serve_queue d d.parked_dom p.dom_box apply || moved
  do
    ()
  done;
  (* A sibling's parked reply may have become applicable through our
     domain-side work.  If that sibling is signal-waiting it will never
     look again on its own, so wake the node; a running or ready sibling
     polls soon anyway (and pulsing for it would ping-pong the waiters
     on this node forever). *)
  if
    d.n_parked > 0
    && List.exists
         (fun m ->
           m != p.st
           && !(m.parked) != []
           && List.exists (in_seq_order d) !(m.parked)
           && (Ptypes.Ids.find t.pcbs m.pid).sim_proc.Sim.Proc.state = Sim.Proc.Waiting)
         d.members
  then Sim.Signal.pulse (Mchan.Net.node_signal t.net d.dom_node);
  !cur -. start

(* Idle fast path: polls vastly outnumber message arrivals, and the full
   drain above allocates (closures, [List.partition] pairs) even when
   every queue is empty.  The guard must also cover the end-of-drain
   sibling wake-up: a signal-waiting sibling with an in-order parked
   reply is owed a pulse even when {e this} process has nothing to do,
   so the fast path applies only when no member of the domain holds any
   parked message at all ([n_parked = 0]) — then the sibling scan is
   vacuously false and skipping the drain is exact. *)

(** [service pcb] is the poll hook: drains this process's own mailbox
    and then the domain mailbox, applying messages in per-block sequence
    order.  Returns the CPU seconds consumed.  Never called from fiber
    context. *)
let service p =
  let d = p.st.dom in
  if d.n_parked = 0 && Mchan.Mailbox.is_empty p.mailbox && Mchan.Mailbox.is_empty p.dom_box
  then 0.0
  else service_slow p

(* --- fiber-side entry points --- *)

let charge dt = if dt > 0.0 then Sim.Proc.work dt
let costs p = p.eng.core.cfg.Config.costs

(* Stall until [pred] holds, charging the wait to [bucket]. *)
let stall_until p ~bucket pred =
  let eng = Mchan.Net.engine p.eng.net in
  let t0 = Sim.Engine.now eng in
  Sim.Proc.stall pred;
  let dt = Sim.Engine.now eng -. t0 in
  let s = p.st.stats in
  match bucket with
  | `Read -> s.read_stall <- s.read_stall +. dt
  | `Write -> s.write_stall <- s.write_stall +. dt
  | `Mb -> s.mb_stall <- s.mb_stall +. dt

let wait p ~bucket miss = stall_until p ~bucket (fun () -> miss.m_done)

(** [block_state pcb addr] — the (private, domain-shared) state pair of
    the coherence block covering [addr]. *)
let block_state p addr =
  let b = block_of p addr in
  (private_state p.st b, shared_state p.st.dom b)

(** [private_state_at pcb addr] — just the private-table state of the block
    covering [addr]; the allocation-free form of [fst (block_state ...)]
    for the inline-check fast paths. *)
let private_state_at p addr = private_state p.st (block_of p addr)

(* Issue a request to the home; non-blocking (caller stalls if desired). *)
let issue ?store p b kind mkind =
  let miss = Core.issue p.eng.core p.st b kind mkind store in
  flush p.eng p.st.dom (ref (now p.eng));
  charge (costs p).Config.send;
  miss

(* Our own outstanding miss on block [b] goes to [busy]; otherwise [k]
   inspects the block's (private, shared) state. *)
let inspect p b ~busy k =
  match Ptypes.Itbl.find_opt p.st.outstanding b with
  | Some miss -> busy miss
  | None -> k (private_state p.st b) (shared_state p.st.dom b)

(* Wait out our own outstanding miss on [b], if any.  Allocates
   nothing when there is none. *)
let rec settle p ~bucket b =
  match Ptypes.Itbl.find_opt p.st.outstanding b with
  | Some miss ->
      wait p ~bucket miss;
      settle p ~bucket b
  | None -> ()

(* The request that makes a non-exclusive block writable: a Shared copy
   only needs upgrading, anything else needs the data too. *)
let store_request shared = if shared = Ptypes.Shared then Ptypes.Upgrade else Ptypes.Read_ex

(* Reissue stores that executed after a batch while their line had been
   downgraded (Section 4.1), and apply deferred flag writes.  Runs at
   every protocol entry outside a batch. *)
let rec apply_deferred p =
  let s = p.st in
  if not s.in_batch then begin
    (match s.deferred_flags with
    | [] -> ()
    | blocks ->
        s.deferred_flags <- [];
        List.iter
          (fun b ->
            (* Only flag blocks that are still invalid. *)
            if shared_state s.dom b = Ptypes.Invalid then
              Memimg.write_flags s.dom.img ~block:b)
          blocks;
        wake p.eng s.dom);
    s.watch_blocks <- [];
    match s.reissue with
    | [] -> ()
    | stores ->
        s.reissue <- [];
        List.iter
          (fun (addr, w, v) ->
            s.stats.reissued_stores <- s.stats.reissued_stores + 1;
            reissue_store p addr w v)
          (List.rev stores);
        wake p.eng s.dom
  end

and reissue_store p addr w v =
  let b = block_of p addr in
  match shared_state p.st.dom b with
  | Ptypes.Exclusive ->
      set_private p.st b Ptypes.Exclusive;
      Memimg.write ~pid:p.st.pid p.st.dom.img addr w v
  | shared ->
      inspect p b
        ~busy:(fun miss -> record_store p.st.dom miss addr w v)
        (fun _ _ -> record_store p.st.dom (issue p b (store_request shared) MStore) addr w v)

(* Ensure the block is readable; blocking.

   The protocol-entry cost is paid up front: between the final state
   inspection and the caller's access there must be no suspension
   (Section 2.3's check/access atomicity — a [charge] yields to the
   scheduler, during which a recall could invalidate the line under us). *)
let ensure_read p addr =
  let b = block_of p addr in
  charge (costs p).Config.intra_node_hit;
  let rec go () =
    settle p ~bucket:`Read b;
    match shared_state p.st.dom b with
    | (Ptypes.Shared | Ptypes.Exclusive) as shared ->
        (* Intra-node resolution: another process of the domain holds
           the data; just refresh the private table. *)
        p.st.stats.intra_hits <- p.st.stats.intra_hits + 1;
        set_private p.st b shared
    | Ptypes.Invalid | Ptypes.Pending ->
        wait p ~bucket:`Read (issue p b Ptypes.Read MRead);
        go ()
  in
  go ()

(** [load_miss pcb value addr w] — the slow path of the inline load check:
    the loaded [value] equalled the flag.  Distinguishes false misses from
    real ones; returns the definitive value.  Loops like the re-executed
    inline check does: the line may be invalidated again in the very poll
    pass that completed the miss (reply and a later invalidation applied
    back-to-back, in order). *)
let rec load_miss p addr w =
  charge (costs p).Config.miss_entry;
  apply_deferred p;
  let _, shared = block_state p addr in
  match shared with
  | Ptypes.Shared | Ptypes.Exclusive ->
      (* False miss: the data genuinely contains the flag value. *)
      p.st.stats.false_misses <- p.st.stats.false_misses + 1;
      Memimg.read p.st.dom.img addr w
  | Ptypes.Invalid | Ptypes.Pending ->
      ensure_read p addr;
      let v = Memimg.read p.st.dom.img addr w in
      if v = Config.flag_value w then load_miss p addr w else v

(** Store buffer depth before stalling ([Rc]: an [Sc] store waits). *)
let max_outstanding_stores = 16

(** [store_miss pcb addr] — slow path of the inline store check: make the
    block writable, or a miss outstanding on it, bounded by
    [max_outstanding_stores].  Like [ensure_read], all costs are charged
    before the final state inspection: the caller's store follows with no
    intervening suspension, so the decision cannot go stale (the Section
    2.3 race).  A store that finds a miss outstanding rides it:
    [raw_write] records it, or, under [Sc], carries it to the grant. *)
let store_miss p addr =
  let b = block_of p addr in
  charge (costs p).Config.miss_entry;
  apply_deferred p;
  if p.st.n_outstanding_stores >= max_outstanding_stores then
    stall_until p ~bucket:`Write (fun () -> p.st.n_outstanding_stores < max_outstanding_stores);
  charge (costs p).Config.intra_node_hit;
  inspect p b ~busy:ignore (fun _ shared ->
      match shared with
      | Ptypes.Exclusive ->
          p.st.stats.intra_hits <- p.st.stats.intra_hits + 1;
          set_private p.st b Ptypes.Exclusive
      | Ptypes.Shared | Ptypes.Invalid | Ptypes.Pending ->
          (* Pending means a recall of our exclusive copy, or a
             sibling's miss, is in flight: go through the home. *)
          ignore (issue p b (store_request shared) MStore))

(** Raw memory access used by the runtime for the actual load/store
    instructions.  Stores are intercepted: while a miss is outstanding on
    the block, the store is recorded for replay over the arriving data
    ([Rc]) or carried to the grant ([Sc]); after a batch, stores to
    since-downgraded lines are recorded for reissue (Section 4.1). *)
let raw_read p addr w = Memimg.read p.st.dom.img addr w

(** Region copies for OS syscall buffers (post-validation DMA). *)
let raw_blit_out p ~addr ~len buf off = Memimg.blit_out p.st.dom.img ~addr ~len buf off

let raw_blit_in p ~addr buf off len =
  Memimg.blit_in p.st.dom.img ~addr buf off len;
  wake p.eng p.st.dom

(** Raw hardware LL/SC against the node image (monitors per process). *)
let raw_ll p addr w = Memimg.ll p.st.dom.img ~pid:p.st.pid addr w

let raw_sc p addr w v =
  let ok = Memimg.sc p.st.dom.img ~pid:p.st.pid addr w v in
  wake p.eng p.st.dom;
  ok

(* An [Sc] store on a block with our own miss outstanding rides the
   miss: Core performs it at the grant.  The wait runs with [in_app]
   cleared, so a recall can downgrade us directly meanwhile. *)
let carry p miss addr w v =
  let in_app = !(p.st.in_app) in
  miss.m_store <- Some (addr, w, v);
  p.st.in_app := false;
  wait p ~bucket:`Write miss;
  p.st.in_app := in_app

let raw_write p addr w v =
  let s = p.st in
  let b = block_of p addr in
  (* The dominant case — no miss outstanding, no watched blocks — must
     not hash or allocate.  A store is bound-checked before it is
     recorded or carried: one that does not fit the image would fail
     again when the reply arrives. *)
  let carried =
    (Ptypes.Itbl.length s.outstanding > 0 || s.watch_blocks <> [])
    &&
    (Memimg.check s.dom.img addr (Alpha.Insn.bytes_of_width w);
     match Ptypes.Itbl.find_opt s.outstanding b with
     | Some miss when shared_state s.dom b <> Ptypes.Exclusive ->
         if p.eng.core.cfg.Config.model = Config.Sc then (carry p miss addr w v; true)
         else (record_store s.dom miss addr w v; false)
     | Some _ -> false (* in a block the domain owns, performed at once *)
     | None ->
         if List.mem b s.watch_blocks && shared_state s.dom b <> Ptypes.Exclusive then
           s.reissue <- (addr, w, v) :: s.reissue;
         false)
  in
  if not carried then begin
    Memimg.write ~pid:s.pid s.dom.img addr w v;
    wake p.eng s.dom
  end

(** [mb pcb] — the protocol part of a memory barrier: complete all
    outstanding (non-blocking) stores and service pending invalidations. *)
let mb p =
  charge (Config.mb_cost p.eng.core.cfg);
  apply_deferred p;
  if p.st.n_outstanding_stores > 0 then
    stall_until p ~bucket:`Mb (fun () -> p.st.n_outstanding_stores = 0)

(** [poll pcb] — fiber-side poll (the inline 3-instruction poll's cycle
    cost is charged by the interpreter); message servicing itself happens
    through the scheduler's poll hook, so nothing to do here beyond
    deferred work. *)
let poll p = apply_deferred p

(** [batch pcb accesses] — the batch miss handler (Sections 2.2, 4.1):
    bring every line of the batch into the needed state, issuing the
    fetches in parallel, then let the batched code run.  Lines that are
    invalidated or downgraded before the batched code executes are
    handled by deferred flag writes and store reissues.  An access can
    straddle a block boundary only if misaligned, which the interpreter
    rejects; a single block per access suffices. *)
let batch p accesses =
  let s = p.st and block (addr, _, _) = block_of p addr in
  charge (costs p).Config.miss_entry;
  apply_deferred p;
  s.in_batch <- true;
  s.batch_blocks <- List.sort_uniq compare (List.map block accesses);
  let misses = ref [] in
  List.iter
    (fun ((_, _, kind) as acc) ->
      let b = block acc in
      inspect p b
        ~busy:(fun miss -> misses := miss :: !misses)
        (fun _ shared ->
          match (kind, shared) with
          | _, Ptypes.Exclusive -> set_private s b Ptypes.Exclusive
          | Alpha.Insn.Load_acc, Ptypes.Shared -> set_private s b Ptypes.Shared
          | Alpha.Insn.Load_acc, (Ptypes.Invalid | Ptypes.Pending) ->
              misses := issue p b Ptypes.Read MRead :: !misses
          | Alpha.Insn.Store_acc, (Ptypes.Shared | Ptypes.Invalid | Ptypes.Pending) ->
              misses := issue p b (store_request shared) MStore :: !misses))
    accesses;
  (match !misses with
  | [] -> ()
  | ms -> stall_until p ~bucket:`Read (fun () -> List.for_all (fun m -> m.m_done) ms));
  s.in_batch <- false;
  (* Watch the store targets until the next protocol entry. *)
  s.watch_blocks <-
    List.sort_uniq compare
      (List.filter_map
         (fun ((_, _, kind) as acc) ->
           match kind with
           | Alpha.Insn.Store_acc -> Some (block acc)
           | Alpha.Insn.Load_acc -> None)
         accesses);
  s.batch_blocks <- []

(** [ll_ensure pcb addr] — inline code before a load-locked: fetch the
    line if needed and remember whether it was exclusive (deciding the
    hardware vs protocol path for the following SC, Section 3.1.2).  One
    of our own misses (e.g. a non-blocking store upgrade) in flight on
    the block is waited out before the LL path is decided. *)
let ll_ensure p addr =
  apply_deferred p;
  let s = p.st and b = block_of p addr in
  settle p ~bucket:`Read b;
  (match (shared_state s.dom b, private_state s b) with
  | (Ptypes.Invalid | Ptypes.Pending), _ ->
      charge (costs p).Config.miss_entry;
      ensure_read p addr
  | ((Ptypes.Shared | Ptypes.Exclusive) as shared), (Ptypes.Invalid | Ptypes.Pending) ->
      set_private s b shared
  | (Ptypes.Shared | Ptypes.Exclusive), (Ptypes.Shared | Ptypes.Exclusive) -> ());
  s.last_ll <- (if private_state s b = Ptypes.Exclusive then b else -1)

(** [sc_check pcb addr w v] — inline code before a store-conditional. *)
let sc_check p addr w v =
  apply_deferred p;
  let s = p.st and b = block_of p addr in
  settle p ~bucket:`Write b;
  match (private_state s b, shared_state s.dom b) with
  | Ptypes.Exclusive, _ when s.last_ll = b ->
      (* Fast path: run the SC in hardware; the memory-image monitor
         decides success. *)
      Alpha.Runtime.Run_in_hardware
  | _, Ptypes.Exclusive ->
      set_private s b Ptypes.Exclusive;
      Alpha.Runtime.Run_in_hardware
  | _, Ptypes.Shared ->
      charge (costs p).Config.miss_entry;
      let miss = issue p b Ptypes.Sc_upgrade MSc ~store:(addr, w, v) in
      wait p ~bucket:`Write miss;
      Alpha.Runtime.Handled (Option.is_none miss.m_store)
  | _, (Ptypes.Invalid | Ptypes.Pending) ->
      (* The line was lost since the LL: the SC fails without any
         protocol traffic. *)
      Alpha.Runtime.Handled false

(** [prefetch_excl pcb addr] — non-binding exclusive prefetch inserted
    before LL/SC loops (Section 3.1.2). *)
let prefetch_excl p addr =
  let b = block_of p addr in
  inspect p b ~busy:ignore (fun _ shared ->
      match shared with
      | Ptypes.Exclusive | Ptypes.Pending -> ()
      | Ptypes.Shared | Ptypes.Invalid -> ignore (issue p b (store_request shared) MPrefetch))

(* --- accessors --- *)

let stats p = p.st.stats
let net t = t.net

(** Times the seeded {!mutation} bug was exercised. *)
let mutation_fires t = t.core.mutation_fires

(** Per-message invariant sweeps run so far (0 unless [check_invariants]). *)
let invariant_checks t = t.core.invariant_checks

let legal_transients t = t.core.legal_transients

(** [check_quiescent t] — {!Invariants.check_quiescent}, counting the
    messages still waiting in the mailboxes. *)
let check_quiescent t =
  Invariants.check_quiescent t.core
    ~dom_backlog:(fun id -> Mchan.Mailbox.length (Ptypes.Ids.find t.boxes id))
    ~pid_backlog:(fun pid -> Mchan.Mailbox.length (Ptypes.Ids.find t.pcbs pid).mailbox)

(** [(migrations, bounces, in_flight)] — completed home transfers,
    requests bounced off a stale or in-flight home, and transfers whose
    entry is still in the transport (0 at quiescence). *)
let migration_stats t = (t.core.migrations, t.core.bounces, Ptypes.Itbl.length t.core.transfers)

(** Per-node [(entries received, entries given away, bounces taken)],
    for the cluster's nodes table. *)
let migration_by_node t =
  let a = Array.make (Array.length t.core.rstats) (0, 0, 0) in
  List.iter
    (fun d ->
      let i, o, bn = a.(d.dom_node) in
      a.(d.dom_node) <- (i + d.homes_in, o + d.homes_out, bn + d.dom_bounces))
    t.core.domains;
  a

(** Per-region protocol traffic counters, indexed like the layout's
    regions.  A fresh snapshot summing the per-node shards. *)
let region_stats t =
  Array.init (Layout.n_regions t.core.layout) (fun ri ->
      Array.fold_left
        (fun acc per_node ->
          let r = per_node.(ri) in
          {
            r_read_misses = acc.r_read_misses + r.r_read_misses;
            r_store_misses = acc.r_store_misses + r.r_store_misses;
            r_sc_misses = acc.r_sc_misses + r.r_sc_misses;
            r_prefetch_misses = acc.r_prefetch_misses + r.r_prefetch_misses;
            r_invals = acc.r_invals + r.r_invals;
            r_recalls = acc.r_recalls + r.r_recalls;
            r_data_bytes = acc.r_data_bytes + r.r_data_bytes;
          })
        (zero_rstat ()) t.core.rstats)

(** [region_table t] — {!region_stats} with each region's geometry, one
    row per region.  The cluster layer adds the allocator's columns. *)
let region_table t =
  let row ri r =
    let reg = Layout.region t.core.layout ri in
    ( reg.Layout.r_name,
      Sim.Stats.ints
        [ reg.Layout.r_block; reg.Layout.r_n_blocks; r.r_read_misses; r.r_store_misses;
          r.r_sc_misses; r.r_prefetch_misses; r.r_invals; r.r_recalls; r.r_data_bytes ] )
  in
  {
    Sim.Stats.title = "regions";
    columns =
      [ "region"; "block_bytes"; "blocks"; "read_misses"; "store_misses"; "sc_misses";
        "prefetch_misses"; "invals"; "recalls"; "data_bytes" ];
    rows = Array.to_list (Array.mapi row (region_stats t));
  }

(** [pid_table t] — each attached process's {!stats}, in pid order. *)
let pid_table t =
  let row p =
    let s = p.stats in
    ( string_of_int p.pid,
      Sim.Stats.ints
        [ s.read_misses; s.store_misses; s.sc_misses; s.prefetch_misses; s.intra_hits;
          s.false_misses; s.messages_handled; s.downgrades_direct; s.downgrades_msg;
          s.reissued_stores; s.bounces ] )
  in
  {
    Sim.Stats.title = "protocol per pid";
    columns =
      [ "pid"; "read_misses"; "store_misses"; "sc_misses"; "prefetch_misses"; "intra_hits";
        "false_misses"; "messages"; "downgrades_direct"; "downgrades_msg"; "reissued_stores";
        "bounces" ];
    rows = List.filter_map (Option.map row) (Array.to_list t.core.procs.Ptypes.Ids.slots);
  }
