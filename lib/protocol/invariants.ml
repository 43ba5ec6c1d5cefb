(** The coherence invariant checker over {!Core}'s state (the probe of
    lib/check).

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

    {!check_block} is cheap (O(domains x members)) and is run after every
    protocol message, scoped to that message's block and its immediate
    neighbours (flag extents can only overrun into an adjacent block),
    when [Config.check_invariants] is set; {!check_quiescent} sweeps the
    whole state and is meant for the end of a run. *)

open Core

exception
  Coherence_violation of { block : int; time : float; violations : string list }

let () =
  Printexc.register_printer (function
    | Coherence_violation { block; time; violations } ->
        Some
          (Printf.sprintf "Protocol.Invariants.Coherence_violation (block %d at %.9g: %s)"
             block time
             (String.concat "; " violations))
    | _ -> None)

(* A block is quiet when no transaction, miss, deferred flag write or
   post-batch reissue anywhere can still touch it: only then may family
   4 compare Shared replicas byte-for-byte.  A block whose directory
   entry is mid-transfer is never quiet — the entry lives in the
   transport; the home lookup chases the current home. *)
let block_quiet t b =
  (not (Ptypes.Itbl.mem t.transfers b))
  && (let home = domain_by_id t (home_domain_of_block t b) in
     match Directory.find home.dir b with
     | Some e -> e.Directory.busy = None && Queue.is_empty e.Directory.deferred
     | None -> true)
  && List.for_all
       (fun d ->
         (not (Ptypes.Itbl.mem d.pending_local b))
         && List.for_all
              (fun m ->
                (not (Ptypes.Itbl.mem m.outstanding b))
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
  let dom_state d = shared_state d b in
  let sharers e = String.concat "," (List.map string_of_int (Directory.sharers_list e)) in
  let domains = t.domains in
  (* family 3: private vs shared monotonicity *)
  List.iter
    (fun d ->
      let ds = dom_state d in
      List.iter
        (fun m ->
          match (private_state m b, ds) with
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
  (match List.filter (fun d -> dom_state d = Ptypes.Exclusive) domains with
  | [] -> ()
  | [ e ] ->
      List.iter
        (fun d ->
          if d != e && dom_state d = Ptypes.Shared then
            err "dom%d Shared while dom%d Exclusive" d.dom_id e.dom_id)
        domains
  | ds ->
      err "multiple Exclusive holders: [%s]"
        (String.concat "," (List.map (fun d -> string_of_int d.dom_id) ds)));
  (* family 2: directory agreement, only at a quiet entry whose home is
     not in flight — mid-transfer the entry lives in the transport and
     there is nothing at any home to cross-check against.  The lookup
     chases the block's current home, wherever migration put it. *)
  (if Ptypes.Itbl.mem t.transfers b then ()
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
                err "owner dom%d with non-empty sharer set [%s]" o (sharers entry);
              (match dom_state (domain_by_id t o) with
              | Ptypes.Exclusive | Ptypes.Pending -> ()
              | (Ptypes.Shared | Ptypes.Invalid)
                when List.exists
                       (fun m -> Ptypes.Itbl.mem m.outstanding b)
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
                        err "dom%d Shared but not in the sharer set [%s]" d.dom_id (sharers entry)
                  | _ -> ())
                domains)));
  List.rev !errs

(** [check_msg t ~time msg] — run after [msg] is applied, scoped to its
    block and that block's immediate neighbours: a flag write overrunning
    the block's layout extent can only land in an adjacent block.  Raises
    {!Coherence_violation}, stamped [time]. *)
let check_msg t ~time msg =
  t.invariant_checks <- t.invariant_checks + 1;
  let b = Ptypes.msg_block msg in
  let check b' =
    if Layout.valid_block t.layout b' then
      match check_block t b' with
      | [] -> ()
      | violations -> raise (Coherence_violation { block = b'; time; violations })
  in
  check b;
  check (b - 1);
  check (b + 1)

(* The blocks some table, directory, transfer or migration holds, in
   order.  Every other block is as [init] left it — Shared at its static
   home alone, with no directory entry — which {!check_block} accepts,
   so the sweep skips it. *)
let held_blocks t =
  let hi = ref 0 and extra = Ptypes.Itbl.create 16 in
  let note b = if b >= !hi && Layout.valid_block t.layout b then Ptypes.Itbl.replace extra b () in
  List.iter
    (fun d ->
      hi := max !hi (Bytes.length d.shared_tab);
      List.iter (fun m -> hi := max !hi (Bytes.length m.private_tab)) d.members)
    t.domains;
  List.iter (fun d -> Directory.iter_entries (fun e -> note e.Directory.block) d.dir) t.domains;
  Ptypes.Itbl.iter (fun b _ -> note b) t.transfers;
  Ptypes.Itbl.iter (fun b _ -> note b) t.moved;
  List.init !hi Fun.id
  @ List.sort Int.compare (Ptypes.Itbl.fold (fun b () acc -> b :: acc) extra [])

(** [check_quiescent t ~dom_backlog ~pid_backlog] — full-state sweep for
    a protocol that should be at rest: no transaction, message, miss or
    Pending line may remain, and every block must satisfy {!check_block}
    (only the blocks some state holds are visited: see {!held_blocks}).
    [dom_backlog id] and [pid_backlog pid] count the messages still
    waiting in a domain's and a process's mailbox.  Returns the
    violations (empty = coherent). *)
let check_quiescent t ~dom_backlog ~pid_backlog =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  Ptypes.Itbl.iter
    (fun b tr ->
      err "block %d: home transfer dom%d -> dom%d still in flight" b tr.tr_from tr.tr_to)
    t.transfers;
  if t.transfer_acks <> t.migrations then
    err "%d home transfers installed but %d acknowledged" t.migrations t.transfer_acks;
  List.iter
    (fun d ->
      let n = dom_backlog d.dom_id in
      if n > 0 then err "dom%d: %d unserviced domain messages" d.dom_id n;
      if !(d.parked_dom) <> [] then
        err "dom%d: %d parked domain messages" d.dom_id (List.length !(d.parked_dom));
      if Ptypes.Itbl.length d.pending_local > 0 then
        err "dom%d: %d incomplete local recalls" d.dom_id (Ptypes.Itbl.length d.pending_local);
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
          let n = pid_backlog m.pid in
          if n > 0 then err "pid%d: %d unserviced replies" m.pid n;
          if !(m.parked) <> [] then err "pid%d: %d parked replies" m.pid (List.length !(m.parked));
          Ptypes.Itbl.iter
            (fun b _ -> err "pid%d: outstanding miss on block %d" m.pid b)
            m.outstanding;
          if m.n_outstanding_stores <> 0 then
            err "pid%d: %d outstanding stores" m.pid m.n_outstanding_stores)
        d.members)
    t.domains;
  List.iter
    (fun b ->
      List.iter
        (fun d ->
          if shared_state d b = Ptypes.Pending then err "dom%d: block %d stuck Pending" d.dom_id b;
          List.iter
            (fun m ->
              if private_state m b = Ptypes.Pending then
                err "pid%d: block %d stuck Pending (private)" m.pid b)
            d.members)
        t.domains;
      match check_block t b with [] -> () | es -> errs := List.rev_append es !errs)
    (held_blocks t);
  List.rev !errs
