(** Per-home directory state.

    A home domain keeps, for every block it is home to, the current owner
    (a domain holding the block exclusive), the sharer set, and — while a
    coherence transaction is in flight — a busy record.  Conflicting
    requests arriving while busy are deferred in FIFO order, which is what
    serialises writes to the same location (a requirement of all the
    commercial memory models of Section 3.2.2).

    With the sharded directory, entries are no longer pinned to the home
    chosen at [init]: {!export} serialises an entry for a [Home_transfer]
    message and {!install} rebuilds it at the new home, sequence-number
    table included so receivers' in-order delivery continues seamlessly
    across the move. *)

type txn = {
  t_kind : Ptypes.req_kind;
  t_requester_domain : Ptypes.domain_id;
  t_requester_pid : int;
  mutable t_awaiting : int;  (** outstanding invalidation acks / writeback *)
  t_data : Bytes.t option;  (** snapshot to forward, when taken at txn start *)
}

type entry = {
  block : Ptypes.block_id;
  mutable owner : Ptypes.domain_id option;
  mutable sharers : Bytes.t;  (** bitset, bit [d] set iff domain [d] shares the block *)
  mutable sharers_order : Ptypes.domain_id list;
      (** the same set, most-recently-added first — the order the home
          fans out invalidations in, kept identical to the historical
          list representation so simulated timing is unchanged *)
  mutable busy : txn option;
  deferred : Ptypes.msg Queue.t;
  next_seq : (Ptypes.domain_id, int) Hashtbl.t;
      (** next sequence number per destination domain (see {!Ptypes.msg}) *)
  (* Home-reassignment policy observations (Config.homing): *)
  mutable last_excl : Ptypes.domain_id;  (** last exclusive requester, -1 = none *)
  mutable excl_streak : int;  (** consecutive exclusive requests from [last_excl] *)
  mutable want_home : Ptypes.domain_id option;
      (** policy verdict, consumed when the entry next goes quiescent *)
}

type t = { entries : (Ptypes.block_id, entry) Hashtbl.t; home_domain : Ptypes.domain_id }

(* The sharer set is a growable bitset (one bit per domain), so the only
   cap on domain ids is a sanity bound — 64-node and larger clusters
   need more domains than an int-wide mask could hold. *)
let max_domains = 4096

let check_domain d =
  if d < 0 || d >= max_domains then
    invalid_arg (Printf.sprintf "Directory: domain id %d outside 0..%d" d (max_domains - 1))

let create ~home_domain =
  check_domain home_domain;
  { entries = Hashtbl.create 1024; home_domain }

(* --- sharer bitset --- *)

let bitset_of_list ds =
  let top = List.fold_left max 0 ds in
  let bs = Bytes.make ((top / 8) + 1) '\000' in
  List.iter
    (fun d ->
      let i = d / 8 in
      Bytes.set bs i (Char.chr (Char.code (Bytes.get bs i) lor (1 lsl (d mod 8)))))
    ds;
  bs

let bit_set bs d =
  let i = d / 8 in
  i < Bytes.length bs && Char.code (Bytes.get bs i) land (1 lsl (d mod 8)) <> 0

(** New entries are born with the home domain as the only sharer: the
    home's memory image is initialised with valid (zero) data. *)
let entry t block =
  match Hashtbl.find_opt t.entries block with
  | Some e -> e
  | None ->
      let e =
        {
          block;
          owner = None;
          sharers = bitset_of_list [ t.home_domain ];
          sharers_order = [ t.home_domain ];
          busy = None;
          deferred = Queue.create ();
          next_seq = Hashtbl.create 4;
          last_excl = -1;
          excl_streak = 0;
          want_home = None;
        }
      in
      Hashtbl.replace t.entries block e;
      e

(** [find t block] is the entry for [block], without allocating one —
    the invariant checker must be able to look without perturbing. *)
let find t block = Hashtbl.find_opt t.entries block

(** [iter_entries f t] applies [f] to every allocated entry. *)
let iter_entries f t = Hashtbl.iter (fun _ e -> f e) t.entries

let is_sharer e d = bit_set e.sharers d

let add_sharer e d =
  check_domain d;
  if not (bit_set e.sharers d) then begin
    let i = d / 8 in
    if i >= Bytes.length e.sharers then begin
      let grown = Bytes.make (i + 1) '\000' in
      Bytes.blit e.sharers 0 grown 0 (Bytes.length e.sharers);
      e.sharers <- grown
    end;
    Bytes.set e.sharers i (Char.chr (Char.code (Bytes.get e.sharers i) lor (1 lsl (d mod 8))));
    e.sharers_order <- d :: e.sharers_order
  end

let remove_sharer e d =
  if bit_set e.sharers d then begin
    let i = d / 8 in
    Bytes.set e.sharers i
      (Char.chr (Char.code (Bytes.get e.sharers i) land lnot (1 lsl (d mod 8))));
    e.sharers_order <- List.filter (fun x -> x <> d) e.sharers_order
  end

let clear_sharers e =
  Bytes.fill e.sharers 0 (Bytes.length e.sharers) '\000';
  e.sharers_order <- []

let no_sharers e = e.sharers_order = []

(** [sharers_list e] — the sharer set as a domain-id list, most recently
    added first; compatibility accessor for fan-out, the invariant
    checker and the pretty-printing paths (membership tests use the mask
    directly). *)
let sharers_list e = e.sharers_order

(** [stamp e d] allocates the next sequence number for messages from this
    entry's home to domain [d]. *)
let stamp e d =
  let n = Option.value (Hashtbl.find_opt e.next_seq d) ~default:1 in
  Hashtbl.replace e.next_seq d (n + 1);
  n

(* --- entry transfer (sharded directory) --- *)

(** [export e] — the wire form of a quiescent entry: owner, sharer order
    and the per-destination sequence table.  The caller must ensure
    [e.busy = None] and an empty deferral queue; those cannot move. *)
let export e =
  if e.busy <> None || not (Queue.is_empty e.deferred) then
    invalid_arg "Directory.export: entry not quiescent";
  let seqs = Hashtbl.fold (fun d n acc -> (d, n) :: acc) e.next_seq [] in
  (e.owner, e.sharers_order, List.sort compare seqs)

(** [remove t block] — drop the entry after exporting it; the block's
    directory state now lives in the transport. *)
let remove t block = Hashtbl.remove t.entries block

(** [install t ~block ~owner ~sharers ~seqs] — rebuild a transferred
    entry at its new home.  [sharers] is most-recently-added first, as
    {!export} produced it; the sequence table continues where the old
    home stopped, so receivers' in-order apply logic never notices the
    move. *)
let install t ~block ~owner ~sharers ~seqs =
  if Hashtbl.mem t.entries block then
    invalid_arg (Printf.sprintf "Directory.install: entry for block %d already present" block);
  List.iter check_domain sharers;
  let e =
    {
      block;
      owner;
      sharers = (match sharers with [] -> Bytes.make 1 '\000' | ds -> bitset_of_list ds);
      sharers_order = sharers;
      busy = None;
      deferred = Queue.create ();
      next_seq = Hashtbl.create (max 4 (List.length seqs));
      last_excl = -1;
      excl_streak = 0;
      want_home = None;
    }
  in
  List.iter (fun (d, n) -> Hashtbl.replace e.next_seq d n) seqs;
  Hashtbl.replace t.entries block e;
  e
