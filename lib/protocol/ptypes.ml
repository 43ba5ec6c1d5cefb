(** Core protocol types: line states, request kinds, messages.

    Shared data has three basic states at each coherence domain (process
    in Base-Shasta, SMP node in SMP-Shasta): invalid, shared, exclusive
    (Section 2.1); [Pending] marks lines with an outstanding miss. *)

type state = Invalid | Shared | Exclusive | Pending

(** Request kinds (Section 2.1 plus the store-conditional upgrade of
    Section 3.1.2). *)
type req_kind =
  | Read
  | Read_ex
  | Upgrade  (** exclusive request when the requester already holds a shared copy *)
  | Sc_upgrade  (** upgrade for a store-conditional: fails rather than fetching *)

type domain_id = int
type line_id = int
type block_id = int

(** The protocol's tables keyed by ints: blocks, domains, locks,
    barriers.  The hash is written in OCaml ([Int.hash] calls the C
    [caml_hash]) and equality is [Int.equal], not the polymorphic
    compare, so a lookup calls no C.  Iteration follows the hash, so no
    result may depend on it. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(** A table keyed by small dense ids (process and domain ids): an array
    grown on demand, [None] where no id is registered.  [find] raises
    [Not_found] for an absent id, as [Hashtbl.find] does. *)
module Ids = struct
  type 'a t = { mutable slots : 'a option array }

  let create () = { slots = [||] }
  let find_opt t i = if i >= 0 && i < Array.length t.slots then t.slots.(i) else None
  let find t i = match find_opt t i with Some x -> x | None -> raise Not_found
  let mem t i = Option.is_some (find_opt t i)

  let replace t i x =
    let n = Array.length t.slots in
    if i >= n then begin
      let slots = Array.make (max (i + 1) (2 * n)) None in
      Array.blit t.slots 0 slots 0 n;
      t.slots <- slots
    end;
    t.slots.(i) <- Some x
end

(** Protocol messages.  Requests, acknowledgements and writebacks are
    addressed to a {e domain} (any process of the domain may service
    them); replies and intra-node downgrades are addressed to a specific
    {e process}.

    Home-originated messages that change a domain's state for a block carry
    a per-[(block, destination domain)] sequence number [seq]; receivers
    apply them strictly in order, parking early arrivals.  This closes the
    race where a recall or invalidation is serviced by one process of a
    node before a sibling has applied the grant that logically precedes
    it. *)
type msg =
  | Request of { kind : req_kind; block : block_id; from_domain : domain_id; from_pid : int }
  | Data_reply of {
      block : block_id;
      data : Bytes.t;
      exclusive : bool;
      to_pid : int;
      seq : int;
    }
  | Ack_exclusive of { block : block_id; to_pid : int; seq : int }
      (** upgrade granted: no data needed, all invalidations done *)
  | Sc_result of { block : block_id; ok : bool; to_pid : int; seq : int }
  | Invalidate of { block : block_id; home_domain : domain_id; seq : int }
      (** home tells a sharer to drop its copy and ack back to the home *)
  | Recall of { block : block_id; to_shared : bool; home_domain : domain_id; seq : int }
      (** home tells the exclusive owner to downgrade (or drop) and write
          the dirty data back *)
  | Writeback of { block : block_id; data : Bytes.t; from_domain : domain_id }
  | Inval_ack of { block : block_id; from_domain : domain_id }
  | Downgrade of { block : block_id; to_state : state; to_pid : int; from_domain : domain_id }
      (** SMP-Shasta intra-node private-state-table downgrade (Section 2.3) *)
  | Downgrade_ack of { block : block_id; from_pid : int }
  | Home_transfer of {
      block : block_id;
      owner : domain_id option;
      sharers : domain_id list;  (** most-recently-added first, like the entry *)
      seqs : (domain_id * int) list;  (** per-destination next-sequence table *)
      data : Bytes.t option;
          (** the home copy, carried when there is no owner: the new home
              must be able to serve data replies from its own image *)
      from_domain : domain_id;
    }
      (** serialised directory entry moving to a new home domain; between
          send and receive the block's directory state lives in the
          transport.  Applied on arrival at the network interface
          (Memory-Channel remote-write semantics), never mailboxed. *)
  | Home_transfer_ack of { block : block_id; from_domain : domain_id }
      (** new home confirms installation back to the old home *)
  | Home_hint of { block : block_id; home : domain_id; to_pid : int }
      (** bounce: a request reached a domain that is not (or no longer)
          the block's home; the requester updates its shard-map hint and
          re-issues to [home] *)

let msg_size = function
  | Request _ -> 32
  | Data_reply { data; _ } -> 32 + Bytes.length data
  | Ack_exclusive _ -> 32
  | Sc_result _ -> 32
  | Invalidate _ -> 32
  | Recall _ -> 32
  | Writeback { data; _ } -> 32 + Bytes.length data
  | Inval_ack _ -> 32
  | Downgrade _ -> 32
  | Downgrade_ack _ -> 32
  | Home_transfer { sharers; seqs; data; _ } ->
      48
      + (8 * List.length sharers)
      + (16 * List.length seqs)
      + (match data with Some d -> Bytes.length d | None -> 0)
  | Home_transfer_ack _ -> 32
  | Home_hint _ -> 32

(** [msg_block m] — the coherence block message [m] concerns. *)
let msg_block = function
  | Request { block; _ }
  | Data_reply { block; _ }
  | Ack_exclusive { block; _ }
  | Sc_result { block; _ }
  | Invalidate { block; _ }
  | Recall { block; _ }
  | Writeback { block; _ }
  | Inval_ack { block; _ }
  | Downgrade { block; _ }
  | Downgrade_ack { block; _ }
  | Home_transfer { block; _ }
  | Home_transfer_ack { block; _ }
  | Home_hint { block; _ } ->
      block

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with Read -> "read" | Read_ex -> "read_ex" | Upgrade -> "upgrade" | Sc_upgrade -> "sc_upgrade")

