(** Static home placement, as a rule rather than a per-block array.

    A block's static home is the domain of the last {!set} range that
    covers it (the home placement optimisation of Section 6.4), else
    [stripe.(b mod n)], the default stripe that [Core.init] fixes with
    {!place}.  Before [init] the stripe is empty and an uncovered block
    has no home (-1).  Nothing here is sized by the segment: the rule
    costs the same at 64 KB and at 64 MB.  The rule holds data, not
    closures, so [Core.t] still marshals. *)

module Imap = Map.Make (Int)

type t = {
  mutable pending : (int * int * int) list;
      (** [(first, last, domain)] ranges not yet in the arrays, latest first *)
  mutable first : int array;  (** disjoint override ranges, sorted by first block *)
  mutable last : int array;
  mutable dom : int array;
  mutable stripe : int array;  (** the default homes; empty until [init] *)
}

let create () = { pending = []; first = [||]; last = [||]; dom = [||]; stripe = [||] }

(** [set h ~first ~last ~domain] homes blocks [first..last] at
    [domain]; a later range wins where ranges overlap. *)
let set h ~first ~last ~domain =
  if first <= last then h.pending <- (first, last, domain) :: h.pending

(* Cut [first..last] out of the disjoint ranges in [m], then add it:
   the ranges it overlaps start at the one holding [first], if any. *)
let insert m (first, last, domain) =
  let from =
    match Imap.find_last_opt (fun k -> k < first) m with
    | Some (f, (l, _)) when l >= first -> f
    | Some _ | None -> first
  in
  Imap.to_seq_from from m
  |> Seq.take_while (fun (f, _) -> f <= last)
  |> Seq.fold_left
       (fun acc (f, (l, d)) ->
         let acc = Imap.remove f acc in
         let acc = if f < first then Imap.add f (first - 1, d) acc else acc in
         if l > last then Imap.add (last + 1) (l, d) acc else acc)
       m
  |> Imap.add first (last, domain)

(* Fold the pending ranges, if any, into the sorted arrays, oldest
   first. *)
let compile h =
  match h.pending with
  | [] -> ()
  | pending ->
      let m = ref Imap.empty in
      Array.iteri (fun i f -> m := Imap.add f (h.last.(i), h.dom.(i)) !m) h.first;
      List.iter (fun r -> m := insert !m r) (List.rev pending);
      let ranges = Array.of_list (Imap.bindings !m) in
      h.first <- Array.map fst ranges;
      h.last <- Array.map (fun (_, (l, _)) -> l) ranges;
      h.dom <- Array.map (fun (_, (_, d)) -> d) ranges;
      h.pending <- []

(* The first range that ends at or after block [b] (the ranges are
   disjoint and sorted, so their last blocks are sorted too), or the
   number of ranges. *)
let next_range h b =
  compile h;
  let lo = ref 0 and hi = ref (Array.length h.last) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if h.last.(mid) < b then lo := mid + 1 else hi := mid
  done;
  !lo

let striped h b =
  let n = Array.length h.stripe in
  if n = 0 then -1 else h.stripe.(b mod n)

(** [static_home h b] — where block [b] starts: its override, else its
    stripe slot; -1 before [init] for a block no range covers. *)
let static_home h b =
  let i = next_range h b in
  if i < Array.length h.first && h.first.(i) <= b then h.dom.(i) else striped h b

(** [placed h] — has [init] fixed the stripe? *)
let placed h = Array.length h.stripe > 0

(** [place h stripe] fixes the default stripe. *)
let place h stripe = h.stripe <- stripe

(** [overrides h] — the override ranges as [(first, last, domain)], in
    block order, after "later range wins" is applied. *)
let overrides h =
  compile h;
  List.init (Array.length h.first) (fun i -> (h.first.(i), h.last.(i), h.dom.(i)))

(** [iter_homed h ~dom ~lo ~hi f] applies [f] to every block in
    [lo..hi-1] whose static home is [dom], in order, walking the ranges
    rather than searching per block. *)
let iter_homed h ~dom ~lo ~hi f =
  let i = ref (next_range h lo) and n = Array.length h.first in
  for b = lo to hi - 1 do
    if !i < n && h.last.(!i) < b then incr i;
    let home = if !i < n && h.first.(!i) <= b then h.dom.(!i) else striped h b in
    if home = dom then f b
  done
