(** Vector clocks and happens-before over labeled event traces.

    The DPOR explorer ({!Dpor}) views a simulation run as the sequence
    of fired {!Sim.Engine.label}s.  Two same-time events may be
    reordered without changing the run exactly when they are
    {e independent} ({!Sim.Engine.dependent}); the happens-before
    relation of a trace is the transitive closure of trace order
    restricted to dependent pairs — the partial order whose
    linearisations form the trace's Mazurkiewicz equivalence class.

    This module computes that relation with vector clocks in O(n·d)
    (d = distinct actors) instead of the naive O(n²) closure, and
    derives from it the Foata normal form used to fingerprint
    equivalence classes: two runs with equal {!class_signature}s are
    (up to hashing) the same partial order, so an explorer reporting
    run and class counts can show how much of its work was spent
    revisiting known classes.

    Soundness of the clock construction rests on one structural fact:
    any two events sharing a dependency component (a node, a block, or
    "unknown") are pairwise dependent, hence totally ordered by
    happens-before.  Keeping only the {e latest} clock per component
    therefore loses nothing. *)

module E = Sim.Engine

type t = int array

let make n = Array.make n 0
let copy = Array.copy

(** Pointwise maximum (a fresh clock). *)
let join (a : t) (b : t) = Array.init (Array.length a) (fun i -> max a.(i) b.(i))

let join_into (dst : t) (src : t) =
  for i = 0 to Array.length dst - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let leq (a : t) (b : t) =
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if a.(i) > b.(i) then ok := false
  done;
  !ok

let tick (v : t) i = v.(i) <- v.(i) + 1

(* --- happens-before over a trace of labels --- *)

(** A dependency component: events sharing one are totally ordered. *)
type actor = Node of int | Block of int | Top

let unknown (l : E.label) = l.E.lbl_node < 0 && l.E.lbl_block < 0

(** The component an event {e ticks} (its own axis): the node if known,
    else the block, else the ⊤ actor shared by all unknown events. *)
let actor_of (l : E.label) =
  if l.E.lbl_node >= 0 then Node l.E.lbl_node
  else if l.E.lbl_block >= 0 then Block l.E.lbl_block
  else Top

(** All components the event touches (joins the latest clock of each). *)
let components_of (l : E.label) =
  if unknown l then [ Top ]
  else
    (if l.E.lbl_node >= 0 then [ Node l.E.lbl_node ] else [])
    @ if l.E.lbl_block >= 0 then [ Block l.E.lbl_block ] else []

type trace = {
  clocks : t array;  (** per-event clock, indexed by trace position *)
  axes : int array;  (** per-event own axis (interned actor) *)
}

(** [of_trace labels] — the vector clock of every event of the trace.
    Event [j]'s clock is the join of the clocks of its dependent
    predecessors plus one tick on its own axis, so
    [hb tr i j  ⇔  i ⟶* j] under the dependent-pairs closure. *)
let of_trace (labels : E.label array) =
  let intern = Hashtbl.create 16 in
  let next = ref 0 in
  let axis_of a =
    match Hashtbl.find_opt intern a with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Hashtbl.add intern a i;
        i
  in
  Array.iter
    (fun l -> List.iter (fun a -> ignore (axis_of a)) (actor_of l :: components_of l))
    labels;
  let d = !next in
  let last = Hashtbl.create 16 in
  (* clock of the latest unknown (all-conflicting) event *)
  let barrier = ref (make d) in
  (* join of every event clock so far: what an unknown event inherits *)
  let all = make d in
  let clocks =
    Array.map
      (fun l ->
        let base =
          if unknown l then copy all
          else begin
            let v = copy !barrier in
            List.iter
              (fun c ->
                match Hashtbl.find_opt last c with
                | Some w -> join_into v w
                | None -> ())
              (components_of l);
            v
          end
        in
        tick base (axis_of (actor_of l));
        join_into all base;
        if unknown l then barrier := base;
        List.iter (fun c -> Hashtbl.replace last c base) (components_of l);
        base)
      labels
  in
  { clocks; axes = Array.map (fun l -> axis_of (actor_of l)) labels }

(** [hb tr i j] — does event [i] happen before event [j]?  (Strict:
    [hb tr i i = false].) *)
let hb tr i j = i < j && tr.clocks.(i).(tr.axes.(i)) <= tr.clocks.(j).(tr.axes.(i))

(* --- Foata normal form and class signatures --- *)

(** [foata_levels labels] — level of each event in the Foata normal form
    of the trace's equivalence class: [1 + max] over the levels of its
    dependent predecessors ([1] if none).  Events on one level are
    pairwise independent, and the sequence of level {e multisets} is a
    canonical form: equal across exactly the equivalent traces. *)
let foata_levels (labels : E.label array) =
  let last = Hashtbl.create 16 in
  let barrier = ref 0 and deepest = ref 0 in
  Array.map
    (fun l ->
      let lvl =
        if unknown l then !deepest + 1
        else
          1
          + List.fold_left
              (fun m c ->
                max m (Option.value (Hashtbl.find_opt last c) ~default:0))
              !barrier (components_of l)
      in
      if lvl > !deepest then deepest := lvl;
      if unknown l then barrier := lvl;
      List.iter (fun c -> Hashtbl.replace last c lvl) (components_of l);
      lvl)
    labels

(** [class_signature labels] — a hash of the Foata normal form: each
    level contributes a commutative combination (sum) of its labels'
    hashes, folded in level order.  Equivalent traces hash equal;
    distinct signatures certify distinct Mazurkiewicz classes (modulo
    hash collisions, which only under-count classes). *)
let class_signature (labels : E.label array) =
  let levels = foata_levels labels in
  let per_level = Hashtbl.create 32 in
  let deepest = ref 0 in
  Array.iteri
    (fun i l ->
      let lvl = levels.(i) in
      if lvl > !deepest then deepest := lvl;
      let h = Hashtbl.hash (l.E.lbl_node, l.E.lbl_block, l.E.lbl_kind) in
      let cur = Option.value (Hashtbl.find_opt per_level lvl) ~default:0 in
      Hashtbl.replace per_level lvl (cur + h))
    labels;
  let acc = ref 0 in
  for lvl = 1 to !deepest do
    let h = Option.value (Hashtbl.find_opt per_level lvl) ~default:0 in
    acc := (!acc * 1000003) lxor h
  done;
  !acc
