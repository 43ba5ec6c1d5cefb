(** Happens-before over labeled event traces, as Foata normal forms.

    The DPOR explorer ({!Dpor}) views a simulation run as the sequence
    of fired {!Sim.Engine.label}s.  Two same-time events may be
    reordered without changing the run exactly when they are
    {e independent} ({!Sim.Engine.dependent}); the happens-before
    relation of a trace is the transitive closure of trace order
    restricted to dependent pairs — the partial order whose
    linearisations form the trace's Mazurkiewicz equivalence class.

    This module derives from that relation the Foata normal form used to
    fingerprint equivalence classes: two runs with equal
    {!class_signature}s are (up to hashing) the same partial order, so
    an explorer reporting run and class counts can show how much of its
    work was spent revisiting known classes.

    The levels rest on one structural fact: any two events sharing a
    dependency component (a node, a block, or "unknown") are pairwise
    dependent, hence totally ordered by happens-before.  Keeping only
    the {e latest} level per component therefore loses nothing. *)

module E = Sim.Engine

(** A dependency component: events sharing one are totally ordered. *)
type actor = Node of int | Block of int | Top

let unknown (l : E.label) = l.E.lbl_node < 0 && l.E.lbl_block < 0

(** All components the event touches. *)
let components_of (l : E.label) =
  if unknown l then [ Top ]
  else
    (if l.E.lbl_node >= 0 then [ Node l.E.lbl_node ] else [])
    @ if l.E.lbl_block >= 0 then [ Block l.E.lbl_block ] else []

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
