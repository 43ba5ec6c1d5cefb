(** Dominator trees over {!Cfg} block graphs.

    The iterative algorithm of Cooper, Harvey and Kennedy ("A simple,
    fast dominance algorithm"): immediate dominators by repeated
    intersection in reverse postorder.  Small procedure CFGs make the
    quadratic worst case irrelevant.

    Used by {!Optimize} to find natural loops for check hoisting. *)

type t = {
  preds : int list array;  (** predecessor block ids *)
  idom : int array;  (** immediate dominator per block; entry maps to itself, unreachable to -1 *)
}

let build (cfg : Cfg.t) =
  let nb = Cfg.n_blocks cfg in
  let preds = Cfg.preds cfg in
  (* Depth-first postorder from the entry block. *)
  let visited = Array.make nb false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs (Cfg.block cfg b).Cfg.succs;
      order := b :: !order
    end
  in
  if nb > 0 then dfs 0;
  let rpo_order = !order in
  let rpo = Array.make nb (-1) in
  List.iteri (fun i b -> rpo.(b) <- i) rpo_order;
  let idom = Array.make nb (-1) in
  if nb > 0 then idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if rpo.(a) > rpo.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> 0 then
          match List.filter (fun p -> idom.(p) <> -1) preds.(b) with
          | [] -> ()
          | p0 :: rest ->
              let d = List.fold_left intersect p0 rest in
              if idom.(b) <> d then begin
                idom.(b) <- d;
                changed := true
              end)
      rpo_order
  done;
  { preds; idom }

(** [dominates t a b] — every path from entry to block [b] passes
    through block [a] (reflexive). *)
let dominates t a b =
  if t.idom.(b) = -1 then false
  else begin
    let rec up x = x = a || (x <> 0 && up t.idom.(x)) in
    up b
  end

(** [natural_loop t ~header ~latch] — the block set (as a bool array) of
    the natural loop of the backedge [latch -> header], or [None] when
    the header does not dominate the latch (an irreducible edge). *)
let natural_loop t ~header ~latch =
  if not (dominates t header latch) then None
  else begin
    let inloop = Array.make (Array.length t.idom) false in
    inloop.(header) <- true;
    (* Skip unreachable predecessors: dead code branching into the loop
       is not part of its body (and the header cannot dominate it). *)
    let rec add b =
      if t.idom.(b) <> -1 && not inloop.(b) then begin
        inloop.(b) <- true;
        List.iter add t.preds.(b)
      end
    in
    add latch;
    Some inloop
  end
