(** Control-flow graphs over assembled procedures.

    Blocks are maximal straight-line runs; calls do not end blocks (they
    return to the fall-through).  Backedges — a branch whose target does
    not lie after it — identify loops; the rewriter inserts a poll before
    each backedge so that incoming protocol messages are serviced even in
    tight spin loops (Section 2.1). *)

type block = {
  id : int;
  first : int;  (** index of the first instruction *)
  last : int;  (** index of the last instruction (inclusive) *)
  succs : int list;  (** successor block ids *)
}

type t = {
  proc : Alpha.Program.procedure;
  blocks : block array;
  block_of : int array;  (** instruction index -> block id *)
}

let target_index proc l = Alpha.Program.label_index proc l

let build (proc : Alpha.Program.procedure) =
  let code = proc.Alpha.Program.code in
  let n = Array.length code in
  let leader = Array.make (n + 1) false in
  if n > 0 then leader.(0) <- true;
  Array.iteri
    (fun i insn ->
      match insn with
      | Alpha.Insn.Br l ->
          leader.(target_index proc l) <- true;
          if i + 1 <= n then leader.(min (i + 1) n) <- true
      | Alpha.Insn.Bcond (_, _, l) ->
          leader.(target_index proc l) <- true;
          if i + 1 <= n then leader.(min (i + 1) n) <- true
      | Alpha.Insn.Ret | Alpha.Insn.Halt -> if i + 1 <= n then leader.(min (i + 1) n) <- true
      | _ -> ())
    code;
  (* Collect block boundaries. *)
  let starts = ref [] in
  for i = n - 1 downto 0 do
    if leader.(i) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  let block_of = Array.make n (-1) in
  let blocks =
    Array.init nb (fun b ->
        let first = starts.(b) in
        let last = if b + 1 < nb then starts.(b + 1) - 1 else n - 1 in
        for i = first to last do
          block_of.(i) <- b
        done;
        { id = b; first; last; succs = [] })
  in
  (* Fill successors. *)
  let succ_of_index i = if i < n then Some block_of.(i) else None in
  let blocks =
    Array.map
      (fun blk ->
        let succs =
          match blocks.(blk.id) with
          | { last; _ } -> (
              match code.(last) with
              | Alpha.Insn.Br l -> [ block_of.(target_index proc l) ]
              | Alpha.Insn.Bcond (_, _, l) ->
                  let taken = block_of.(target_index proc l) in
                  let fall = succ_of_index (last + 1) in
                  taken :: (match fall with Some f when f <> taken -> [ f ] | Some _ | None -> [])
              | Alpha.Insn.Ret | Alpha.Insn.Halt -> []
              | _ -> ( match succ_of_index (last + 1) with Some f -> [ f ] | None -> []))
        in
        { blk with succs })
      blocks
  in
  { proc; blocks; block_of }

(** [backedges t] is the list of instruction indices of branches whose
    target is at or before the branch itself, with the target index:
    [(branch_index, target_index)]. *)
let backedges t =
  let code = t.proc.Alpha.Program.code in
  let out = ref [] in
  Array.iteri
    (fun i insn ->
      match insn with
      | Alpha.Insn.Br l | Alpha.Insn.Bcond (_, _, l) ->
          let tgt = target_index t.proc l in
          if tgt <= i then out := (i, tgt) :: !out
      | _ -> ())
    code;
  List.rev !out

let n_blocks t = Array.length t.blocks
let block t i = t.blocks.(i)

(** [preds t] — predecessor block ids per block, in increasing order. *)
let preds t =
  let p = Array.make (Array.length t.blocks) [] in
  Array.iter (fun blk -> List.iter (fun s -> p.(s) <- blk.id :: p.(s)) blk.succs) t.blocks;
  Array.map List.rev p

(** [forward t ~entry ~flow ~merge] — the worklist solver every forward
    dataflow analysis of the rewriter runs on.  Block 0 starts from
    [entry]; [flow b s]
    walks block [b] from in-state [s] (without mutating it) and returns
    the [(successor, state)] edges leaving it; [merge cur s] folds an
    edge's state into a block's current in-state ([None] before the
    first arrival) and returns the new in-state, or [None] when nothing
    changed.  On first arrival [merge] returns a copy of a mutable [s]:
    a flow may hand one state to several successors.  A block is queued
    (FIFO, duplicates allowed) on first arrival and on every change;
    {!Races} widens, so its results may depend on that order.  The
    result is the block-in states, [None] for unreachable blocks. *)
let forward t ~entry ~flow ~merge =
  let block_in = Array.make (n_blocks t) None in
  if n_blocks t > 0 then begin
    block_in.(0) <- Some entry;
    let work = Queue.create () in
    Queue.push 0 work;
    while not (Queue.is_empty work) do
      let b = Queue.pop work in
      List.iter
        (fun (succ, s) ->
          match merge block_in.(succ) s with
          | Some s' ->
              block_in.(succ) <- Some s';
              Queue.push succ work
          | None -> ())
        (flow b (Option.get block_in.(b)))
    done
  end;
  block_in
