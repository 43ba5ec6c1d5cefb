(** Dynamic partial-order reduction over tie-break schedules.

    The engine's only scheduling freedom is {e within} a same-time
    tie-set: time order between distinct timestamps is fixed by the
    simulation itself.  A non-chosen tied event is pushed back with its
    original sequence number, so it stays a candidate at every
    subsequent choice point of its instant — which gives the two
    structural facts the reduction is built on:

    - {b Persistent sets.}  At a choice point, partition the candidates
      into connected components of the dependence relation
      ({!Sim.Engine.dependent} over labels).  Events outside the
      component of the chosen event commute with everything fired from
      it, and remain candidates afterwards; any trace firing one of
      them first is Mazurkiewicz-equivalent to one reachable later in
      this subtree.  Exploring just the chosen component is therefore
      sufficient — it is a persistent (source) set.
    - {b Sleep sets.}  After the subtree below choice [c] is exhausted,
      [c] is put to sleep for the remaining choices: any run that fires
      [c] again before some event {e dependent} on [c] has fired is a
      reordering of an explored run, and is pruned mid-flight.  The
      engine's stable per-event sequence numbers are what let a sleeping
      event be tracked across choice points.

    Schedule bounding in the dejafu style is layered on top: a
    {e preemption} is any choice forcing a context switch the default
    scheduler would not take — scheduling away from the last node while
    it still has a tied event, or scheduling an event of a node ahead of
    that node's earlier-pending event.  Branches that would exceed
    [preemption_bound] are cut (and the result marked truncated, since
    bounded coverage is no longer full coverage).

    Exploration is replay-based depth-first search: each run replays the
    decision prefix on a fresh cluster (runs are deterministic given the
    decisions), extends it by default choices, then backtracks to the
    deepest choice point with unexplored candidates.  A failing run is
    reported as its decision vector, [Dpor [...]], which
    {!Explore.schedule_of_decisions} replays. *)

module E = Sim.Engine
module ISet = Set.Make (Int)

(** A choice point on the current DFS spine.  Candidates are identified
    by their stable engine sequence numbers, which survive tie push-back
    and replay. *)
type cp = {
  cands : E.choice array;
  mutable cur : int;  (** index (into [cands]) currently being explored *)
  mutable todo : ISet.t;  (** candidate seqs still awaiting exploration *)
  mutable explored : ISet.t;  (** candidate seqs with exhausted subtrees *)
}

(** Raised from inside the chooser to abandon a run whose remainder is
    provably equivalent to an explored run (it was forced to fire a
    sleeping event).  Propagates through {!Litmus.run}, which catches
    only coherence violations and worker failures. *)
exception Prune

(* A minimal growable stack (OCaml 5.1: no Dynarray). *)
module Vec = struct
  type 'a t = { mutable a : 'a option array; mutable n : int }

  let create () = { a = Array.make 64 None; n = 0 }

  let push v x =
    if v.n = Array.length v.a then
      v.a <- Array.append v.a (Array.make (Array.length v.a) None);
    v.a.(v.n) <- Some x;
    v.n <- v.n + 1

  let get v i = Option.get v.a.(i)
  let length v = v.n

  let truncate v k =
    for i = k to v.n - 1 do
      v.a.(i) <- None
    done;
    v.n <- k
end

(* Connected component of candidate [i0] under the dependence relation,
   as a list of candidate indices. *)
let component (cands : E.choice array) i0 =
  let n = Array.length cands in
  let inc = Array.make n false in
  inc.(i0) <- true;
  let frontier = ref [ i0 ] in
  while !frontier <> [] do
    let i = List.hd !frontier in
    frontier := List.tl !frontier;
    for j = 0 to n - 1 do
      if (not inc.(j)) && E.dependent cands.(i).E.ch_label cands.(j).E.ch_label
      then begin
        inc.(j) <- true;
        frontier := j :: !frontier
      end
    done
  done;
  List.filter (fun j -> inc.(j)) (List.init n (fun j -> j))

let index_of_seq (cands : E.choice array) s =
  let r = ref (-1) in
  Array.iteri (fun i c -> if c.E.ch_seq = s then r := i) cands;
  assert (!r >= 0);
  !r

(** [explore ?max_runs ?preemption_bound ?jitter scenario] — run the
    reduction to a fixed point (or the run budget).  With no bound and a
    fixed point reached, [s_complete] certifies that every schedule of
    the tie-break tree is equivalent to an explored run.  With a bound,
    coverage is bounded-complete and [s_truncated] records whether the
    bound actually cut anything.

    [jitter = (seed, prob, max_delay)] composes the search with the
    {!Sim.Engine.jitter} delay injection: some transients (a
    grant in flight while its owner's directory state is overwritten)
    only open when a message is delayed, and tie-break reordering alone
    cannot produce them.  Delays are drawn per scheduled event in
    creation order, so a replayed decision prefix reproduces its delays
    and the DFS stays deterministic. *)
let explore ?(max_runs = 5000) ?preemption_bound ?jitter scenario =
  let stack : cp Vec.t = Vec.create () in
  let t = Explore.tally () in
  let complete = ref false in
  let bounded = ref false in
  (* per-run state *)
  let depth = ref 0 in
  let sleep = ref ([] : (int * E.label) list) in
  let preempts = ref 0 in
  let last_node = ref (-1) in
  let run_labels = ref ([] : E.label list) in
  (* A choice is a preemption (cost 1) when it forces a context switch
     that the default scheduler would not take: picking a node other
     than the last-scheduled one while that node still has a tied event
     (cross-node preemption), or picking an event of a node ahead of an
     earlier-pending event of the same node — the tie-set analogue of
     preempting the task that CPU would naturally run next.  Forced
     switches (the last node has nothing tied, and the event is its
     node's oldest) are free, so any schedule the unbounded default
     scheduler produces has cost 0. *)
  let preempt_cost (cands : E.choice array) i =
    let node = cands.(i).E.ch_label.E.lbl_node in
    if node < 0 then 0
    else begin
      let cross =
        !last_node >= 0 && node <> !last_node
        && Array.exists (fun c -> c.E.ch_label.E.lbl_node = !last_node) cands
      in
      let within =
        Array.exists
          (fun c ->
            c.E.ch_label.E.lbl_node = node && c.E.ch_seq < cands.(i).E.ch_seq)
          cands
      in
      if cross || within then 1 else 0
    end
  in
  let admissible cands i =
    match preemption_bound with
    | None -> true
    | Some b -> !preempts + preempt_cost cands i <= b
  in
  let chooser (cands : E.choice array) =
    let n = Array.length cands in
    let pick =
      if n = 1 then begin
        if List.mem_assoc cands.(0).E.ch_seq !sleep then raise Prune;
        0
      end
      else begin
        let d = !depth in
        incr depth;
        if !depth > t.Explore.t_deepest then t.Explore.t_deepest <- !depth;
        if d < Vec.length stack then begin
          (* replay *)
          let cp = Vec.get stack d in
          if
            Array.length cp.cands <> n
            || cp.cands.(cp.cur).E.ch_seq <> cands.(cp.cur).E.ch_seq
          then
            failwith
              "Dpor: replay divergence — scenario is not deterministic under \
               a fixed schedule";
          (* sleep-set inheritance: choices already exhausted at this
             point sleep in the current branch unless woken by a
             dependent event (the filter below) *)
          List.iter
            (fun i ->
              let c = cp.cands.(i) in
              if
                ISet.mem c.E.ch_seq cp.explored
                && not (List.mem_assoc c.E.ch_seq !sleep)
              then sleep := (c.E.ch_seq, c.E.ch_label) :: !sleep)
            (List.init n (fun i -> i));
          cp.cur
        end
        else begin
          (* fresh choice point *)
          let sleeping i = List.mem_assoc cands.(i).E.ch_seq !sleep in
          let explorable =
            List.filter (fun i -> not (sleeping i)) (List.init n (fun i -> i))
          in
          match explorable with
          | [] ->
              raise Prune
          | _ :: _ -> (
              (* prefer a free (non-preempting) continuation *)
              let pick =
                match List.find_opt (fun i -> preempt_cost cands i = 0) explorable with
                | Some i -> i
                | None -> (
                    match List.find_opt (admissible cands) explorable with
                    | Some i -> i
                    | None -> -1)
              in
              if pick < 0 then begin
                bounded := true;
                raise Prune
              end;
              let comp = component cands pick in
              let todo =
                List.fold_left
                  (fun acc i ->
                    if i = pick || sleeping i then acc
                    else if not (admissible cands i) then begin
                      bounded := true;
                      acc
                    end
                    else ISet.add cands.(i).E.ch_seq acc)
                  ISet.empty comp
              in
              Vec.push stack
                {
                  cands; cur = pick; todo; explored = ISet.empty };
              pick)
        end
      end
    in
    let c = cands.(pick) in
    preempts := !preempts + preempt_cost cands pick;
    if c.E.ch_label.E.lbl_node >= 0 then last_node := c.E.ch_label.E.lbl_node;
    run_labels := c.E.ch_label :: !run_labels;
    (* a fired event wakes every sleeping event dependent on it *)
    sleep := List.filter (fun (_, l) -> not (E.dependent l c.E.ch_label)) !sleep;
    pick
  in
  let decisions () =
    List.init !depth (fun d -> (Vec.get stack d).cur)
  in
  let run_once () =
    depth := 0;
    sleep := [];
    preempts := 0;
    last_node := -1;
    run_labels := [];
    t.Explore.t_runs <- t.Explore.t_runs + 1;
    let jitter =
      Option.map (fun (seed, prob, max_delay) -> { E.seed; prob; max_delay }) jitter
    in
    let schedule = E.Guided { choose = chooser; jitter } in
    match scenario schedule with
    | violations ->
        Explore.settle t ~depth:!depth ~labels:!run_labels violations ~schedule:(fun () ->
            Printf.sprintf "Dpor [%s]"
              (String.concat ";" (List.map string_of_int (decisions ()))))
    | exception Prune -> ()
  in
  (* DFS: after each run, advance the deepest choice point with work
     left; pop exhausted ones. *)
  let rec backtrack () =
    if Vec.length stack = 0 then false
    else begin
      let cp = Vec.get stack (Vec.length stack - 1) in
      cp.explored <- ISet.add cp.cands.(cp.cur).E.ch_seq cp.explored;
      match ISet.min_elt_opt cp.todo with
      | Some s ->
          cp.todo <- ISet.remove s cp.todo;
          cp.cur <- index_of_seq cp.cands s;
          true
      | None ->
          Vec.truncate stack (Vec.length stack - 1);
          backtrack ()
    end
  in
  let continue_ = ref true in
  while !continue_ && t.Explore.t_runs < max_runs do
    run_once ();
    if not (backtrack ()) then begin
      continue_ := false;
      complete := true
    end
  done;
  Explore.result_of t ~complete:!complete ~truncated:!bounded
