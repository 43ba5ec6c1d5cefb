(** Discrete-event simulation core: a virtual clock and an event heap.

    Events are thunks fired in [(time, insertion-order)] order, so the
    whole simulation is deterministic.  Everything above this module
    (CPUs, processes, the network, the coherence protocol) is expressed
    as events.

    The event store is a binary heap that sifts only unboxed keys: a
    flat [float array] of times, an [int array] of sequence numbers and
    an [int array] of payload slots.  Each event's label and run thunk
    are written once into a slot-indexed payload table, because every
    store of a boxed value into a major-heap array goes through OCaml's
    write barrier: moving payloads at every sift level would pay two
    barrier calls per level, while the slot table pays two per push and
    one per pop whatever the heap depth.  Firing an event under the
    default [Fifo] schedule allocates nothing; a [Guided] schedule
    reuses one array-based tie buffer across fires instead of building
    a list per tie-set.  Because [(time, seq)] keys are unique, the pop
    order is independent of the heap's internal layout.

    {!fire_inline} lets the code that is running an event fire the next
    one in place, skipping the heap, when that event would be popped
    next anyway: inside a sequential [Fifo] {!run}, within its deadline
    and event budget, and strictly before every pending event.  The
    clock, the sequence counter and the fired count advance as for a
    pop, so an inline fire is indistinguishable from a heap fire.
    [Proc.work] uses it for a process's own work slices.

    The [schedule] chosen at [create] controls how same-time ties are
    broken.  [Fifo] (the default) fires ties in insertion order and is
    bit-identical to the historical behaviour.  [Guided] is the one
    hook the model checker in [lib/check] uses to rerun scenarios under
    many legal schedules: a chooser callback picks the next event of
    every tie-set, optionally with seeded delay injection.  Random
    permutations, exhaustive enumeration, decision-vector replay and
    DPOR are all choosers over this hook.

    Every event optionally carries a {!label} — who the event belongs to
    (a node), which coherence block it touches, and what kind of thing
    it is.  The labels change nothing about sequential execution; they
    exist so that a {!Guided} scheduler (the DPOR explorer) can see the
    dependency footprint of each runnable event, and so that the
    conservative parallel mode ({!Par}) can route each event to its
    node's lane.

    Parallel mode: {!par_install} splits the event store into per-node
    {e lanes}; while a lane is being driven (on a real domain, under
    {!Par.run}) the clock and [at]/[after] are lane-local, and an event
    scheduled onto a different node's lane is buffered and merged at the
    next lookahead-window barrier.  With [par = None] (the default)
    every code path below is exactly the sequential one. *)

(** What an event may touch, conservatively.  [-1] means "unknown /
    all": an unlabeled event must be treated as dependent with every
    other event. *)
type label = {
  lbl_node : int;  (** node whose local state the event mutates; -1 = unknown *)
  lbl_block : int;  (** coherence block the event touches; -1 = none *)
  lbl_kind : kind;
}

and kind =
  | Generic  (** unclassified (the conservative default) *)
  | Proc_step  (** a CPU scheduler step: dispatch, work slice, preempt timer *)
  | Message  (** a network message delivery at its destination node *)
  | Wakeup  (** a signal waiter waking a stalled process *)
  | Timer  (** a transport retransmit or other timeout *)

let no_label = { lbl_node = -1; lbl_block = -1; lbl_kind = Generic }

(** [dependent a b] — may the firing order of two {e same-time} events
    affect the simulation?  Conservative: unknown labels conflict with
    everything; otherwise events conflict when they share a node (both
    mutate that node's scheduler/mailbox state) or a block (both touch
    that block's coherence state, possibly at different nodes).  Two
    events on different nodes touching no common block commute: each
    only mutates its own node's state and appends to the global event
    heap, and heap insertion order within a tie-set is itself a
    scheduling decision re-exposed at the next choice point. *)
let dependent a b =
  let unknown l = l.lbl_node < 0 && l.lbl_block < 0 in
  if unknown a || unknown b then true
  else
    (a.lbl_node >= 0 && a.lbl_node = b.lbl_node)
    || (a.lbl_block >= 0 && a.lbl_block = b.lbl_block)

(** A runnable event as presented to a {!Guided} scheduler: its
    footprint plus a stable identity ([ch_seq] is the insertion sequence
    number, unchanged when a deferred event is pushed back for the next
    choice point — so an explorer can track one event across the
    successive choice points of a tie group). *)
type choice = { ch_label : label; ch_seq : int }

(** Delay injection: each [at] independently delays its event by
    a uniform amount in [\[0, max_delay\]] with probability [prob]
    (delays only: events never fire earlier than requested).  The
    delays are drawn from [Rng.create seed], one draw per [at] call in
    creation order, so replaying the same choices reproduces them. *)
type jitter = { seed : int; prob : float; max_delay : float }

type schedule =
  | Fifo  (** insertion order; the historical deterministic default *)
  | Guided of { choose : choice array -> int; jitter : jitter option }
      (** [choose] picks which of the currently tied events fires next.
          It sees each candidate's identity and dependency footprint (in
          insertion order) and is consulted on {e every} fire, singleton
          tie-sets included, so an explorer can follow the full
          fired-event trace.  Out-of-range answers fall back to index 0.
          The stock choosers (seeded permutation, decision-vector
          replay) live in [Check.Explore]. *)

type sched_state =
  | S_fifo
  | S_guided of {
      choose : choice array -> int;
      delays : (Rng.t * float * float) option;  (* rng, prob, max_delay *)
    }

(* --- the flat event store --- *)

(* A binary min-heap over (time, seq) whose sift moves touch only the
   unboxed arrays [q_time], [q_seq] and [q_slot] (no [caml_modify]; see
   the header).  An event's label and run thunk are written once, at
   push, into the slot-indexed payload table [q_label]/[q_run].

   [q_slot] is a permutation of [0 .. capacity - 1]: positions
   [0 .. q_size - 1] hold the live entries' slots in heap order, and the
   tail [q_size .. capacity - 1] is the stack of free slots, so a push
   takes the slot sitting at [q_slot.(q_size)] and a pop parks the freed
   slot at the new tail. *)
type eheap = {
  mutable q_time : float array;
  mutable q_seq : int array;
  mutable q_slot : int array;
  mutable q_label : label array;
  mutable q_run : (unit -> unit) array;
  mutable q_size : int;
}

let nop () = ()

let q_create () =
  { q_time = [||]; q_seq = [||]; q_slot = [||]; q_label = [||]; q_run = [||]; q_size = 0 }

(* Only called when full, so every slot is live and the new ones are
   free. *)
let q_grow h =
  let cap = Array.length h.q_time in
  let cap' = if cap = 0 then 64 else cap * 2 in
  let time' = Array.make cap' 0.0 in
  let seq' = Array.make cap' 0 in
  let slot' = Array.init cap' (fun i -> if i < cap then h.q_slot.(i) else i) in
  let label' = Array.make cap' no_label in
  let run' = Array.make cap' nop in
  Array.blit h.q_time 0 time' 0 cap;
  Array.blit h.q_seq 0 seq' 0 cap;
  Array.blit h.q_label 0 label' 0 cap;
  Array.blit h.q_run 0 run' 0 cap;
  h.q_time <- time';
  h.q_seq <- seq';
  h.q_slot <- slot';
  h.q_label <- label';
  h.q_run <- run'

let q_push h ~time ~seq ~label run =
  if h.q_size = Array.length h.q_time then q_grow h;
  let times = h.q_time and seqs = h.q_seq and slots = h.q_slot in
  let slot = slots.(h.q_size) in
  h.q_label.(slot) <- label;
  h.q_run.(slot) <- run;
  (* Sift up by moving the hole; the new key is written exactly once. *)
  let i = ref h.q_size in
  h.q_size <- h.q_size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if time < times.(p) || (time = times.(p) && seq < seqs.(p)) then begin
      times.(!i) <- times.(p);
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Root accessors; callers check [q_size > 0] first. *)
let q_top_time h = h.q_time.(0)
let q_top_seq h = h.q_seq.(0)
let q_top_label h = h.q_label.(h.q_slot.(0))

(* Remove the minimum entry and return its run thunk.  The freed slot's
   thunk is cleared so popped closures do not outlive their firing. *)
let q_take h =
  let times = h.q_time and seqs = h.q_seq and slots = h.q_slot in
  let top = slots.(0) in
  let run = h.q_run.(top) in
  h.q_run.(top) <- nop;
  h.q_size <- h.q_size - 1;
  let n = h.q_size in
  if n > 0 then begin
    let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else continue := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- slot;
    slots.(n) <- top
  end;
  run

(* --- per-node lanes for the conservative parallel mode --- *)

(* An event scheduled from one lane onto another; buffered on the source
   lane and merged (in deterministic (time, src, src_seq) order) at the
   next window barrier.  [x_src_seq] is drawn from the source lane's own
   insertion counter, so the merge order is a pure function of each
   lane's deterministic execution. *)
type cross = {
  x_dst : int;
  x_time : float;
  x_src : int;
  x_src_seq : int;
  x_label : label;
  x_run : unit -> unit;
}

type lane = {
  l_id : int;  (** the node this lane belongs to *)
  l_heap : eheap;
  mutable l_now : float;
  mutable l_seq : int;
  mutable l_fired : int;
  mutable l_out : cross list;  (** cross-lane pushes made by this lane, newest first *)
  mutable l_out_pulses : (int * (unit -> unit)) list;
      (** deferred foreign-lane signal pulses (dst node, pulse thunk),
          newest first; executed at the barrier in the target lane's
          context *)
}

type par = {
  p_lanes : lane array;  (** one per node *)
  mutable p_window_end : float;
      (** events with [time < p_window_end] may fire in the current
          window; a cross-lane push below it is a causality violation *)
}

type t = {
  mutable now : float;
  mutable seq : int;
  heap : eheap;
  mutable fired : int;
  sched : sched_state;
  (* The tie buffer, reused across fires: same-time entries are popped
     into these parallel arrays instead of a freshly-allocated list. *)
  mutable tb_seq : int array;
  mutable tb_label : label array;
  mutable tb_run : (unit -> unit) array;
  mutable par : par option;  (** [None] = sequential (the default) *)
  (* Inside a sequential [Fifo] {!run}: its deadline, and the [fired]
     count at which its event budget is spent.  [inline_end = 0] outside
     such a run, which turns {!fire_inline} off. *)
  mutable inline_until : float;
  mutable inline_end : int;
}

(* The lane currently being driven by this domain (set by {!Par.run}
   around each window, and by the barrier while applying deferred
   pulses).  Sequential code never consults it: every fast path is
   guarded by [t.par == None] first. *)
let dls_lane : lane option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_lane () = !(Domain.DLS.get dls_lane)
let set_current_lane l = Domain.DLS.get dls_lane := l

(** Raised by [at] when asked to schedule an event before [now].  The
    payload records where the simulation stood so the offending call
    site can be located from a log alone. *)
exception
  Past_event of { requested : float; now : float; fired : int; pending : int }

(** Raised in parallel mode when an event is scheduled onto another
    node's lane {e inside} the current lookahead window — i.e. the
    declared lookahead (the minimum cross-node latency) was violated.
    A conservative run must never see this. *)
exception Cross_window of { dst : int; time : float; window_end : float }

let () =
  Printexc.register_printer (function
    | Past_event { requested; now; fired; pending } ->
        Some
          (Printf.sprintf
             "Sim.Engine.Past_event { requested = %.9g; now = %.9g; fired = \
              %d; pending = %d }"
             requested now fired pending)
    | Cross_window { dst; time; window_end } ->
        Some
          (Printf.sprintf
             "Sim.Engine.Cross_window { dst = %d; time = %.9g; window_end = \
              %.9g }"
             dst time window_end)
    | _ -> None)

let create ?(schedule = Fifo) () =
  let sched =
    match schedule with
    | Fifo -> S_fifo
    | Guided { choose; jitter } ->
        let delays =
          Option.map (fun j -> (Rng.create j.seed, j.prob, j.max_delay)) jitter
        in
        S_guided { choose; delays }
  in
  {
    now = 0.0;
    seq = 0;
    heap = q_create ();
    fired = 0;
    sched;
    tb_seq = [||];
    tb_label = [||];
    tb_run = [||];
    par = None;
    inline_until = Float.infinity;
    inline_end = 0;
  }

let now t =
  match t.par with
  | None -> t.now
  | Some _ -> ( match current_lane () with Some l -> l.l_now | None -> t.now)

let events_fired t =
  match t.par with
  | None -> t.fired
  | Some p -> Array.fold_left (fun acc l -> acc + l.l_fired) t.fired p.p_lanes

let pending t =
  match t.par with
  | None -> t.heap.q_size
  | Some p -> Array.fold_left (fun acc l -> acc + l.l_heap.q_size) t.heap.q_size p.p_lanes

(** [at t ?label time f] schedules [f] to fire at absolute [time].
    Requires [time >= now t].  [label] (default: unknown) declares the
    event's dependency footprint for {!Guided} exploration and names the
    owning lane in parallel mode. *)
let at_seq t label time f =
  if time < t.now then
    raise
      (Past_event
         { requested = time; now = t.now; fired = t.fired; pending = t.heap.q_size });
  let time =
    match t.sched with
    | S_guided { delays = Some (delays, prob, max_delay); _ }
      when prob > 0.0 && Rng.float delays 1.0 < prob ->
        time +. Rng.float delays max_delay
    | _ -> time
  in
  q_push t.heap ~time ~seq:t.seq ~label f;
  t.seq <- t.seq + 1

(* Lane-side scheduling: an event for this lane's own node goes straight
   into the lane heap; one for another node is buffered for the barrier
   merge (and must land at or beyond the window end — the lookahead
   guarantee).  Unlabeled events stay on the scheduling lane.  Parallel
   mode is Fifo-only, so there is no jitter path here. *)
let at_lane p l label time f =
  if time < l.l_now then
    raise
      (Past_event
         { requested = time; now = l.l_now; fired = l.l_fired; pending = l.l_heap.q_size });
  let dst =
    if label.lbl_node >= 0 && label.lbl_node < Array.length p.p_lanes then
      label.lbl_node
    else l.l_id
  in
  if dst = l.l_id then begin
    q_push l.l_heap ~time ~seq:l.l_seq ~label f;
    l.l_seq <- l.l_seq + 1
  end
  else begin
    if time < p.p_window_end then
      raise (Cross_window { dst; time; window_end = p.p_window_end });
    l.l_out <-
      { x_dst = dst; x_time = time; x_src = l.l_id; x_src_seq = l.l_seq; x_label = label; x_run = f }
      :: l.l_out;
    l.l_seq <- l.l_seq + 1
  end

let at t ?(label = no_label) time f =
  match t.par with
  | None -> at_seq t label time f
  | Some p -> (
      match current_lane () with
      | Some l -> at_lane p l label time f
      | None -> at_seq t label time f)

(** [after t ?label dt f] schedules [f] to fire [dt] seconds from now
    (the lane clock in parallel mode). *)
let after t ?label dt f = at t ?label (now t +. dt) f

(** [fire_inline t time] fires, in place, an event at [time] whose
    action the caller is about to run itself — provided it would be the
    very next event to fire anyway: inside a sequential [Fifo] {!run},
    not past its deadline or event budget, and strictly before every
    pending event.  The clock, the sequence counter and [events_fired]
    advance exactly as a push and a pop would advance them.  Returns
    [false], changing nothing, when the caller must schedule the event
    instead. *)
let fire_inline t time =
  t.fired < t.inline_end
  && time <= t.inline_until
  && (t.heap.q_size = 0 || q_top_time t.heap > time)
  && begin
       t.now <- time;
       t.seq <- t.seq + 1;
       t.fired <- t.fired + 1;
       true
     end

(* --- tie-set machinery (the Guided schedule) --- *)

let tb_ensure t n =
  if Array.length t.tb_seq < n then begin
    let cap = max 16 (2 * n) in
    let seq' = Array.make cap 0 in
    let label' = Array.make cap no_label in
    let run' = Array.make cap nop in
    Array.blit t.tb_seq 0 seq' 0 (Array.length t.tb_seq);
    Array.blit t.tb_label 0 label' 0 (Array.length t.tb_label);
    Array.blit t.tb_run 0 run' 0 (Array.length t.tb_run);
    t.tb_seq <- seq';
    t.tb_label <- label';
    t.tb_run <- run'
  end

(* Pop every entry scheduled for exactly the root's time into the tie
   buffer; the buffer is in insertion order because the heap pops ties
   FIFO.  Returns (time, count). *)
let pop_ties t =
  let h = t.heap in
  let time = q_top_time h in
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    tb_ensure t (!n + 1);
    t.tb_seq.(!n) <- q_top_seq h;
    t.tb_label.(!n) <- q_top_label h;
    t.tb_run.(!n) <- q_take h;
    incr n;
    if h.q_size = 0 || q_top_time h <> time then continue := false
  done;
  (time, !n)

(* Fire tie [i], pushing the others back with their original [seq] so a
   later pop sees them in unchanged relative order.  The buffer's thunks
   are cleared, as in the heap, so fired closures are not kept alive. *)
let fire_choice t time n i =
  let run = t.tb_run.(i) in
  for j = 0 to n - 1 do
    if j <> i then q_push t.heap ~time ~seq:t.tb_seq.(j) ~label:t.tb_label.(j) t.tb_run.(j);
    t.tb_run.(j) <- nop
  done;
  t.now <- time;
  t.fired <- t.fired + 1;
  run ()

(** [step t] fires one pending event — the earliest, with same-time ties
    broken by the schedule policy.  Returns [false] when the event heap
    is empty. *)
let step t =
  let h = t.heap in
  if h.q_size = 0 then false
  else begin
    (match t.sched with
    | S_fifo ->
        t.now <- q_top_time h;
        t.fired <- t.fired + 1;
        let run = q_take h in
        run ()
    | S_guided { choose = f; _ } ->
        let time, n = pop_ties t in
        let cands =
          Array.init n (fun j -> { ch_label = t.tb_label.(j); ch_seq = t.tb_seq.(j) })
        in
        let i = f cands in
        fire_choice t time n (if i < 0 || i >= n then 0 else i));
    true
  end

(** [run ?until ?max_events t] fires events until the heap is empty, the
    clock passes [until], or [max_events] have fired.  Returns the reason
    the run stopped. *)
type stop_reason = Quiescent | Deadline | Event_budget

let run ?until ?max_events t =
  let fired0 = t.fired in
  let until_v = match until with None -> Float.infinity | Some d -> d in
  let budget = match max_events with None -> max_int | Some m -> m in
  let h = t.heap in
  let reason = ref Quiescent in
  let continue = ref true in
  (match t.sched with
  | S_fifo ->
      t.inline_until <- until_v;
      t.inline_end <- (if budget > max_int - fired0 then max_int else fired0 + budget);
      (* The hot loop: no allocation per event — the deadline check reads
         the root time directly and firing pops in place. *)
      (try
         while !continue do
           if h.q_size > 0 && q_top_time h > until_v then begin
             t.now <- Float.max t.now until_v;
             reason := Deadline;
             continue := false
           end
           else if t.fired - fired0 >= budget then begin
             reason := Event_budget;
             continue := false
           end
           else if h.q_size = 0 then begin
             reason := Quiescent;
             continue := false
           end
           else begin
             t.now <- q_top_time h;
             t.fired <- t.fired + 1;
             let run = q_take h in
             run ()
           end
         done
       with e ->
         t.inline_end <- 0;
         raise e);
      t.inline_end <- 0
  | S_guided _ ->
      while !continue do
        if h.q_size > 0 && q_top_time h > until_v then begin
          t.now <- Float.max t.now until_v;
          reason := Deadline;
          continue := false
        end
        else if t.fired - fired0 >= budget then begin
          reason := Event_budget;
          continue := false
        end
        else if not (step t) then begin
          reason := Quiescent;
          continue := false
        end
      done);
  !reason

(* --- parallel-mode plumbing (driven by {!Par}) --- *)

(** [lane_push l ~time ~label run] queues an event on lane [l] with the
    lane's next sequence number (the barrier merge of cross events). *)
let lane_push l ~time ~label run =
  q_push l.l_heap ~time ~seq:l.l_seq ~label run;
  l.l_seq <- l.l_seq + 1

(** [lane_next_time l] is the time of lane [l]'s earliest pending event,
    or [infinity] when the lane is empty. *)
let lane_next_time l =
  let h = l.l_heap in
  if h.q_size = 0 then Float.infinity else q_top_time h

(** [lane_run l ~window_end ~until] fires lane [l]'s events in
    [(time, seq)] order while their time is below [window_end] and not
    past [until].  The caller sets the current lane. *)
let lane_run l ~window_end ~until =
  let h = l.l_heap in
  let continue = ref true in
  while !continue do
    if h.q_size = 0 then continue := false
    else
      let t0 = q_top_time h in
      if t0 >= window_end || t0 > until then continue := false
      else begin
        l.l_now <- t0;
        l.l_fired <- l.l_fired + 1;
        let run = q_take h in
        run ()
      end
  done

(** [par_install t ~nodes] splits the event store into [nodes] per-node
    lanes, routing every pending event to its label's lane (unlabeled
    events go to lane 0).  Requires the [Fifo] schedule: a [Guided]
    chooser orders same-time ties globally, which has no meaning once
    the tie-set is split across lanes. *)
let par_install t ~nodes =
  (match t.par with Some _ -> invalid_arg "Engine.par_install: already parallel" | None -> ());
  (match t.sched with
  | S_fifo -> ()
  | _ -> invalid_arg "Engine.par_install: parallel mode requires the Fifo schedule");
  let lanes =
    Array.init nodes (fun i ->
        {
          l_id = i;
          l_heap = q_create ();
          l_now = t.now;
          l_seq = 0;
          l_fired = 0;
          l_out = [];
          l_out_pulses = [];
        })
  in
  let h = t.heap in
  while h.q_size > 0 do
    let time = q_top_time h and label = q_top_label h in
    let run = q_take h in
    let dst = if label.lbl_node >= 0 && label.lbl_node < nodes then label.lbl_node else 0 in
    lane_push lanes.(dst) ~time ~label run
  done;
  let p = { p_lanes = lanes; p_window_end = t.now } in
  t.par <- Some p;
  p

(** [par_remove t] folds the lanes back into the sequential store: fired
    counts are added up and leftover events (a deadline stop leaves some
    pending) are re-inserted in deterministic (time, lane, lane-seq)
    order with fresh global sequence numbers. *)
let par_remove t =
  match t.par with
  | None -> ()
  | Some p ->
      t.par <- None;
      let leftovers = ref [] in
      Array.iter
        (fun l ->
          t.fired <- t.fired + l.l_fired;
          t.now <- Float.max t.now l.l_now;
          let h = l.l_heap in
          while h.q_size > 0 do
            let time = q_top_time h and seq = q_top_seq h and label = q_top_label h in
            leftovers := (time, l.l_id, seq, label, q_take h) :: !leftovers
          done)
        p.p_lanes;
      List.iter
        (fun (time, _, _, label, run) ->
          q_push t.heap ~time ~seq:t.seq ~label run;
          t.seq <- t.seq + 1)
        (List.sort
           (fun (ta, la, sa, _, _) (tb, lb, sb, _, _) ->
             match Float.compare ta tb with
             | 0 -> ( match compare la lb with 0 -> compare sa sb | c -> c)
             | c -> c)
           !leftovers)

(** [par_foreign t label] — are we inside a parallel lane while [label]
    names a different node's lane?  Used by {!Signal.pulse} to decide
    whether a pulse must be deferred to the window barrier instead of
    mutating another lane's waiter list. *)
let par_foreign t label =
  match t.par with
  | None -> false
  | Some _ -> (
      match current_lane () with
      | None -> false
      | Some l -> label.lbl_node >= 0 && label.lbl_node <> l.l_id)

(** [par_defer_pulse t label thunk] — buffer a foreign-lane pulse on the
    current lane; the barrier replays it in the target lane's context at
    the window boundary. *)
let par_defer_pulse _t label thunk =
  match current_lane () with
  | Some l -> l.l_out_pulses <- (label.lbl_node, thunk) :: l.l_out_pulses
  | None -> thunk ()
