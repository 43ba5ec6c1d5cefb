(** Simulated processes and CPUs.

    A process is an OCaml function run as an effect-handled fiber; it
    consumes simulated CPU time by performing the effects below.  Each CPU
    schedules its processes round-robin with a time quantum and a context
    switch cost, which is what produces the multi-millisecond message
    latencies of Section 4.3 of the paper when a request targets a process
    that is not currently scheduled.

    Operations available to process bodies:
    - [work dt]: consume [dt] seconds of CPU, polling for incoming
      messages every [poll_interval] (the inserted loop-backedge polls);
    - [stall pred]: spin, servicing incoming messages, until [pred ()]
      holds (a shared-miss wait).  The CPU is held, but the quantum still
      expires, allowing other runnable processes to take over;
    - [block ()]: release the CPU until [wakeup] (a blocking syscall);
    - [sleep dt]: release the CPU for [dt] seconds.

    A process spin-waiting in [stall] beside a runnable competitor keeps
    the CPU until its quantum ends.  Each CPU has one quantum timer for
    this.  Every wait that finds a competitor arms it for
    [max now quantum_deadline], which is the same time for every arm
    within one quantum, so only the first arm pushes an event; a later
    one records which waiting stint (process and version) the timer now
    preempts.  Each arm still takes the sequence number a push of its
    own would have used, and the timer fires at its owner's first one,
    so same-time ties, and with them the whole [Fifo] run, come out as
    if every arm had pushed its own version-guarded timer.  A timer
    left from an earlier deadline after a re-dispatch does nothing.

    Scheduling priorities: a lower [priority] number is more urgent.
    Application processes run at priority 0; "protocol processes"
    (Section 4.3.2) run at priority 1 so that they execute only when no
    application process is runnable, and are preempted immediately when
    one becomes runnable.

    [work] starts its slice loop on the process's own fiber.  Each wait
    in it — the zero-delay step, every slice, every message-service
    delay — fires inline through {!Engine.fire_inline} when it would be
    the engine's next event anyway.  At the first wait that cannot, the
    fiber parks and the loop carries on in that wait's real event (the
    CPU's scheduler label, the process's version guard) and the ones
    after it, still firing inline where it can, until the work is done
    and the fiber resumes.  Either way the clock, the event order and
    the event count are the same; only the host cost differs: no fiber
    switch at all when every wait fires inline, one otherwise. *)

type pstate = Ready | Running | Blocked | Waiting | Finished

type activity =
  | Thunk of (unit -> unit)
  | Stalling of (unit -> bool) * (unit -> unit)

(* A process's CPU-time account.  An all-float record is stored flat,
   so the slice loop adds to it in place, without boxing. *)
type times = {
  mutable work_time : float;  (** seconds spent in [work] slices *)
  mutable msg_time : float;  (** seconds spent servicing messages at polls *)
}

type t = {
  pid : int;
  name : string;
  priority : int;
  cpu : cpu;
  mutable state : pstate;
  mutable activity : activity;
  mutable version : int;
  mutable on_poll : t -> float;
      (** Service pending incoming messages; returns CPU seconds consumed. *)
  mutable stall_signal : Signal.t option;
      (** Pulsed when a message arrives for this process's node. *)
  mutable yield_waiting : bool;
      (** while signal-waiting in a stall, cede the CPU immediately to any
          runnable process instead of spinning out the quantum (idle
          server/protocol processes back off, Section 4.3.3) *)
  times : times;
  mutable failure : exn option;
  mutable parked : (unit, unit) Effect.Deep.continuation option;
      (** the fiber, while its [work] slice loop runs in engine events *)
}

and cpu = {
  cpu_global_id : int;
  node_id : int;
  label : Engine.label;
      (** footprint of this CPU's scheduler events: node-local, no block *)
  engine : Engine.t;
  quantum : float;
  switch_cost : float;
  ready : t Queue.t array;  (** one queue per priority level *)
  mutable current : t option;
  mutable quantum_deadline : float;
  mutable switches : int;
  mutable next_pid : int ref;
  mutable timer_at : float;
      (** firing time of the armed quantum timer; [nan] when none is armed *)
  mutable timer_owner : t option;  (** the waiting stint it preempts: the process, *)
  mutable timer_version : int;  (** at this version, *)
  mutable timer_first_seq : int;  (** and the sequence number of its first arm *)
}

let priority_levels = 2

let make_cpu ~engine ~node_id ~cpu_global_id ~quantum ~switch_cost next_pid =
  {
    cpu_global_id;
    node_id;
    label =
      { Engine.lbl_node = node_id; lbl_block = -1; lbl_kind = Engine.Proc_step };
    engine;
    quantum;
    switch_cost;
    ready = Array.init priority_levels (fun _ -> Queue.create ());
    current = None;
    quantum_deadline = 0.0;
    switches = 0;
    next_pid;
    timer_at = Float.nan;
    timer_owner = None;
    timer_version = 0;
    timer_first_seq = 0;
  }

let pick_ready cpu =
  let rec go i =
    if i >= priority_levels then None
    else if Queue.is_empty cpu.ready.(i) then go (i + 1)
    else Some (Queue.pop cpu.ready.(i))
  in
  go 0

let rec ready_from (ready : t Queue.t array) i =
  i < priority_levels && ((not (Queue.is_empty ready.(i))) || ready_from ready (i + 1))

let exists_ready cpu = ready_from cpu.ready 0

let rec dispatch cpu =
  match cpu.current with
  | Some _ -> ()
  | None -> (
      match pick_ready cpu with
      | None -> ()
      | Some p ->
          cpu.current <- Some p;
          p.state <- Running;
          cpu.switches <- cpu.switches + 1;
          cpu.quantum_deadline <- Engine.now cpu.engine +. cpu.quantum;
          p.version <- p.version + 1;
          let v = p.version in
          Engine.after cpu.engine ~label:cpu.label cpu.switch_cost (fun () ->
              if p.version = v then step p))

and enqueue_ready p =
  let cpu = p.cpu in
  p.state <- Ready;
  Queue.push p cpu.ready.(p.priority);
  match cpu.current with
  | None -> dispatch cpu
  | Some c ->
      if c.priority > p.priority then preempt c
      else if c.state = Waiting then
        (* The current process is idly waiting on a signal; it keeps the
           CPU only until its quantum expires. *)
        if c.yield_waiting then preempt c else arm_quantum_timer cpu c

(* Arm [cpu]'s quantum timer for the present waiting stint of [p], the
   current process (see the header).  An arm for the time the timer is
   already armed for pushes nothing: it takes its sequence number and,
   for a new stint, becomes the owner. *)
and arm_quantum_timer cpu p =
  let eng = cpu.engine in
  let at = Float.max (Engine.now eng) cpu.quantum_deadline in
  let seq = Engine.take_seq eng in
  let armed = cpu.timer_at = at in
  if not armed then begin
    cpu.timer_at <- at;
    Engine.at_seq eng ~label:cpu.label ~seq at (fun () -> quantum_timer cpu at seq)
  end;
  let owned =
    armed
    &&
    match cpu.timer_owner with
    | Some o -> o == p && cpu.timer_version = p.version
    | None -> false
  in
  if not owned then begin
    cpu.timer_owner <- Some p;
    cpu.timer_version <- p.version;
    cpu.timer_first_seq <- seq
  end

(* The timer armed for [at], firing with sequence number [seq].  One
   left from an earlier time is stale and does nothing.  Ahead of its
   owner's first arm it steps back into the queue at that arm's number;
   there it preempts the owner if it is still waiting. *)
and quantum_timer cpu at seq =
  if cpu.timer_at = at then
    if cpu.timer_first_seq > seq then begin
      let first = cpu.timer_first_seq in
      let eng = cpu.engine in
      Engine.at_seq eng ~label:cpu.label ~jitter:false ~seq:first (Engine.now eng) (fun () ->
          quantum_timer cpu at first)
    end
    else begin
      let owner = cpu.timer_owner in
      cpu.timer_at <- Float.nan;
      cpu.timer_owner <- None;
      match owner with
      | Some p when p.version = cpu.timer_version && p.state = Waiting -> preempt p
      | Some _ | None -> ()
    end

and preempt p =
  let cpu = p.cpu in
  (match cpu.current with
  | Some c when c == p -> ()
  | Some _ | None -> invalid_arg "Proc.preempt: not the current process");
  p.version <- p.version + 1;
  p.state <- Ready;
  Queue.push p cpu.ready.(p.priority);
  cpu.current <- None;
  dispatch cpu

and step p =
  match p.activity with
  | Thunk f -> f ()
  | Stalling (pred, cont) -> stall_step p pred cont

(* [p.activity] holds [Stalling (pred, cont)], which is how [step] got
   here; every branch that waits again leaves it in place. *)
and stall_step p pred cont =
  let cpu = p.cpu in
  let eng = cpu.engine in
  if p.state = Waiting then begin
    p.state <- Running;
    p.version <- p.version + 1
  end;
  if pred () then begin
    p.activity <- Thunk cont;
    cont ()
  end
  else begin
    let service = p.on_poll p in
    if service > 0.0 then begin
      p.times.msg_time <- p.times.msg_time +. service;
      let v = p.version in
      Engine.after eng ~label:cpu.label service (fun () -> if p.version = v then step p)
    end
    else if p.yield_waiting && exists_ready cpu then begin
      (* An idle server/protocol process with competition for the CPU:
         release it entirely and come back through the ready queue when a
         message arrives.  With no competitor it keeps spinning below, so
         it reacts to arrivals without paying a context switch. *)
      p.state <- Waiting;
      let v = p.version in
      (match cpu.current with Some c when c == p -> cpu.current <- None | Some _ | None -> ());
      (match p.stall_signal with
      | Some s ->
          Signal.wait s (fun () -> if p.version = v && p.state = Waiting then enqueue_ready p)
      | None -> ());
      dispatch cpu
    end
    else if (not p.yield_waiting) && exists_ready cpu && Engine.now eng >= cpu.quantum_deadline
    then begin
      preempt p
    end
    else begin
      (* Nothing to service: spin-wait for the next message arrival.  If
         another process is runnable, also give up the CPU when the
         quantum ends. *)
      p.state <- Waiting;
      let v = p.version in
      (match p.stall_signal with
      | Some s -> Signal.wait s (fun () -> if p.version = v && p.state = Waiting then step p)
      | None -> ());
      if exists_ready cpu then arm_quantum_timer cpu p
    end
  end

(* Effects performed by process bodies. *)

type _ Effect.t +=
  | Suspend : (unit -> unit) -> unit Effect.t
  | Stall : (unit -> bool) -> unit Effect.t
  | Block : unit Effect.t

let stall pred = Effect.perform (Stall pred)
let block () = Effect.perform Block

(* The process whose fiber this domain is running, written at every
   resume.  Domain-local: parallel lanes run fibers on several domains
   at once. *)
let running : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let self () =
  match !(Domain.DLS.get running) with
  | Some p -> p
  | None -> invalid_arg "Proc.self: not inside a process"

let resume p k x =
  Domain.DLS.get running := Some p;
  Effect.Deep.continue k x

(* The [work] slice loop starts on the process's fiber.  [leave p
   action] runs [action] in engine context: from the fiber it parks the
   fiber first ([Suspend]), and the loop carries on in engine events
   until [work_done] resumes it; once parked, it just runs [action]. *)
let leave p action =
  match p.parked with None -> Effect.perform (Suspend action) | Some _ -> action ()

let work_done p =
  match p.parked with
  | None -> ()
  | Some k ->
      p.parked <- None;
      resume p k ()

(* A scheduler wait of [delay] seconds, guarded by version [v], fired in
   place when it would be the engine's very next event anyway. *)
let[@inline] inline p v delay =
  let eng = p.cpu.engine in
  p.version = v && Engine.fire_inline eng (Engine.now eng +. delay)

(* The same wait as a real event, [fire] (which checks the version);
   from the fiber, park it first and come back here parked.  Should [p]
   be descheduled meanwhile, a later dispatch picks the loop up at
   [redo]. *)
let rec schedule p delay fire ~redo =
  match p.parked with
  | None -> Effect.perform (Suspend (fun () -> schedule p delay fire ~redo))
  | Some _ ->
      p.activity <- Thunk redo;
      Engine.after p.cpu.engine ~label:p.cpu.label delay fire

(* [on_poll] may run on the fiber, but its exceptions belong to the
   engine run (an invariant violation aborts it), not to [p.failure]. *)
let poll p =
  try p.on_poll p
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    leave p (fun () -> Printexc.raise_with_backtrace e bt);
    assert false (* [leave] ran the raise *)

(** The work-slice length: a process polls for messages this often. *)
let poll_interval = 2e-6

(* The slice loop.  Work [rem] seconds in slices of at most
   [poll_interval], polling for messages after each one and charging the
   service time; cede the CPU at the end of the quantum when another
   process is runnable.  A slice the process was descheduled in is lost
   and worked again.

   The loop stands at a wait of [wait] seconds, begun at version [v]: a
   work slice when [slice] ([rem] is then the work left before it), else
   the zero-delay start or a message-service delay.  [elapsed] says the
   wait is already over, as when its event re-enters the loop.  Each
   wait fires inline while it can, with the loop's state in unboxed
   locals; the first that cannot is scheduled, and the loop goes on in
   its event. *)
let rec slices p ~v ~wait ~slice ~elapsed rem =
  let cpu = p.cpu in
  let v = ref v and wait = ref wait and slice = ref slice and elapsed = ref elapsed in
  let rem = ref rem and go = ref true in
  while !go do
    if !elapsed || inline p !v !wait then begin
      elapsed := false;
      let service =
        if !slice then begin
          p.times.work_time <- p.times.work_time +. !wait;
          rem := !rem -. !wait;
          poll p
        end
        else 0.0
      in
      if service > 0.0 then begin
        p.times.msg_time <- p.times.msg_time +. service;
        wait := service;
        slice := false
      end
      else if !rem <= 1e-15 then begin
        go := false;
        work_done p
      end
      else begin
        let until_quantum = cpu.quantum_deadline -. Engine.now cpu.engine in
        if until_quantum <= 0.0 && exists_ready cpu then begin
          go := false;
          let rem = !rem in
          leave p (fun () ->
              p.activity <- Thunk (fun () -> resume_slices p rem);
              preempt p)
        end
        else begin
          (* When the quantum has expired but nothing else is runnable,
             keep working in normal poll-sized slices. *)
          let quantum_cap = if until_quantum > 0.0 then until_quantum else poll_interval in
          wait := Float.min !rem (Float.min poll_interval quantum_cap);
          slice := true;
          v := p.version
        end
      end
    end
    else begin
      go := false;
      let v = !v and wait = !wait and slice = !slice and rem = !rem in
      schedule p wait
        (fun () -> if p.version = v then slices p ~v ~wait ~slice ~elapsed:true rem)
        ~redo:(fun () -> resume_slices p rem)
    end
  done

(* The loop's head: [rem] seconds left, no slice in progress. *)
and resume_slices p rem = slices p ~v:p.version ~wait:0.0 ~slice:false ~elapsed:true rem

let work dt =
  if dt > 0.0 then begin
    let p = self () in
    slices p ~v:p.version ~wait:0.0 ~slice:false ~elapsed:false dt
  end

let wakeup p =
  match p.state with
  | Blocked -> enqueue_ready p
  | Ready | Running | Waiting | Finished -> ()

let sleep dt =
  let p = self () in
  Engine.after p.cpu.engine ~label:p.cpu.label dt (fun () -> wakeup p);
  block ()

let finish p =
  let cpu = p.cpu in
  p.state <- Finished;
  p.version <- p.version + 1;
  (match cpu.current with Some c when c == p -> cpu.current <- None | Some _ | None -> ());
  dispatch cpu

let schedule_step p =
  let v = p.version in
  Engine.after p.cpu.engine ~label:p.cpu.label 0.0 (fun () -> if p.version = v then step p)

let run_fiber p body =
  let open Effect.Deep in
  Domain.DLS.get running := Some p;
  match_with body ()
    {
      retc = (fun () -> finish p);
      exnc = (fun e -> p.failure <- Some e; finish p);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend action ->
              Some
                (fun (k : (a, unit) continuation) ->
                  p.parked <- Some k;
                  action ())
          | Stall pred ->
              Some
                (fun (k : (a, unit) continuation) ->
                  p.activity <- Stalling (pred, fun () -> resume p k ());
                  schedule_step p)
          | Block ->
              Some
                (fun (k : (a, unit) continuation) ->
                  p.activity <- Thunk (fun () -> resume p k ());
                  p.version <- p.version + 1;
                  p.state <- Blocked;
                  let cpu = p.cpu in
                  (match cpu.current with
                  | Some c when c == p -> cpu.current <- None
                  | Some _ | None -> ());
                  dispatch cpu)
          | _ -> None);
    }

let spawn ?(priority = 0) ?(name = "proc") cpu body =
  if priority < 0 || priority >= priority_levels then invalid_arg "Proc.spawn: priority";
  let pid = !(cpu.next_pid) in
  incr cpu.next_pid;
  let rec p =
    {
      pid;
      name;
      priority;
      cpu;
      state = Blocked;
      activity = Thunk (fun () -> run_fiber p body);
      version = 0;
      on_poll = (fun _ -> 0.0);
      stall_signal = None;
      yield_waiting = false;
      times = { work_time = 0.0; msg_time = 0.0 };
      failure = None;
      parked = None;
    }
  in
  enqueue_ready p;
  p

let finished p = p.state = Finished
