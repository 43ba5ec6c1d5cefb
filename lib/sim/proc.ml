(** Simulated processes and CPUs.

    A process is an OCaml function run as an effect-handled fiber; it
    consumes simulated CPU time by performing the effects below.  Each CPU
    schedules its processes round-robin with a time quantum and a context
    switch cost, which is what produces the multi-millisecond message
    latencies of Section 4.3 of the paper when a request targets a process
    that is not currently scheduled.

    Effects available to process bodies:
    - [work dt]: consume [dt] seconds of CPU, polling for incoming
      messages every [poll_interval] (the inserted loop-backedge polls);
    - [stall pred]: spin, servicing incoming messages, until [pred ()]
      holds (a shared-miss wait).  The CPU is held, but the quantum still
      expires, allowing other runnable processes to take over;
    - [block ()]: release the CPU until [wakeup] (a blocking syscall);
    - [sleep dt]: release the CPU for [dt] seconds;
    - [yield ()]: requeue behind other runnable processes.

    Scheduling priorities: a lower [priority] number is more urgent.
    Application processes run at priority 0; "protocol processes"
    (Section 4.3.2) run at priority 1 so that they execute only when no
    application process is runnable, and are preempted immediately when
    one becomes runnable. *)

type pstate = Ready | Running | Blocked | Waiting | Finished

type activity =
  | Thunk of (unit -> unit)
  | Work_left of float * (unit -> unit)
  | Stalling of (unit -> bool) * (unit -> unit)

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
  mutable poll_interval : float;
  mutable yield_waiting : bool;
      (** while signal-waiting in a stall, cede the CPU immediately to any
          runnable process instead of spinning out the quantum (idle
          server/protocol processes back off, Section 4.3.3) *)
  mutable work_time : float;
  mutable msg_time : float;
  mutable finished_at : float;
  mutable n_steps : int;  (** scheduler steps, for diagnostics *)
  mutable on_exit : (unit -> unit) list;
  mutable failure : exn option;
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
  }

let now p = Engine.now p.cpu.engine

let pick_ready cpu =
  let rec go i =
    if i >= priority_levels then None
    else if Queue.is_empty cpu.ready.(i) then go (i + 1)
    else Some (Queue.pop cpu.ready.(i))
  in
  go 0

let exists_ready ?(below = priority_levels) cpu =
  let rec go i = i < below && (not (Queue.is_empty cpu.ready.(i)) || go (i + 1)) in
  go 0

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
        if c.yield_waiting then preempt c
        else begin
          (* The current process is idly waiting on a signal; it keeps the
             CPU only until its quantum expires. *)
          let eng = cpu.engine in
          let fire_at = max (Engine.now eng) cpu.quantum_deadline in
          let v = c.version in
          Engine.at eng ~label:cpu.label fire_at (fun () ->
              if c.version = v && c.state = Waiting then preempt c)
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
  p.n_steps <- p.n_steps + 1;
  match p.activity with
  | Thunk f -> f ()
  | Work_left (rem, cont) -> work_step p rem cont
  | Stalling (pred, cont) -> stall_step p pred cont

and work_step p rem cont =
  let cpu = p.cpu in
  let eng = cpu.engine in
  if rem <= 1e-15 then begin
    p.activity <- Thunk cont;
    cont ()
  end
  else begin
    let until_quantum = cpu.quantum_deadline -. Engine.now eng in
    if until_quantum <= 0.0 && exists_ready cpu then begin
      p.activity <- Work_left (rem, cont);
      preempt p
    end
    else begin
      (* When the quantum has expired but nothing else is runnable, keep
         working in normal poll-sized slices. *)
      let quantum_cap = if until_quantum > 0.0 then until_quantum else p.poll_interval in
      let slice = Float.min rem (Float.min p.poll_interval quantum_cap) in
      let v = p.version in
      Engine.after eng ~label:cpu.label slice (fun () ->
          if p.version = v then begin
            p.work_time <- p.work_time +. slice;
            p.activity <- Work_left (rem -. slice, cont);
            let service = p.on_poll p in
            if service > 0.0 then begin
              p.msg_time <- p.msg_time +. service;
              Engine.after eng ~label:cpu.label service (fun () -> if p.version = v then step p)
            end
            else step p
          end)
    end
  end

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
      p.msg_time <- p.msg_time +. service;
      let v = p.version in
      Engine.after eng ~label:cpu.label service (fun () -> if p.version = v then step p)
    end
    else if p.yield_waiting && exists_ready cpu then begin
      (* An idle server/protocol process with competition for the CPU:
         release it entirely and come back through the ready queue when a
         message arrives.  With no competitor it keeps spinning below, so
         it reacts to arrivals without paying a context switch. *)
      p.activity <- Stalling (pred, cont);
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
      p.activity <- Stalling (pred, cont);
      preempt p
    end
    else begin
      (* Nothing to service: spin-wait for the next message arrival.  If
         another process is runnable, also give up the CPU when the
         quantum ends. *)
      p.activity <- Stalling (pred, cont);
      p.state <- Waiting;
      let v = p.version in
      (match p.stall_signal with
      | Some s -> Signal.wait s (fun () -> if p.version = v && p.state = Waiting then step p)
      | None -> ());
      if exists_ready cpu then
        Engine.at eng ~label:cpu.label
          (max (Engine.now eng) cpu.quantum_deadline)
          (fun () -> if p.version = v && p.state = Waiting then preempt p)
    end
  end

(* Effects performed by process bodies. *)

type _ Effect.t +=
  | Work : float -> unit Effect.t
  | Stall : (unit -> bool) -> unit Effect.t
  | Block : unit Effect.t
  | Yield : unit Effect.t
  | Self : t Effect.t

let work dt = if dt > 0.0 then Effect.perform (Work dt)
let stall pred = Effect.perform (Stall pred)
let block () = Effect.perform Block
let yield () = Effect.perform Yield
let self () = Effect.perform Self

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
  p.finished_at <- Engine.now cpu.engine;
  p.version <- p.version + 1;
  (match cpu.current with Some c when c == p -> cpu.current <- None | Some _ | None -> ());
  let callbacks = List.rev p.on_exit in
  p.on_exit <- [];
  List.iter (fun f -> f ()) callbacks;
  dispatch cpu

let schedule_step p =
  let v = p.version in
  Engine.after p.cpu.engine ~label:p.cpu.label 0.0 (fun () -> if p.version = v then step p)

let run_fiber p body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> finish p);
      exnc = (fun e -> p.failure <- Some e; finish p);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Work d ->
              Some
                (fun (k : (a, unit) continuation) ->
                  p.activity <- Work_left (d, fun () -> continue k ());
                  schedule_step p)
          | Stall pred ->
              Some
                (fun (k : (a, unit) continuation) ->
                  p.activity <- Stalling (pred, fun () -> continue k ());
                  schedule_step p)
          | Block ->
              Some
                (fun (k : (a, unit) continuation) ->
                  p.activity <- Thunk (fun () -> continue k ());
                  p.version <- p.version + 1;
                  p.state <- Blocked;
                  let cpu = p.cpu in
                  (match cpu.current with
                  | Some c when c == p -> cpu.current <- None
                  | Some _ | None -> ());
                  dispatch cpu)
          | Yield ->
              Some
                (fun (k : (a, unit) continuation) ->
                  p.activity <- Thunk (fun () -> continue k ());
                  preempt p)
          | Self -> Some (fun (k : (a, unit) continuation) -> continue k p)
          | _ -> None);
    }

let default_poll_interval = 2e-6

let spawn ?(priority = 0) ?(name = "proc") ?(poll_interval = default_poll_interval) cpu body =
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
      poll_interval;
      yield_waiting = false;
      work_time = 0.0;
      msg_time = 0.0;
      finished_at = Float.nan;
      n_steps = 0;
      on_exit = [];
      failure = None;
    }
  in
  enqueue_ready p;
  p

(** [join target] blocks the calling process until [target] finishes.
    Re-raises [target]'s failure, if any, in the caller. *)
let join target =
  let caller = self () in
  if target.state <> Finished then begin
    target.on_exit <- (fun () -> wakeup caller) :: target.on_exit;
    block ()
  end;
  match target.failure with None -> () | Some e -> raise e

let finished p = p.state = Finished
