(** Conservative parallel discrete-event driver (Chandy–Misra style).

    The event store is split into one lane per simulated node
    ({!Engine.par_install}) and the lanes are driven on real OCaml 5
    domains.  The lookahead is the minimum cross-node latency — for the
    simulated Memory Channel, the 4 µs one-way network latency: an event
    fired at time [T] on one node can affect another node no earlier
    than [T + lookahead], because every cross-node interaction travels
    through [Mchan.Link], whose delivery time adds at least the one-way
    latency.  So all events in the window [W, W + lookahead), where [W]
    is the minimum pending event time across lanes, are causally
    independent {e across} lanes and may run concurrently; within a lane
    they run in exact [(time, seq)] order.

    Each window is a barrier round:

    + the coordinator computes [W] and publishes the window end;
    + every worker drives its lanes up to (strictly before) the window
      end, buffering cross-lane [at] calls and foreign signal pulses on
      the scheduling lane;
    + at the barrier the coordinator merges the buffered cross events
      into their destination lanes in deterministic
      [(time, src lane, src seq)] order, advances all lane clocks to the
      window end, and replays deferred pulses in each target lane's
      context.

    A cross-lane event inside the window would mean the lookahead was
    violated; {!Engine.Cross_window} escapes the run in that case (a
    conservative configuration must never raise it).

    Only the [Fifo] schedule is supported: the exploration schedules
    permute global same-time tie-sets, which have no meaning once the
    tie-set is split across concurrently-executing lanes.  Within each
    lane, firing order is identical to the sequential engine's; across
    lanes, same-time events on different nodes may interleave
    differently than sequentially — by the lookahead argument those
    events are independent, so simulated results must agree up to
    permutations of causally-concurrent ties (merged cross events carry
    fresh sequence numbers, so a same-time local/cross pair may resolve
    in either order — the class of reorderings a seeded [Guided]
    schedule explores).  Runs at different worker counts can differ:
    Water-Nsq ran 0.27732881 s on two domains and 0.27732481 s on four,
    one lookahead apart.  The tests check each parallel elapsed time to
    within a relative 1e-3 of the sequential run's. *)

type shared = {
  m : Mutex.t;
  cv : Condition.t;
  mutable generation : int;  (** bumped by the coordinator to release workers *)
  mutable running : bool;  (** false tells workers to exit *)
  mutable done_count : int;  (** workers finished with the current window *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
      (** first exception raised inside a lane, re-raised by the coordinator *)
}

(* Drive every lane owned by [worker] (lanes are dealt round-robin) up to
   the published window end.  Exceptions are parked in [sh.failure]; the
   coordinator re-raises after the barrier so domains always rejoin. *)
let process_lanes sh (p : Engine.par) ~worker ~workers ~until =
  let we = p.Engine.p_window_end in
  Array.iter
    (fun (l : Engine.lane) ->
      if l.Engine.l_id mod workers = worker && sh.failure = None then begin
        Engine.set_current_lane (Some l);
        (try Engine.lane_run l ~window_end:we ~until
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Mutex.lock sh.m;
           if sh.failure = None then sh.failure <- Some (e, bt);
           Mutex.unlock sh.m);
        Engine.set_current_lane None
      end)
    p.Engine.p_lanes

let worker_loop sh p ~worker ~workers ~until =
  let my_gen = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock sh.m;
    while sh.running && sh.generation = !my_gen do
      Condition.wait sh.cv sh.m
    done;
    let running = sh.running in
    my_gen := sh.generation;
    Mutex.unlock sh.m;
    if not running then continue := false
    else begin
      process_lanes sh p ~worker ~workers ~until;
      Mutex.lock sh.m;
      sh.done_count <- sh.done_count + 1;
      Condition.broadcast sh.cv;
      Mutex.unlock sh.m
    end
  done

(* The barrier's sequential tail: move buffered cross events into their
   destination lanes (deterministic (time, src, src-seq) order, fresh
   destination sequence numbers), advance every lane clock to the window
   end (clamped to the deadline), then replay deferred foreign pulses in
   their target lane's context so waiter wake-ups land on the right
   lane. *)
let merge (p : Engine.par) ~until ~we =
  let crosses = ref [] in
  Array.iter
    (fun (l : Engine.lane) ->
      match l.Engine.l_out with
      | [] -> ()
      | out ->
          crosses := List.rev_append out !crosses;
          l.Engine.l_out <- [])
    p.Engine.p_lanes;
  let crosses =
    List.sort
      (fun (a : Engine.cross) (b : Engine.cross) ->
        match Float.compare a.Engine.x_time b.Engine.x_time with
        | 0 -> (
            match compare a.Engine.x_src b.Engine.x_src with
            | 0 -> compare a.Engine.x_src_seq b.Engine.x_src_seq
            | c -> c)
        | c -> c)
      !crosses
  in
  List.iter
    (fun (x : Engine.cross) ->
      Engine.lane_push p.Engine.p_lanes.(x.Engine.x_dst) ~time:x.Engine.x_time
        ~label:x.Engine.x_label x.Engine.x_run)
    crosses;
  let t_adv = Float.min we until in
  Array.iter
    (fun (l : Engine.lane) -> if t_adv > l.Engine.l_now then l.Engine.l_now <- t_adv)
    p.Engine.p_lanes;
  Array.iter
    (fun (l : Engine.lane) ->
      match l.Engine.l_out_pulses with
      | [] -> ()
      | ps ->
          l.Engine.l_out_pulses <- [];
          List.iter
            (fun (dst, thunk) ->
              let dl =
                if dst >= 0 && dst < Array.length p.Engine.p_lanes then
                  p.Engine.p_lanes.(dst)
                else l
              in
              Engine.set_current_lane (Some dl);
              thunk ())
            (List.rev ps);
          Engine.set_current_lane None)
    p.Engine.p_lanes

(** [run ?until ?lookahead ~domains eng ~nodes] drives [eng] to
    quiescence (or [until]) with per-node lanes spread over [domains]
    real domains.  The engine must use the [Fifo] schedule.  On return —
    normal or exceptional — the engine is folded back to sequential
    form, so [run]/[step] can be used afterwards. *)
let run ?(until = Float.infinity) ?(lookahead = 4.0e-6) ~domains eng ~nodes =
  if domains < 1 then invalid_arg "Sim.Par.run: domains must be >= 1";
  if nodes < 1 then invalid_arg "Sim.Par.run: nodes must be >= 1";
  if not (lookahead > 0.0) then invalid_arg "Sim.Par.run: lookahead must be > 0";
  let p = Engine.par_install eng ~nodes in
  let workers = max 1 (min domains nodes) in
  let sh =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      generation = 0;
      running = true;
      done_count = 0;
      failure = None;
    }
  in
  let spawned =
    List.init (workers - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop sh p ~worker:(i + 1) ~workers ~until))
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock sh.m;
      sh.running <- false;
      Condition.broadcast sh.cv;
      Mutex.unlock sh.m;
      List.iter Domain.join spawned;
      Engine.par_remove eng)
    (fun () ->
      let reason = ref Engine.Quiescent in
      let finished = ref false in
      while not !finished do
        let w =
          Array.fold_left
            (fun acc l -> Float.min acc (Engine.lane_next_time l))
            Float.infinity p.Engine.p_lanes
        in
        if w = Float.infinity then begin
          reason := Engine.Quiescent;
          finished := true
        end
        else if w > until then begin
          Array.iter
            (fun (l : Engine.lane) ->
              if until > l.Engine.l_now then l.Engine.l_now <- until)
            p.Engine.p_lanes;
          reason := Engine.Deadline;
          finished := true
        end
        else begin
          let we = w +. lookahead in
          p.Engine.p_window_end <- we;
          Mutex.lock sh.m;
          sh.done_count <- 0;
          sh.generation <- sh.generation + 1;
          Condition.broadcast sh.cv;
          Mutex.unlock sh.m;
          process_lanes sh p ~worker:0 ~workers ~until;
          Mutex.lock sh.m;
          while sh.done_count < workers - 1 do
            Condition.wait sh.cv sh.m
          done;
          Mutex.unlock sh.m;
          (match sh.failure with
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ());
          merge p ~until ~we
        end
      done;
      !reason)
