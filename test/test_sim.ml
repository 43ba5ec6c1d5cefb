(* Unit tests for the discrete-event engine, its event heap, signals,
   processes. *)

open Sim

(* Events still queued: the heap's size plus the instant ring's (these
   tests run no parallel lanes). *)
let queued eng = eng.Engine.heap.Engine.q_size + eng.Engine.instant.Engine.r_len

let check_f = Alcotest.(check (float 1e-12))

(* The event heap is tested through the engine that owns it: each event
   is a thunk that logs its own identity, and [Engine.run] drains the
   heap, so the log is the pop order. *)
let fire_all entries =
  let eng = Engine.create () in
  let log = ref [] in
  List.iter (fun (t, v) -> Engine.at eng t (fun () -> log := (Engine.now eng, v) :: !log)) entries;
  ignore (Engine.run eng);
  List.rev !log

let test_heap_order () =
  Alcotest.(check (list string)) "order" [ "a"; "a2"; "b"; "c" ]
    (List.map snd (fire_all [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (1.0, "a2") ]))

let test_heap_fifo_ties () =
  Alcotest.(check (list int)) "fifo" (List.init 200 Fun.id)
    (List.map snd (fire_all (List.init 200 (fun i -> (1.0, i)))))

(* A fired event's closure must become garbage: the engine may not keep
   popped thunks reachable from its heap arrays or its tie buffer.  200
   events in ties of four each hold the only reference to their own
   block; after 150 fire, a major collection must have freed exactly the
   fired events' blocks. *)
let test_heap_releases_fired_closures () =
  List.iter
    (fun schedule ->
      let n = 200 and budget = 150 in
      let eng = Engine.create ~schedule () in
      let w = Weak.create n and fired = Array.make n false in
      let add i =
        let block = Bytes.make 64 'x' in
        Weak.set w i (Some block);
        Engine.at eng (float_of_int (i / 4)) (fun () ->
            ignore (Sys.opaque_identity block);
            fired.(i) <- true)
      in
      for i = 0 to n - 1 do
        add i
      done;
      ignore (Engine.run ~max_events:budget eng);
      Gc.full_major ();
      for i = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "event %d's block alive iff unfired" i)
          (not fired.(i)) (Weak.check w i)
      done;
      Alcotest.(check int) "unfired events still pending" (n - budget) (queued eng))
    [ Engine.Fifo; Check.Explore.seed_schedule 3 ]

let test_engine_run () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.at eng 2.0 (fun () -> log := 2 :: !log);
  Engine.at eng 1.0 (fun () ->
      log := 1 :: !log;
      Engine.after eng 0.5 (fun () -> log := 15 :: !log));
  let reason = Engine.run eng in
  Alcotest.(check (list int)) "events in order" [ 1; 15; 2 ] (List.rev !log);
  check_f "clock at last event" 2.0 (Engine.now eng);
  (match reason with
  | Engine.Quiescent -> ()
  | Engine.Deadline | Engine.Event_budget -> Alcotest.fail "expected quiescence")

let test_engine_deadline () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.at eng 10.0 (fun () -> fired := true);
  (match Engine.run ~until:5.0 eng with
  | Engine.Deadline -> ()
  | Engine.Quiescent | Engine.Event_budget -> Alcotest.fail "expected deadline");
  Alcotest.(check bool) "late event did not fire" false !fired;
  check_f "clock advanced to deadline" 5.0 (Engine.now eng)

let test_engine_past_rejected () =
  let eng = Engine.create () in
  let caught = ref false in
  Engine.at eng 1.0 (fun () ->
      Engine.at eng 2.0 ignore;
      try Engine.at eng 0.5 ignore
      with Engine.Past_event { requested; now; fired; pending } ->
        caught := true;
        check_f "requested" 0.5 requested;
        check_f "now" 1.0 now;
        Alcotest.(check int) "events fired so far" 1 fired;
        Alcotest.(check int) "pending events" 1 pending);
  ignore (Engine.run eng);
  Alcotest.(check bool) "raised Past_event with provenance" true !caught

(* Six handlers tied at t=1.0; the firing order is the schedule's
   tie-break permutation. *)
let firing_order schedule =
  let eng = Engine.create ~schedule () in
  let log = ref [] in
  for i = 0 to 5 do
    Engine.at eng 1.0 (fun () -> log := i :: !log)
  done;
  ignore (Engine.run eng);
  List.rev !log

let test_engine_fifo_ties_default () =
  Alcotest.(check (list int)) "fifo fires in insertion order" [ 0; 1; 2; 3; 4; 5 ]
    (firing_order Engine.Fifo);
  Alcotest.(check (list int)) "default schedule is fifo" [ 0; 1; 2; 3; 4; 5 ]
    (let eng = Engine.create () in
     let log = ref [] in
     for i = 0 to 5 do
       Engine.at eng 1.0 (fun () -> log := i :: !log)
     done;
     ignore (Engine.run eng);
     List.rev !log)

(* The six-tie orders the engine's former built-in per-seed permutation
   schedule fired for seeds 1..8; the stock seeded chooser must
   reproduce them bit-for-bit. *)
let seeded_orders =
  [
    [ 3; 1; 4; 2; 5; 0 ];
    [ 2; 4; 5; 0; 3; 1 ];
    [ 3; 4; 1; 5; 0; 2 ];
    [ 0; 3; 5; 4; 2; 1 ];
    [ 4; 2; 5; 3; 1; 0 ];
    [ 0; 5; 3; 1; 4; 2 ];
    [ 5; 4; 2; 1; 0; 3 ];
    [ 2; 5; 1; 4; 0; 3 ];
  ]

let test_engine_seeded_deterministic () =
  let seeded k = firing_order (Check.Explore.seed_schedule k) in
  List.iteri
    (fun i order ->
      Alcotest.(check (list int)) (Printf.sprintf "seed %d order" (i + 1)) order (seeded (i + 1)))
    seeded_orders;
  let a = seeded 11 in
  Alcotest.(check (list int)) "same seed, same order" a (seeded 11);
  Alcotest.(check (list int)) "a permutation of the tie set" [ 0; 1; 2; 3; 4; 5 ]
    (List.sort compare a)

let guided choose = Engine.Guided { choose; jitter = None }

let test_engine_choose_ties () =
  Alcotest.(check (list int)) "always-last reverses the tie set" [ 5; 4; 3; 2; 1; 0 ]
    (firing_order (guided (fun cands -> Array.length cands - 1)));
  Alcotest.(check (list int)) "out-of-range choice falls back to fifo"
    [ 0; 1; 2; 3; 4; 5 ]
    (firing_order (guided (fun _ -> 99)))

let test_engine_jittered_bounds () =
  let times () =
    let eng =
      Engine.create ~schedule:(Check.Explore.seed_schedule ~jitter:(1.0, 0.5) 5) ()
    in
    let log = ref [] in
    for _ = 1 to 20 do
      Engine.at eng 1.0 (fun () -> log := Engine.now eng :: !log)
    done;
    ignore (Engine.run eng);
    List.rev !log
  in
  let ts = times () in
  Alcotest.(check int) "all events fired" 20 (List.length ts);
  List.iter
    (fun t ->
      Alcotest.(check bool) "delayed, never hastened, within max_delay" true
        (t >= 1.0 && t <= 1.5))
    ts;
  Alcotest.(check bool) "some event delayed" true (List.exists (fun t -> t > 1.0) ts);
  Alcotest.(check (list (float 0.0))) "same seed, same jitter" ts (times ())

(* [fire_inline] fires in place only what would pop next anyway: inside
   a Fifo [run], within its deadline and budget, strictly before the
   heap root.  A successful fire advances the clock and the fired count
   as the pop would. *)
let test_engine_fire_inline_rule () =
  let eng = Engine.create () in
  Alcotest.(check bool) "not outside a run" false (Engine.fire_inline eng 0.0);
  let got = ref [] in
  let note name b = got := (name, b) :: !got in
  Engine.at eng 1.0 (fun () ->
      Engine.at eng 2.0 ignore;
      note "tie with the root" (Engine.fire_inline eng 2.0);
      note "before the root" (Engine.fire_inline eng 1.5);
      note "clock advanced" (Engine.now eng = 1.5);
      note "counted" (Engine.events_fired eng = 2));
  Engine.at eng 3.0 (fun () -> note "past the deadline" (Engine.fire_inline eng 3.5));
  ignore (Engine.run ~until:3.2 eng);
  Engine.at eng 4.0 (fun () -> note "past the event budget" (Engine.fire_inline eng 4.0));
  ignore (Engine.run ~max_events:1 eng);
  Alcotest.(check (list (pair string bool)))
    "inside a Fifo run"
    [
      ("tie with the root", false);
      ("before the root", true);
      ("clock advanced", true);
      ("counted", true);
      ("past the deadline", false);
      ("past the event budget", false);
    ]
    (List.rev !got);
  Alcotest.(check bool) "off again after the run" false (Engine.fire_inline eng 4.0);
  let eng = Engine.create ~schedule:(guided (fun _ -> 0)) () in
  let inline = ref true in
  Engine.at eng 1.0 (fun () -> inline := Engine.fire_inline eng 1.0);
  ignore (Engine.run eng);
  Alcotest.(check bool) "never under Guided" false !inline

let make_cpu ?(quantum = 0.010) ?(switch_cost = 0.0) eng =
  Proc.make_cpu ~engine:eng ~node_id:0 ~cpu_global_id:0 ~quantum ~switch_cost (ref 0)

let test_proc_work_advances_time () =
  let eng = Engine.create () in
  let cpu = make_cpu eng in
  let t_end = ref 0.0 in
  let p =
    Proc.spawn cpu (fun () ->
        Proc.work 0.001;
        t_end := Engine.now eng)
  in
  ignore (Engine.run eng);
  Alcotest.(check bool) "finished" true (Proc.finished p);
  check_f "time consumed" 0.001 !t_end

let test_proc_round_robin () =
  (* Two processes each needing 30 ms of CPU on one processor with a 10 ms
     quantum: both should finish at ~60 ms, interleaved. *)
  let eng = Engine.create () in
  let cpu = make_cpu eng in
  let done_a = ref 0.0 and done_b = ref 0.0 in
  let _a = Proc.spawn cpu (fun () -> Proc.work 0.030; done_a := Engine.now eng) in
  let _b = Proc.spawn cpu (fun () -> Proc.work 0.030; done_b := Engine.now eng) in
  ignore (Engine.run eng);
  Alcotest.(check bool) "a finished near 50-60ms" true (!done_a > 0.045 && !done_a <= 0.0601);
  Alcotest.(check bool) "b finished near 60ms" true (!done_b > 0.055 && !done_b <= 0.0601)

let test_proc_block_wakeup () =
  let eng = Engine.create () in
  let cpu = make_cpu eng in
  let woke = ref 0.0 in
  let p =
    Proc.spawn cpu (fun () ->
        Proc.block ();
        woke := Engine.now eng)
  in
  Engine.at eng 0.5 (fun () -> Proc.wakeup p);
  ignore (Engine.run eng);
  check_f "woken at 0.5" 0.5 !woke

let test_proc_sleep () =
  let eng = Engine.create () in
  let cpu = make_cpu eng in
  let woke = ref 0.0 in
  let _ = Proc.spawn cpu (fun () -> Proc.sleep 0.25; woke := Engine.now eng) in
  ignore (Engine.run eng);
  check_f "slept" 0.25 !woke

let test_proc_sleep_releases_cpu () =
  (* While one process sleeps, the other gets the CPU immediately. *)
  let eng = Engine.create () in
  let cpu = make_cpu eng in
  let b_done = ref 0.0 in
  let _a = Proc.spawn cpu (fun () -> Proc.sleep 1.0) in
  let _b = Proc.spawn cpu (fun () -> Proc.work 0.005; b_done := Engine.now eng) in
  ignore (Engine.run eng);
  Alcotest.(check bool) "b ran during a's sleep" true (!b_done < 0.01)

let test_proc_stall_signal () =
  let eng = Engine.create () in
  let cpu = make_cpu eng in
  let s = Signal.create eng in
  let flag = ref false in
  let resumed = ref 0.0 in
  let p =
    Proc.spawn cpu (fun () ->
        Proc.stall (fun () -> !flag);
        resumed := Engine.now eng)
  in
  p.Proc.stall_signal <- Some s;
  Engine.at eng 0.1 (fun () ->
      flag := true;
      Signal.pulse s);
  ignore (Engine.run eng);
  check_f "resumed at pulse" 0.1 !resumed

let test_proc_stall_services_messages () =
  (* The poll hook reports service time; the stalling process should charge
     it to msg_time and keep re-checking the predicate. *)
  let eng = Engine.create () in
  let cpu = make_cpu eng in
  let s = Signal.create eng in
  let pending = ref 0 in
  let flag = ref false in
  let p =
    Proc.spawn cpu (fun () ->
        Proc.stall (fun () -> !flag))
  in
  p.Proc.stall_signal <- Some s;
  p.Proc.on_poll <-
    (fun _ ->
      if !pending > 0 then begin
        decr pending;
        if !pending = 0 then flag := true;
        0.00001
      end
      else 0.0);
  Engine.at eng 0.05 (fun () ->
      pending := 3;
      Signal.pulse s);
  ignore (Engine.run eng);
  Alcotest.(check bool) "finished" true (Proc.finished p);
  Alcotest.(check bool) "service time charged" true (p.Proc.times.Proc.msg_time > 0.000029)

let test_proc_priority_preemption () =
  (* A low-priority (protocol) process is preempted as soon as an
     application process becomes runnable. *)
  let eng = Engine.create () in
  let cpu = make_cpu ~quantum:1.0 eng in
  let app_done = ref 0.0 in
  let _proto =
    Proc.spawn ~priority:1 cpu (fun () -> Proc.work 10.0)
  in
  Engine.at eng 0.001 (fun () ->
      ignore
        (Proc.spawn ~priority:0 cpu (fun () ->
             Proc.work 0.002;
             app_done := Engine.now eng)));
  ignore (Engine.run ~until:20.0 eng);
  Alcotest.(check bool) "app ran promptly despite busy protocol proc" true
    (!app_done > 0.0 && !app_done < 0.005)

(* A [Fifo] fire allocates nothing: the heap pop, the clock write and
   an inline fire all work in place.  100k pre-built no-op events fire
   from the heap, then one event fires 100k more inline; the bound
   leaves room only for the measurement's own few words; a clock boxed
   into the engine record costs 2 words a fire. *)
let test_engine_fires_allocate_nothing () =
  let n = 100_000 in
  let eng = Engine.create () in
  let nop () = () in
  for i = 1 to n do
    Engine.at eng (float_of_int i) nop
  done;
  let w0 = Gc.minor_words () in
  ignore (Engine.run eng);
  let heap_words = Gc.minor_words () -. w0 in
  let times = Array.init n (fun i -> float_of_int (n + 1 + i)) in
  let inline_words = ref Float.nan and refused = ref 0 in
  Engine.at eng (float_of_int n +. 0.5) (fun () ->
      let w0 = Gc.minor_words () in
      for i = 0 to n - 1 do
        if not (Engine.fire_inline eng times.(i)) then incr refused
      done;
      inline_words := Gc.minor_words () -. w0);
  ignore (Engine.run eng);
  Alcotest.(check int) "every inline fire taken" 0 !refused;
  Alcotest.(check int) "events fired" ((2 * n) + 1) (Engine.events_fired eng);
  check_f "clock at the last inline fire" (float_of_int (2 * n)) (Engine.now eng);
  List.iter
    (fun (what, words) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words for %d fires" what words n)
        true (words < 64.0))
    [ ("heap", heap_words); ("inline", !inline_words) ]

(* A lone process's work slices are each the engine's next event, so
   under Fifo they fire inline, with no event closure and no fiber
   switch, and the slice loop keeps its state unboxed.  Allocation is
   deterministic, so a bound on words per slice catches a change that
   silently loses the inline path (26 or more words a slice through the
   heap) or boxes the loop's floats again (8 words a slice): the loop
   allocates nothing. *)
let test_proc_lone_slices_fire_inline () =
  let eng = Engine.create () in
  let cpu = make_cpu eng in
  let words = ref 0.0 in
  let _p =
    Proc.spawn cpu (fun () ->
        let w0 = Gc.minor_words () in
        Proc.work (1000.0 *. Proc.poll_interval);
        words := Gc.minor_words () -. w0)
  in
  ignore (Engine.run eng);
  Alcotest.(check bool) "under 1 word per slice" true (!words /. 1000.0 < 1.0)

(* An exception raised by [on_poll] during a work slice aborts the
   engine run; it is not the process's failure.  Under Fifo the lone
   process's slices fire inline, so the poll runs on its fiber; under
   Guided they run in engine events. *)
exception Poll_failed

let test_proc_poll_exception_escapes () =
  List.iter
    (fun schedule ->
      let eng = Engine.create ~schedule () in
      let cpu = make_cpu eng in
      let p = Proc.spawn cpu (fun () -> Proc.work 0.001) in
      let polls = ref 0 in
      p.Proc.on_poll <-
        (fun _ ->
          incr polls;
          if !polls = 3 then raise Poll_failed else 0.0);
      Alcotest.check_raises "escapes Engine.run" Poll_failed (fun () ->
          ignore (Engine.run eng));
      Alcotest.(check bool) "not a process failure" true (p.Proc.failure = None);
      check_f "raised after the third slice" (3.0 *. Proc.poll_interval)
        (Engine.now eng))
    [ Engine.Fifo; guided (fun _ -> 0) ]

let test_quantum_wait_preemption () =
  (* A process waiting on a signal that never fires must lose the CPU to a
     runnable process at its quantum boundary. *)
  let eng = Engine.create () in
  let cpu = make_cpu ~quantum:0.010 eng in
  let s = Signal.create eng in
  let other_done = ref 0.0 in
  let flag = ref false in
  let p = Proc.spawn cpu (fun () -> Proc.stall (fun () -> !flag)) in
  p.Proc.stall_signal <- Some s;
  Engine.at eng 0.001 (fun () ->
      ignore
        (Proc.spawn cpu (fun () ->
             Proc.work 0.001;
             other_done := Engine.now eng)));
  Engine.at eng 1.0 (fun () ->
      flag := true;
      Signal.pulse s);
  ignore (Engine.run eng);
  Alcotest.(check bool) "other ran after quantum expiry" true
    (!other_done > 0.009 && !other_done < 0.10)

(* A process spin-waiting on [s] from time 0 on a fresh CPU, released
   by a pulse at 1 s, and a competitor made runnable at 1 ms with 1 ms
   of work.  The waiter's first quantum ends at 10 ms; [started] is when
   the competitor first ran. *)
let waiter_with_competitor eng cpu s =
  let flag = ref false in
  let started = ref Float.nan in
  let w = Proc.spawn cpu (fun () -> Proc.stall (fun () -> !flag)) in
  w.Proc.stall_signal <- Some s;
  Engine.at eng 0.001 (fun () ->
      ignore
        (Proc.spawn cpu (fun () ->
             started := Engine.now eng;
             Proc.work 0.001)));
  Engine.at eng 1.0 (fun () ->
      flag := true;
      Signal.pulse s);
  (w, started)

let test_quantum_timer_rearms_in_place () =
  (* The waiter wakes and waits again k times within its quantum while
     the competitor is ready: every wait arms the quantum timer, but the
     CPU keeps one timer event, and it preempts at the deadline. *)
  let eng = Engine.create () in
  let cpu = make_cpu ~quantum:0.010 eng in
  let s = Signal.create eng in
  let w, started = waiter_with_competitor eng cpu s in
  let k = 8 in
  let pending = ref [] in
  (* Pulse at 2, 3, ... ms; half a millisecond after each, only the
     timer is pending (the 1 s release comes later in the chain). *)
  let rec wake i =
    if i < k then
      Engine.at eng (0.002 +. (0.001 *. float_of_int i)) (fun () ->
          Signal.pulse s;
          Engine.after eng 0.0005 (fun () ->
              pending := (queued eng, w.Proc.state = Proc.Waiting) :: !pending;
              wake (i + 1)))
  in
  wake 0;
  ignore (Engine.run eng);
  Alcotest.(check int) "every re-wait checked" k (List.length !pending);
  List.iter
    (fun (n, waiting) ->
      Alcotest.(check bool) "waiting again" true waiting;
      (* the one timer, plus the 1 s release *)
      Alcotest.(check int) "one quantum timer pending" 2 n)
    !pending;
  Alcotest.(check (float 0.0)) "competitor ran at the quantum deadline" 0.010 !started;
  Alcotest.(check bool) "waiter finished" true (Proc.finished w)

let test_quantum_timer_tie_order () =
  (* An event scheduled for the deadline between the arms of two
     waiting stints fires before the preemption, as it would if each
     arm had pushed its own timer: the first stint's timer is dead by
     then, the second's was pushed after the event. *)
  let eng = Engine.create () in
  let cpu = make_cpu ~quantum:0.010 eng in
  let s = Signal.create eng in
  let w, started = waiter_with_competitor eng cpu s in
  let seen = ref None in
  Engine.at eng 0.002 (fun () ->
      Engine.at eng 0.010 (fun () -> seen := Some (w.Proc.state = Proc.Waiting)));
  Engine.at eng 0.003 (fun () -> Signal.pulse s);
  ignore (Engine.run eng);
  Alcotest.(check (option bool)) "deadline event ran before the preemption" (Some true) !seen;
  Alcotest.(check (float 0.0)) "competitor ran at the quantum deadline" 0.010 !started

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  let xs = Array.init 50 (fun _ -> Rng.int a 1000) in
  let ys = Array.init 50 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

(* Per-link fault streams are seeded with exactly this key in
   Fault.Plan.stream; determinism and pairwise distinctness here keep
   that derivation honest. *)
let link_stream_key seed src dst = (seed * 0x1000003) lxor ((src * 0x7F4A7C15) + dst + 1)

let take n rng = Array.init n (fun _ -> Rng.int rng 1_000_000)

let test_rng_keyed_link_streams () =
  Alcotest.(check bool) "same (seed,src,dst), same stream" true
    (take 64 (Rng.create (link_stream_key 42 0 1))
    = take 64 (Rng.create (link_stream_key 42 0 1)));
  let links = [ (0, 1); (1, 0); (0, 2); (2, 0); (1, 2); (2, 1) ] in
  let streams =
    List.map (fun (s, d) -> take 64 (Rng.create (link_stream_key 42 s d))) links
  in
  List.iteri
    (fun i si ->
      List.iteri
        (fun j sj ->
          if i < j then
            Alcotest.(check bool) "distinct links, distinct streams" true (si <> sj))
        streams)
    streams;
  Alcotest.(check bool) "distinct seeds, distinct streams" true
    (take 64 (Rng.create (link_stream_key 42 0 1))
    <> take 64 (Rng.create (link_stream_key 43 0 1)))

(* Exact quantile of a sample, for checking the log histogram against:
   the smallest element with rank >= ceil(n * p / 100). *)
let exact_quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (ceil (float_of_int n *. p /. 100.0)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let test_log_histogram_tail () =
  (* A latency-shaped sample: a tight body plus a 1% tail three decades
     out.  The log histogram must resolve every quantile, tail included,
     to within one bucket (~5%). *)
  let xs =
    List.init 1000 (fun i ->
        if i mod 100 = 99 then 0.05 +. (0.001 *. float_of_int i) else 1.0e-4 +. (1.0e-7 *. float_of_int i))
  in
  let h = Stats.log_histogram ~lo:1.0e-7 ~hi:100.0 () in
  List.iter (Stats.log_record h) xs;
  Alcotest.(check int) "observations" 1000 (Stats.log_observations h);
  let bucket_ratio = 10.0 ** (1.0 /. 50.0) in
  List.iter
    (fun p ->
      let est = Stats.log_percentile h p and ex = exact_quantile xs p in
      let ratio = if est > ex then est /. ex else ex /. est in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within one bucket (est %g exact %g)" p est ex)
        true
        (ratio <= bucket_ratio *. (1.0 +. 1e-9)))
    [ 50.0; 90.0; 99.0; 99.9 ];
  (* Extremes are exact, not bucket midpoints. *)
  Alcotest.(check (float 0.0)) "p0 = min" (exact_quantile xs 0.0) (Stats.log_percentile h 0.0);
  Alcotest.(check (float 0.0)) "p100 = max" (exact_quantile xs 100.0) (Stats.log_percentile h 100.0)

let qcheck_log_quantiles_within_bucket =
  QCheck.Test.make ~name:"log histogram quantiles within one bucket of exact" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 400) (float_range 1e-6 10.0))
    (fun xs ->
      let h = Stats.log_histogram ~lo:1.0e-7 ~hi:100.0 () in
      List.iter (Stats.log_record h) xs;
      let bucket_ratio = 10.0 ** (1.0 /. 50.0) in
      List.for_all
        (fun p ->
          let est = Stats.log_percentile h p and ex = exact_quantile xs p in
          let ratio = if est > ex then est /. ex else ex /. est in
          ratio <= bucket_ratio *. (1.0 +. 1e-9))
        [ 25.0; 50.0; 90.0; 99.0; 99.9 ])

(* Up to 400 events, so most lists grow the heap past 64 and 128 entries. *)
let heap_entries arb = QCheck.(list_of_size Gen.(int_range 0 400) arb)

let qcheck_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    (heap_entries QCheck.(pair (float_bound_exclusive 1000.0) small_nat))
    (fun entries ->
      let times = List.map fst (fire_all entries) in
      List.length times = List.length entries && List.sort compare times = times)

(* With times drawn from a tiny set, most pops resolve ties; the engine
   must agree with a stable sort by time over (time, payload) pairs. *)
let qcheck_heap_stable_reference =
  QCheck.Test.make ~name:"heap matches stable sort by time" ~count:200
    (heap_entries QCheck.(pair (int_bound 5) small_nat))
    (fun entries ->
      let entries = List.map (fun (t, v) -> (float_of_int t, v)) entries in
      fire_all entries = List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) entries)

(* Arbitrary push/fire interleavings against a sorted-list reference
   model: every [Engine.step] must fire exactly the event a (time, seq)
   sort of the live entries puts first.  Pushes land at [now + d], and
   four pushes per fire keep more than 128 events pending, so the heap
   grows twice and reuses freed payload slots mid-stream. *)
let qcheck_heap_interleaved =
  let op = QCheck.Gen.(frequency [ (4, map Option.some (int_bound 5)); (1, return None) ]) in
  QCheck.Test.make ~name:"heap push/pop interleavings match reference model" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 400 700) op))
    (fun ops ->
      let eng = Engine.create () in
      let model = ref [] and seq = ref 0 and fired = ref (-1) and max_pending = ref 0 in
      let ok =
        List.for_all
          (fun op ->
            match op with
            | Some d ->
                let time = Engine.now eng +. float_of_int d and id = !seq in
                Engine.at eng time (fun () -> fired := id);
                model := (time, id) :: !model;
                incr seq;
                max_pending := max !max_pending (queued eng);
                true
            | None -> (
                let first = List.fold_left min (infinity, max_int) !model in
                match first with
                | _, id when id = max_int -> not (Engine.step eng)
                | time, id ->
                    model := List.filter (fun (_, id') -> id' <> id) !model;
                    Engine.step eng && !fired = id && Engine.now eng = time))
          ops
      in
      ok && !max_pending > 128)

(* The instant ring against a reference model.  Events fired by a run
   schedule more at random: [at] for the same instant and later ones,
   [after 0.0], [at_seq] with a sequence number taken earlier (older
   than what the ring holds, so a heap root due now can precede the
   ring's head), and [fire_inline] attempts.  Every fire, in the heap,
   the ring or inline, must be the (time, seq) minimum of the live
   entries, an inline attempt must succeed exactly when its own
   (time, seq) is that minimum, and the ring may hold a thunk only in a
   live slot.  A few [step]s (where no inline fire is taken) precede the
   run. *)
let qcheck_instant_ring =
  QCheck.Test.make ~name:"instant ring keeps (time, seq) order" ~count:300
    QCheck.(pair small_nat (int_bound 5))
    (fun (seed, nsteps) ->
      let rng = Random.State.make [| seed |] in
      let eng = Engine.create () in
      let pending = ref [] and pool = ref [] and next_id = ref 0 and ok = ref true in
      let in_run = ref false in
      let first () = List.fold_left min (infinity, max_int, -1) !pending in
      let ring_clean () =
        let r = eng.Engine.instant in
        let live =
          Array.fold_left (fun n f -> if f == Engine.nop then n else n + 1) 0 r.Engine.r_run
        in
        live = r.Engine.r_len
      in
      let rec add ?seq time =
        let id = !next_id in
        incr next_id;
        let s =
          match seq with
          | Some s ->
              Engine.at_seq eng ~seq:s time (fire id);
              s
          | None ->
              let s = eng.Engine.seq in
              Engine.at eng time (fire id);
              s
        in
        pending := (time, s, id) :: !pending
      and fire id () =
        let time, _, id' = first () in
        ok := !ok && id = id' && Engine.now eng = time;
        pending := List.filter (fun (_, _, i) -> i <> id) !pending;
        for _ = 1 to Random.State.int rng 4 do
          if !next_id < 400 then
            let now = Engine.now eng in
            match Random.State.int rng 6 with
            | 0 -> add now
            | 1 ->
                let id = add_model now in
                Engine.after eng 0.0 (fire id)
            | 2 -> add (now +. float_of_int (1 + Random.State.int rng 3))
            | 3 -> pool := Engine.take_seq eng :: !pool
            | 4 -> (
                match !pool with
                | s :: rest ->
                    pool := rest;
                    add ~seq:s (if Random.State.bool rng then now else now +. 1.0)
                | [] -> ())
            | _ ->
                let time = now +. float_of_int (Random.State.int rng 2) in
                let t0, s0, _ = first () in
                let s = eng.Engine.seq in
                let expect = !in_run && (time < t0 || (time = t0 && s < s0)) in
                let got = Engine.fire_inline eng time in
                ok := !ok && got = expect && ((not got) || Engine.now eng = time)
        done;
        ok := !ok && ring_clean ()
      (* The model entry of an event the caller schedules itself. *)
      and add_model time =
        let id = !next_id in
        incr next_id;
        pending := (time, eng.Engine.seq, id) :: !pending;
        id
      in
      for i = 0 to 5 do
        add (float_of_int (i mod 3))
      done;
      for _ = 1 to nsteps do
        ignore (Engine.step eng)
      done;
      in_run := true;
      ignore (Engine.run eng);
      !ok && !pending = [] && queued eng = 0 && ring_clean () && !next_id > 6)

let suite =
  [
    Alcotest.test_case "heap order" `Quick test_heap_order;
    Alcotest.test_case "heap FIFO ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap releases fired closures" `Quick test_heap_releases_fired_closures;
    Alcotest.test_case "fires allocate nothing" `Quick test_engine_fires_allocate_nothing;
    Alcotest.test_case "engine run" `Quick test_engine_run;
    Alcotest.test_case "engine deadline" `Quick test_engine_deadline;
    Alcotest.test_case "engine rejects past events" `Quick test_engine_past_rejected;
    Alcotest.test_case "engine fifo ties (default)" `Quick test_engine_fifo_ties_default;
    Alcotest.test_case "engine seeded tie-break" `Quick test_engine_seeded_deterministic;
    Alcotest.test_case "engine choose tie-break" `Quick test_engine_choose_ties;
    Alcotest.test_case "engine jittered delays" `Quick test_engine_jittered_bounds;
    Alcotest.test_case "engine fire-inline rule" `Quick test_engine_fire_inline_rule;
    Alcotest.test_case "work advances time" `Quick test_proc_work_advances_time;
    Alcotest.test_case "round robin" `Quick test_proc_round_robin;
    Alcotest.test_case "block/wakeup" `Quick test_proc_block_wakeup;
    Alcotest.test_case "sleep" `Quick test_proc_sleep;
    Alcotest.test_case "sleep releases cpu" `Quick test_proc_sleep_releases_cpu;
    Alcotest.test_case "stall wakes on signal" `Quick test_proc_stall_signal;
    Alcotest.test_case "stall services messages" `Quick test_proc_stall_services_messages;
    Alcotest.test_case "priority preemption" `Quick test_proc_priority_preemption;
    Alcotest.test_case "quantum preempts waiting proc" `Quick test_quantum_wait_preemption;
    Alcotest.test_case "quantum timer re-arms in place" `Quick test_quantum_timer_rearms_in_place;
    Alcotest.test_case "quantum timer tie order" `Quick test_quantum_timer_tie_order;
    Alcotest.test_case "lone work slices fire inline" `Quick test_proc_lone_slices_fire_inline;
    Alcotest.test_case "poll exception escapes the run" `Quick test_proc_poll_exception_escapes;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng keyed link streams" `Quick test_rng_keyed_link_streams;
    Alcotest.test_case "log histogram tail accuracy" `Quick test_log_histogram_tail;
    QCheck_alcotest.to_alcotest qcheck_log_quantiles_within_bucket;
    QCheck_alcotest.to_alcotest qcheck_heap_sorted;
    QCheck_alcotest.to_alcotest qcheck_heap_stable_reference;
    QCheck_alcotest.to_alcotest qcheck_heap_interleaved;
    QCheck_alcotest.to_alcotest qcheck_instant_ring;
  ]
