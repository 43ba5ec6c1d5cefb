(* Tests for the Shasta runtime: API-mode accesses, MP and transparent
   synchronisation, and end-to-end execution of instrumented binaries. *)

module C = Shasta.Cluster
module R = Shasta.Runtime
module Cfg = Shasta.Config

(* Read a shared word from whichever domain holds a valid copy. *)
let read_valid cl addr =
  let values =
    List.filter_map
      (fun h ->
        match Protocol.Engine.block_state h.R.pcb addr with
        | _, (Protocol.Ptypes.Shared | Protocol.Ptypes.Exclusive) ->
            Some (Protocol.Engine.raw_read h.R.pcb addr Alpha.Insn.W64)
        | _, (Protocol.Ptypes.Invalid | Protocol.Ptypes.Pending) -> None)
      (C.runtimes cl)
  in
  match values with
  | v :: rest when List.for_all (fun x -> x = v) rest -> v
  | _ -> -1L

let small_cfg ?(nodes = 2) ?(cpus = 2) ?(variant = Protocol.Config.Smp)
    ?(model = Protocol.Config.Rc) () =
  {
    Cfg.default with
    Cfg.net = { Mchan.Net.default_config with Mchan.Net.nodes; cpus_per_node = cpus };
    protocol =
      { Protocol.Config.default with Protocol.Config.variant; model; shared_size = 256 * 1024 };
  }

let test_cross_node_store_load () =
  let cl = C.create (small_cfg ()) in
  let a = C.alloc cl 64 in
  let got = ref 0 in
  let _ = C.spawn cl ~cpu:0 "writer" (fun h -> R.store_int h a 1234) in
  let _ =
    C.spawn cl ~cpu:2 "reader" (fun h ->
        Sim.Proc.sleep 0.001;
        got := R.load_int h a)
  in
  ignore (C.run cl);
  Alcotest.(check int) "value crossed nodes" 1234 !got

let test_mp_lock_mutual_exclusion () =
  let cl = C.create (small_cfg ()) in
  let counter = C.alloc cl 64 in
  let iters = 50 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for _ = 1 to iters do
             R.lock h 0;
             let v = R.load_int h counter in
             R.work_cycles h 50;
             R.store_int h counter (v + 1);
             R.unlock h 0
           done))
  done;
  let check = ref 0 in
  let _ =
    C.spawn cl ~cpu:0 "checker" (fun h ->
        (* Runs after being spawned last on cpu 0's run queue; just wait
           until everyone is done incrementing. *)
        let rec wait () =
          if R.load_int h counter < 4 * iters then begin
            Sim.Proc.sleep 0.001;
            wait ()
          end
        in
        wait ();
        check := R.load_int h counter)
  in
  ignore (C.run cl);
  Alcotest.(check int) "lock protected all increments" (4 * iters) !check

let test_mp_barrier_phases () =
  let cl = C.create (small_cfg ()) in
  let slots = C.alloc cl (4 * 64) in
  let violations = ref 0 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for phase = 1 to 5 do
             R.store_int h (slots + (c * 64)) phase;
             R.barrier h ~id:9 ~parties:4;
             (* After the barrier every peer must have reached this
                phase. *)
             for peer = 0 to 3 do
               if R.load_int h (slots + (peer * 64)) < phase then incr violations
             done;
             R.barrier h ~id:9 ~parties:4
           done))
  done;
  ignore (C.run cl);
  Alcotest.(check int) "no barrier violations" 0 !violations

let test_atomic_add () =
  let cl = C.create (small_cfg ()) in
  let counter = C.alloc cl 64 in
  let finals = ref [] in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for _ = 1 to 50 do
             let old = R.atomic_add h counter 1 in
             finals := old :: !finals
           done))
  done;
  ignore (C.run cl);
  (* Fetch-and-add returns every value 0..199 exactly once. *)
  let sorted = List.sort compare !finals in
  Alcotest.(check (list int)) "all intermediate values seen" (List.init 200 Fun.id) sorted

let test_sm_lock_mutual_exclusion () =
  let cl = C.create (small_cfg ()) in
  let lockw = C.alloc cl 64 in
  let counter = C.alloc cl 64 in
  let iters = 30 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for _ = 1 to iters do
             R.sm_lock h lockw;
             let v = R.load_int h counter in
             R.work_cycles h 50;
             R.store_int h counter (v + 1);
             R.sm_unlock h lockw
           done))
  done;
  ignore (C.run cl);
  (* Check from outside the simulation: all valid copies agree. *)
  Alcotest.(check int) "LL/SC lock protected all increments" (4 * iters)
    (Int64.to_int (read_valid cl counter))

(* Run [cl] to quiescence within [budget] fired events, so that a
   livelock fails the test instead of running on; then re-raise any
   worker failure. *)
let run_within cl budget =
  C.init cl;
  let stop = Sim.Engine.run ~max_events:budget (C.sim cl) in
  Alcotest.(check bool)
    (Printf.sprintf "quiescent within %d events (%d fired)" budget
       (Sim.Engine.events_fired (C.sim cl)))
    true (stop = Sim.Engine.Quiescent);
  C.run cl

(* Protocol requests issued by every process of [cl]. *)
let requests cl =
  List.fold_left
    (fun n h ->
      let st = R.pstats h in
      n + st.Protocol.Engine.read_misses + st.Protocol.Engine.store_misses
      + st.Protocol.Engine.sc_misses)
    0 (C.runtimes cl)

(* Eight LL/SC lockers on 2 nodes x 4 CPUs.  Phase 1 is a node-mate
   handoff on node 0 alone: the lock's block stays exclusive at the
   node, so the holder's releasing store is a hardware hit that sends no
   message.  Phase 2 contends across both nodes, and its first holder
   works for 200 us while the other seven wait.  Under [Rc] each release
   is a non-blocking store that a node-mate may see before its own miss
   completes; replaying such a recorded store after a sibling has taken
   the lock once let two holders in.  Under [Sc] the releasing store
   waits for its miss, and must be performed at the grant: inspecting
   the line again after the grant livelocks.  Returns the protocol
   requests per acquire. *)
let sm_lock_contended_handoff ~model ~budget =
  let cl = C.create (small_cfg ~nodes:2 ~cpus:4 ~model ()) in
  let la = C.alloc cl 64 and lb = C.alloc cl 64 and counter = C.alloc cl 64 in
  let iters = 5 and phase2 = 1e-3 and hold = 200e-6 in
  let inside = ref 0 and overlaps = ref 0 and acquires = ref 0 in
  let release_misses = ref (-1) in
  let first = ref true and window = ref 0 in
  let events cl = Sim.Engine.events_fired (C.sim cl) in
  let misses h =
    let st = R.pstats h in
    st.Protocol.Engine.read_misses + st.Protocol.Engine.store_misses
  in
  (* One passage; returns the protocol requests its release issued. *)
  let critical h lockw ~work =
    R.sm_lock h lockw;
    incr acquires;
    if !inside <> 0 then incr overlaps;
    inside := 1;
    let v = R.load_int h counter in
    work ();
    R.store_int h counter (v + 1);
    inside := 0;
    let m0 = misses h in
    R.sm_unlock h lockw;
    misses h - m0
  in
  for c = 0 to 7 do
    ignore
      (C.spawn cl ~cpu:c "locker" (fun h ->
           let short () = R.work_cycles h 50 in
           (* Phase 1: cpu 0 takes [la] first and hands it to a node-mate. *)
           if c = 0 then release_misses := critical h la ~work:(fun () -> R.work h 50e-6)
           else if c < 4 then begin
             Sim.Proc.sleep 10e-6;
             for _ = 1 to iters do
               ignore (critical h la ~work:short)
             done
           end;
           Sim.Proc.sleep (phase2 -. C.now cl);
           if c > 0 then Sim.Proc.sleep 10e-6;
           for _ = 1 to iters do
             ignore
               (critical h lb ~work:(fun () ->
                    if !first then begin
                      first := false;
                      (* Let the other seven reach their spin first. *)
                      R.work h 50e-6;
                      let e0 = events cl in
                      R.work h hold;
                      window := events cl - e0
                    end
                    else short ()))
           done))
  done;
  ignore (run_within cl budget);
  Alcotest.(check int) "the node-mate release was a hardware hit" 0 !release_misses;
  Alcotest.(check int) "every acquire completed" (1 + (3 * iters) + (8 * iters)) !acquires;
  Alcotest.(check int) "no two holders at once" 0 !overlaps;
  Alcotest.(check int) "the lock protected every increment"
    (1 + (3 * iters) + (8 * iters))
    (Int64.to_int (read_valid cl counter));
  (* The same 200 us of work with nobody waiting. *)
  let alone =
    let cl = C.create (small_cfg ~nodes:2 ~cpus:4 ()) in
    let n = ref 0 in
    ignore
      (C.spawn cl ~cpu:0 "alone" (fun h ->
           let e0 = events cl in
           R.work h hold;
           n := events cl - e0));
    ignore (C.run cl);
    !n
  in
  Alcotest.(check bool)
    (Printf.sprintf "the seven waiters fired %d events in 200 us" (!window - alone))
    true
    (!window - alone <= 2 * 7);
  float_of_int (requests cl) /. float_of_int !acquires

let test_sm_lock_contended_handoff () =
  ignore (sm_lock_contended_handoff ~model:Protocol.Config.Rc ~budget:20_000)

let test_sm_lock_contended_handoff_sc () =
  let per_acquire = sm_lock_contended_handoff ~model:Protocol.Config.Sc ~budget:20_000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f protocol requests per acquire" per_acquire)
    true (per_acquire <= 3.0)

let test_sm_barrier () =
  let cl = C.create (small_cfg ()) in
  let bar = C.alloc cl 64 in
  let slots = C.alloc cl (4 * 64) in
  let violations = ref 0 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "worker" (fun h ->
           for phase = 1 to 4 do
             R.store_int h (slots + (c * 64)) phase;
             R.mb h;
             R.sm_barrier h ~addr:bar ~parties:4;
             for peer = 0 to 3 do
               if R.load_int h (slots + (peer * 64)) < phase then incr violations
             done;
             R.sm_barrier h ~addr:bar ~parties:4
           done))
  done;
  ignore (C.run cl);
  Alcotest.(check int) "no sm-barrier violations" 0 !violations

let test_checking_overhead () =
  (* Single processor, same access pattern, checks on vs off: the
     checked run must be slower by a small factor (Table 3 machinery). *)
  let run ~checks =
    let cfg = { (small_cfg ~nodes:1 ~cpus:1 ()) with Cfg.checks_enabled = checks } in
    let cl = C.create cfg in
    let a = C.alloc cl 65536 in
    let elapsed = ref 0.0 in
    let _ =
      C.spawn cl ~cpu:0 "app" (fun h ->
          let t0 = C.now cl in
          for i = 0 to 20000 do
            let addr = a + (i mod 1024 * 8) in
            R.store_int h addr i;
            ignore (R.load_int h addr)
          done;
          R.flush h;
          elapsed := C.now cl -. t0)
    in
    ignore (C.run cl);
    !elapsed
  in
  let base = run ~checks:false in
  let checked = run ~checks:true in
  let overhead = (checked -. base) /. base in
  Alcotest.(check bool)
    (Printf.sprintf "overhead %.1f%% in plausible range" (100.0 *. overhead))
    true
    (overhead > 0.2 && overhead < 3.0)

let test_breakdown_sane () =
  let cl = C.create (small_cfg ()) in
  let a = C.alloc cl 4096 in
  for c = 0 to 1 do
    ignore
      (C.spawn cl ~cpu:(c * 2) "worker" (fun h ->
           for i = 0 to 200 do
             R.store_int h (a + (i mod 32 * 64)) i;
             R.work_cycles h 100
           done;
           R.mb h))
  done;
  ignore (C.run cl);
  let b = C.total_breakdown cl in
  Alcotest.(check bool) "task time positive" true (b.Shasta.Breakdown.task > 0.0);
  Alcotest.(check bool) "write stall occurred" true (b.Shasta.Breakdown.write >= 0.0);
  Alcotest.(check bool) "total positive" true (Shasta.Breakdown.total b > 0.0)

(* --- metrics tables --- *)

(* Every column of [C.tables] is read from a typed record: its sums must
   give back the records they were built from. *)
(* One column of a metrics table, top to bottom. *)
let column t name =
  let rec index i = function
    | c :: _ when c = name -> i
    | _ :: rest -> index (i + 1) rest
    | [] -> Alcotest.failf "%s has no column %s" t.Sim.Stats.title name
  in
  let i = index (-1) t.Sim.Stats.columns in
  List.map (fun (_, cells) -> List.nth cells i) t.Sim.Stats.rows

let ints t name =
  List.map
    (function
      | Sim.Stats.Int n -> n | _ -> Alcotest.failf "%s: %s is not an int" t.Sim.Stats.title name)
    (column t name)

let test_metrics_tables_sum_to_records () =
  let cfg =
    { (small_cfg ()) with Cfg.fault_plan = Fault.Plan.of_spec "seed=42,drop=0.05" }
  in
  let cl = C.create cfg in
  let _, ok =
    Apps.Harness.run_spec cl (Apps.Registry.find "LU") ~nprocs:4 ~sync:Apps.Harness.Mp
      ~size:16 ()
  in
  Alcotest.(check bool) "LU validated" true ok;
  let tables = C.tables cl in
  let table prefix =
    List.find (fun t -> String.starts_with ~prefix t.Sim.Stats.title) tables
  in
  List.iter
    (fun t ->
      List.iter
        (fun (key, cells) ->
          Alcotest.(check int)
            (Printf.sprintf "%s row %s has one cell per column" t.Sim.Stats.title key)
            (List.length t.Sim.Stats.columns - 1)
            (List.length cells))
        t.Sim.Stats.rows)
    tables;
  let sum_ms t name =
    List.fold_left
      (fun acc c ->
        match c with Sim.Stats.Float x -> acc +. x | _ -> Alcotest.failf "%s is not a float" name)
      0.0 (column t name)
  in
  let sum = List.fold_left ( + ) 0 in
  let b = C.total_breakdown cl and nodes = table "nodes" in
  List.iter
    (fun (name, v) ->
      Alcotest.(check (float 1e-9)) ("nodes " ^ name) (1e3 *. v) (sum_ms nodes name))
    Shasta.Breakdown.
      [
        ("task_ms", b.task); ("read_ms", b.read); ("write_ms", b.write); ("mb_ms", b.mb);
        ("sync_ms", b.sync); ("blocked_ms", b.blocked); ("msg_ms", b.msg);
      ];
  Alcotest.(check bool) "task time present" true (b.Shasta.Breakdown.task > 0.0);
  let pid_reads =
    List.map (fun h -> (Protocol.Engine.stats h.R.pcb).Protocol.Engine.read_misses) (C.runtimes cl)
  in
  Alcotest.(check bool) "read misses present" true (sum pid_reads > 0);
  let regions = table "regions" in
  Alcotest.(check int) "region read misses = pids' read_misses" (sum pid_reads)
    (sum (ints regions "read_misses"));
  let rs = Array.to_list (Protocol.Engine.region_stats (C.protocol_engine cl)) in
  List.iter
    (fun (name, f) ->
      Alcotest.(check (list int)) ("regions " ^ name) (List.map f rs) (ints regions name))
    Protocol.Engine.
      [
        ("read_misses", fun r -> r.r_read_misses); ("store_misses", fun r -> r.r_store_misses);
        ("invals", fun r -> r.r_invals); ("recalls", fun r -> r.r_recalls);
        ("data_bytes", fun r -> r.r_data_bytes);
      ];
  Alcotest.(check int) "pid table read misses = pids' read_misses" (sum pid_reads)
    (sum (ints (table "protocol per pid") "read_misses"));
  let transport = table "reliable transport" in
  let x = Mchan.Reliable.totals (Option.get (C.reliable cl)) in
  List.iter
    (fun (name, v) ->
      let keyed = List.combine (List.map fst transport.Sim.Stats.rows) (ints transport name) in
      let links = List.filter (fun (k, _) -> k <> "total") keyed in
      Alcotest.(check int) ("transport total row " ^ name) v (List.assoc "total" keyed);
      Alcotest.(check int) ("transport links sum " ^ name) v (sum (List.map snd links)))
    Mchan.Reliable.
      [
        ("sent", x.data_sent); ("retx", x.retransmits); ("acks", x.acks_sent);
        ("inj_drop", x.inj_dropped); ("inj_dup", x.inj_duplicated);
        ("inj_corrupt", x.inj_corrupted); ("inj_delay", x.inj_delayed);
        ("dup_suppressed", x.dup_suppressed); ("outage_drops", x.outage_dropped);
      ];
  Alcotest.(check bool) "frames retransmitted" true (x.Mchan.Reliable.retransmits > 0);
  Alcotest.(check (list int)) "engine events" [ Sim.Engine.events_fired (C.sim cl) ]
    (ints (table "engine") "events");
  (* Counted through [Gc.minor_words]: [Gc.quick_stat] leaves out the
     current minor heap, and read 0 for runs this small. *)
  Alcotest.(check bool) "the run's minor words are counted" true
    (List.for_all (fun n -> n > 0) (ints (table "engine") "minor_words"))

(* Each issued request is counted once, by kind, where it is issued:
   the regions and pids tables are two views of that one count.
   Water-Nsq under LL/SC sync issues reads, stores and SC upgrades. *)
let test_miss_kinds_agree () =
  let cfg = small_cfg ~nodes:2 ~cpus:4 () in
  let cl =
    C.create
      {
        cfg with
        Cfg.protocol = { cfg.Cfg.protocol with Protocol.Config.shared_size = 8 * 1024 * 1024 };
      }
  in
  let _, ok =
    Apps.Harness.run_spec cl (Apps.Registry.find "Water-Nsq") ~nprocs:8 ~sync:Apps.Harness.Sm
      ~size:40 ()
  in
  Alcotest.(check bool) "Water-Nsq validated" true ok;
  let tables = C.tables cl in
  let sum title kind =
    List.fold_left ( + ) 0 (ints (List.find (fun t -> t.Sim.Stats.title = title) tables) kind)
  in
  List.iter
    (fun kind ->
      Alcotest.(check int) (kind ^ ": pids = regions") (sum "regions" kind)
        (sum "protocol per pid" kind))
    [ "read_misses"; "store_misses"; "sc_misses"; "prefetch_misses" ];
  Alcotest.(check bool) "SC upgrades issued" true (sum "regions" "sc_misses" > 0)

(* --- IR mode: transparent execution of instrumented binaries --- *)

let lock_counter_program =
  (* main(a0 = lock, a1 = counter, a2 = iterations): the paper's Figure 1
     acquire loop around a read-modify-write of the counter. *)
  Alpha.Asm.(
    program
      [
        proc "main"
          [
            label "outer";
            (* acquire *)
            label "try_again";
            ll W32 t0 0 a0;
            bne t0 "try_again";
            li t0 1L;
            sc W32 t0 0 a0;
            beq t0 "try_again";
            mb;
            (* critical section *)
            ldq t1 0 a1;
            addi t1 1 t1;
            stq t1 0 a1;
            (* release *)
            mb;
            stl zero 0 a0;
            subi a2 1 a2;
            bgt a2 "outer";
            halt;
          ];
      ])

let test_instrumented_binary_runs_transparently () =
  let instrumented, stats = Rewrite.Instrument.instrument lock_counter_program in
  Alcotest.(check bool) "LL/SC pair recognised" true
    (stats.Rewrite.Instrument.llsc_pairs >= 1);
  let cl = C.create (small_cfg ()) in
  let lockw = C.alloc cl 64 in
  let counter = C.alloc cl 64 in
  let iters = 15 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "cpu" (fun h ->
           ignore
             (R.run_program h instrumented ~entry:"main"
                ~args:[ Int64.of_int lockw; Int64.of_int counter; Int64.of_int iters ]
                ())))
  done;
  ignore (C.run cl);
  Alcotest.(check int) "shared counter fully incremented" (4 * iters)
    (Int64.to_int (read_valid cl counter))

let test_uninstrumented_binary_reads_flags () =
  (* Without the inserted checks, a binary that loads remote shared data
     observes the invalid-flag value: transparency genuinely depends on
     the rewriter. *)
  let prog =
    Alpha.Asm.(program [ proc "main" [ ldq v0 0 a0; halt ] ])
  in
  let cl = C.create (small_cfg ()) in
  let a = C.alloc cl 64 in
  let seen = ref 0L in
  let _ = C.spawn cl ~cpu:0 "writer" (fun h -> R.store_int h a 77) in
  let _ =
    C.spawn cl ~cpu:2 "reader" (fun h ->
        Sim.Proc.sleep 0.001;
        let outcome = R.run_program h prog ~entry:"main" ~args:[ Int64.of_int a ] () in
        seen := outcome.Alpha.Interp.r0)
  in
  (* Make node 1's copy invalid: home everything at node 0. *)
  C.init ~homes:[ 0 ] cl;
  ignore (C.run cl);
  Alcotest.(check int64) "flag value observed"
    (Protocol.Config.flag_value Alpha.Insn.W64)
    !seen

let test_instrumented_same_program_reads_correctly () =
  let prog =
    Alpha.Asm.(program [ proc "main" [ ldq v0 0 a0; halt ] ])
  in
  let instrumented, _ = Rewrite.Instrument.instrument prog in
  let cl = C.create (small_cfg ()) in
  let a = C.alloc cl 64 in
  let seen = ref 0L in
  let _ = C.spawn cl ~cpu:0 "writer" (fun h -> R.store_int h a 77) in
  let _ =
    C.spawn cl ~cpu:2 "reader" (fun h ->
        Sim.Proc.sleep 0.001;
        let outcome = R.run_program h instrumented ~entry:"main" ~args:[ Int64.of_int a ] () in
        seen := outcome.Alpha.Interp.r0)
  in
  C.init ~homes:[ 0 ] cl;
  ignore (C.run cl);
  Alcotest.(check int64) "instrumented binary sees the real value" 77L !seen

(* The instrumented Figure 1 lock on 2x4 under [Sc]: every releasing
   store and every counter store that misses rides its own miss to the
   grant.  A store that instead waited for its miss and inspected the
   line again livelocks the eight processes. *)
let test_instrumented_lock_sc () =
  List.iter
    (fun (name, options) ->
      let instrumented, _ = Rewrite.Instrument.instrument ~options lock_counter_program in
      let cl = C.create (small_cfg ~nodes:2 ~cpus:4 ~model:Protocol.Config.Sc ()) in
      let lockw = C.alloc cl 64 and counter = C.alloc cl 64 in
      let iters = 15 in
      for c = 0 to 7 do
        ignore
          (C.spawn cl ~cpu:c "cpu" (fun h ->
               ignore
                 (R.run_program h instrumented ~entry:"main"
                    ~args:[ Int64.of_int lockw; Int64.of_int counter; Int64.of_int iters ]
                    ())))
      done;
      ignore (run_within cl 600_000);
      Alcotest.(check int)
        (name ^ ": shared counter fully incremented")
        (8 * iters)
        (Int64.to_int (read_valid cl counter)))
    [
      ("default", Rewrite.Instrument.default_options);
      ( "redundant_elim",
        { Rewrite.Instrument.default_options with Rewrite.Instrument.redundant_elim = true } );
    ]

(* The API-mode hit path is the inline check itself: on a line already
   held exclusive, a load/store pair must not allocate.  The bound
   leaves room for the periodic flush of batched cycles into
   [Sim.Proc.work]. *)
let test_api_hits_allocate_nothing () =
  let cl = C.create (small_cfg ~nodes:1 ~cpus:1 ()) in
  let a = C.alloc cl 64 in
  let n = 10_000 in
  let words = ref Float.nan and sum = ref 0 in
  let _ =
    C.spawn cl ~cpu:0 "app" (fun h ->
        R.store_int h a 0;
        let w0 = Gc.minor_words () in
        for i = 1 to n do
          R.store_int h a (R.load_int h a + i)
        done;
        words := Gc.minor_words () -. w0;
        sum := R.load_int h a)
  in
  ignore (C.run cl);
  Alcotest.(check int) "values" (n * (n + 1) / 2) !sum;
  let per_access = !words /. float_of_int (2 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per access" per_access)
    true (per_access < 1.0)

(* The IR-mode twin: an instrumented loop whose load check, batch
   check, store check and back-edge poll all hit.  The raw loads and
   stores move their words unboxed, so what is left is the periodic
   flush of cycles into [Sim.Proc.work] and the polls' message service:
   0.12 words a step here, against 1.0 when each raw access boxed an
   [int64] through the runtime record, and 6.0 with boxed register
   values and a closure or list built per check and poll. *)
let test_ir_hits_allocate_little () =
  let prog =
    Alpha.Asm.(
      program
        [
          proc "main"
            [
              li v0 0L;
              label "loop";
              ldq t0 0 a0;
              add v0 t0 v0;
              andi v0 7 t3;
              slli t3 3 t3;
              add a0 t3 t3;
              ldq t1 8 t3;
              ldq t2 16 t3;
              add t1 t2 t1;
              stq t1 24 t3;
              bne a2 "store" (* a block of its own: a lone store check *);
              label "store";
              stq v0 0 a1;
              subi a2 1 a2;
              bgt a2 "loop";
              halt;
            ];
        ])
  in
  let instrumented, _ = Rewrite.Instrument.instrument prog in
  let code = (Alpha.Program.find instrumented "main").Alpha.Program.code in
  List.iter
    (fun (what, is) ->
      Alcotest.(check bool) ("instrumented with a " ^ what) true (Array.exists is code))
    Alpha.Insn.
      [
        ("load check", function Load_check _ -> true | _ -> false);
        ("batch check", function Batch_check _ -> true | _ -> false);
        ("store check", function Store_check _ -> true | _ -> false);
        ("poll", function Poll -> true | _ -> false);
      ];
  let cl = C.create (small_cfg ~nodes:1 ~cpus:1 ()) in
  let a = C.alloc cl 128 and b = C.alloc cl 64 in
  let n = 20_000 in
  let per_step = ref Float.nan and misses = ref (-1) in
  let _ =
    C.spawn cl ~cpu:0 "app" (fun h ->
        (* Take every line exclusive first. *)
        List.iter (fun addr -> R.store_int h addr 0) [ a; a + 64; b ];
        let st = R.pstats h in
        let m0 = st.Protocol.Engine.read_misses + st.Protocol.Engine.store_misses in
        let w0 = Gc.minor_words () in
        let o =
          R.run_program h instrumented ~entry:"main"
            ~args:[ Int64.of_int a; Int64.of_int b; Int64.of_int n ]
            ()
        in
        per_step := (Gc.minor_words () -. w0) /. float_of_int o.Alpha.Interp.stats.Alpha.Interp.steps;
        misses := st.Protocol.Engine.read_misses + st.Protocol.Engine.store_misses - m0)
  in
  ignore (C.run cl);
  Alcotest.(check int) "every check hit" 0 !misses;
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per step" !per_step)
    true (!per_step < 0.5)

(* The IR raw store hits the image in place only when the engine would
   not intercept it.  Each case below makes one interception due and
   drives the runtime record's [store] directly, at a known moment:

   - another pid's LL monitor is armed on the block: the store breaks
     it, and that pid's SC fails;
   - a miss is outstanding on the block: the store is recorded and
     replayed over the reply, so it survives the arriving data;
   - a batch watched the block and the line was downgraded since: the
     store is reissued at the next protocol entry. *)
let ir_store h addr v =
  let regs = Bytes.create 8 in
  Bytes.set_int64_ne regs 0 v;
  (R.alpha_runtime h).Alpha.Runtime.store addr Alpha.Insn.W64 regs 0

let test_ir_store_breaks_monitor () =
  let cl = C.create (small_cfg ~nodes:1 ~cpus:2 ()) in
  let a = C.alloc cl 64 in
  let sc_ok = ref None and final = ref 0 in
  let _ =
    C.spawn cl ~cpu:0 "writer" (fun h ->
        R.store_int h a 0;
        Sim.Proc.work 5e-5;
        ir_store h a 5L;
        Sim.Proc.work 2e-4;
        final := R.load_int h a)
  in
  let _ =
    C.spawn cl ~cpu:1 "locker" (fun h ->
        Sim.Proc.work 1e-5;
        ignore (R.load_locked h a Alpha.Insn.W64);
        Sim.Proc.work 1e-4;
        sc_ok := Some (R.store_conditional h a Alpha.Insn.W64 9L))
  in
  ignore (C.run cl);
  Alcotest.(check (option bool)) "the broken monitor's SC fails" (Some false) !sc_ok;
  Alcotest.(check int) "the IR store stands" 5 !final

let test_ir_store_rides_outstanding_miss () =
  let cl = C.create (small_cfg ~nodes:2 ~cpus:1 ()) in
  let a = C.alloc cl 64 in
  let outstanding = ref 0 and got = ref (0, 0) in
  let _ = C.spawn cl ~cpu:1 "home" ignore in
  let _ =
    C.spawn cl ~cpu:0 "writer" (fun h ->
        let rt = R.alpha_runtime h in
        (* A raw load grows the image over the block first, so only the
           outstanding miss keeps the stores off the in-place path. *)
        rt.Alpha.Runtime.load a Alpha.Insn.W64 (Bytes.create 8) 0;
        rt.Alpha.Runtime.store_check a Alpha.Insn.W64;
        outstanding := Protocol.Ptypes.Itbl.length h.R.st.Protocol.Engine.outstanding;
        ir_store h a 11L;
        rt.Alpha.Runtime.store_check (a + 8) Alpha.Insn.W64;
        ir_store h (a + 8) 22L;
        rt.Alpha.Runtime.mb_check ();
        got := (R.load_int h a, R.load_int h (a + 8)))
  in
  C.init ~homes:[ 1 ] cl;
  ignore (C.run cl);
  Alcotest.(check bool) "a miss was outstanding at the store" true (!outstanding > 0);
  Alcotest.(check (pair int int)) "both stores replayed over the reply" (11, 22) !got

let test_ir_store_reissued_after_batch () =
  let cl = C.create (small_cfg ~nodes:2 ~cpus:2 ()) in
  let a = C.alloc cl 64 in
  let reissued = ref 0 and handles = ref [] in
  let _ = C.spawn cl ~cpu:3 "server" ignore in
  let _ =
    C.spawn cl ~cpu:0 "batcher" (fun h ->
        handles := h :: !handles;
        (* The batch fetches the line exclusive and watches it; the
           polls in [work] let the remote store's invalidation land
           before the batched store runs. *)
        (R.alpha_runtime h).Alpha.Runtime.batch_check
          [ { Alpha.Insn.b_width = W64; b_kind = Store_acc; b_off = 0; b_base = 0 } ]
          [| a |];
        Sim.Proc.work 0.004;
        ir_store h a 42L;
        (R.alpha_runtime h).Alpha.Runtime.poll ();
        reissued := (R.pstats h).Protocol.Engine.reissued_stores)
  in
  let _ =
    C.spawn cl ~cpu:2 "remote" (fun h ->
        handles := h :: !handles;
        Sim.Proc.sleep 0.001;
        R.store_int h a 7)
  in
  C.init ~homes:[ 1 ] cl;
  ignore (C.run cl);
  Alcotest.(check int) "the store was reissued" 1 !reissued;
  List.iter
    (fun h ->
      match Protocol.Engine.block_state h.R.pcb a with
      | _, (Protocol.Ptypes.Shared | Protocol.Ptypes.Exclusive) ->
          Alcotest.(check int64) "a valid copy holds the reissued store" 42L
            (Protocol.Engine.raw_read h.R.pcb a Alpha.Insn.W64)
      | _, (Protocol.Ptypes.Invalid | Protocol.Ptypes.Pending) -> ())
    !handles

(* A hit-only instrumented loop allocates nothing per iteration: its
   raw loads and stores move words between the register file and the
   image unboxed, and its checks and decoded dispatch build nothing.
   The runtime's cycle charge and poll are stubbed out here, since
   flushing cycles into [Sim.Proc] and servicing messages cost per
   simulated second, not per access. *)
let test_ir_store_hits_allocate_nothing () =
  let prog =
    Alpha.Asm.(
      program
        [
          proc "main"
            [
              label "loop";
              ldq t0 0 a0;
              addi t0 1 t0;
              stq t0 0 a0;
              stq a2 8 a0;
              stl a2 16 a0;
              subi a2 1 a2;
              bgt a2 "loop";
              halt;
            ];
        ])
  in
  let instrumented, _ = Rewrite.Instrument.instrument prog in
  let cl = C.create (small_cfg ~nodes:1 ~cpus:1 ()) in
  let a = C.alloc cl 64 in
  let words = ref [] and final = ref 0 in
  let _ =
    C.spawn cl ~cpu:0 "app" (fun h ->
        (* Take the line exclusive, and wait for it: a store miss still
           outstanding would send every raw store down the slow path. *)
        R.store_int h a 0;
        R.mb h;
        let rt =
          { (R.alpha_runtime h) with Alpha.Runtime.charge = ignore; poll = ignore }
        in
        List.iter
          (fun n ->
            let w0 = Gc.minor_words () in
            ignore
              (Alpha.Interp.run instrumented rt ~entry:"main"
                 ~args:[ Int64.of_int a; 0L; Int64.of_int n ]
                 ());
            words := (Gc.minor_words () -. w0) :: !words)
          [ 1_000; 21_000 ];
        final := R.load_int h a)
  in
  ignore (C.run cl);
  Alcotest.(check int) "every iteration stored" 22_000 !final;
  match !words with
  | [ long; short ] ->
      Alcotest.(check (float 0.0)) "minor words per extra iteration" 0.0
        ((long -. short) /. 20_000.0)
  | _ -> assert false

(* main(a0 = counter, a2 = iterations): an LL/SC fetch-and-add loop. *)
let fetch_add_program =
  Alpha.Asm.(
    program
      [
        proc "main"
          [
            label "loop";
            ll W64 t0 0 a0;
            addi t0 1 t0;
            sc W64 t0 0 a0;
            beq t0 "loop";
            subi a2 1 a2;
            bgt a2 "loop";
            halt;
          ];
      ])

(* The LL/SC twin: an instrumented fetch-and-add loop on a line held
   exclusive, so every LL check and SC check takes its hit path and
   every SC runs in hardware.  The LL and SC box their [int64]s, the
   runtime's SC check builds its protocol-entry closure, and each SC's
   disarm makes the next LL cons a monitor; the protocol's LL and SC
   checks build no closure, option or list. *)
let test_ir_llsc_hits_allocate_little () =
  let instrumented, stats = Rewrite.Instrument.instrument fetch_add_program in
  Alcotest.(check bool) "LL/SC pair recognised" true (stats.Rewrite.Instrument.llsc_pairs >= 1);
  let cl = C.create (small_cfg ~nodes:1 ~cpus:1 ()) in
  let a = C.alloc cl 64 in
  let n = 20_000 in
  let per_step = ref Float.nan and misses = ref (-1) and sum = ref 0 in
  let _ =
    C.spawn cl ~cpu:0 "app" (fun h ->
        R.store_int h a 0;
        let st = R.pstats h in
        let m0 = st.Protocol.Engine.read_misses + st.Protocol.Engine.store_misses in
        let w0 = Gc.minor_words () in
        let o =
          R.run_program h instrumented ~entry:"main" ~args:[ Int64.of_int a; 0L; Int64.of_int n ] ()
        in
        per_step := (Gc.minor_words () -. w0) /. float_of_int o.Alpha.Interp.stats.Alpha.Interp.steps;
        misses :=
          st.Protocol.Engine.read_misses + st.Protocol.Engine.store_misses
          + st.Protocol.Engine.sc_misses - m0;
        sum := R.load_int h a)
  in
  ignore (C.run cl);
  Alcotest.(check int) "every increment landed" n !sum;
  Alcotest.(check int) "every check hit" 0 !misses;
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per step" !per_step)
    true (!per_step < 4.0)

(* What the hit path must not skip: the image bounds, the protocol on a
   store to a line held only [Shared], and the trace hook. *)
let test_api_bounds_and_slow_paths () =
  let cfg = small_cfg ~nodes:2 ~cpus:1 () in
  let pc = cfg.Cfg.protocol in
  let hi = pc.Protocol.Config.shared_base + pc.Protocol.Config.shared_size in
  let cl = C.create cfg in
  let a = C.alloc cl 64 in
  let seen = ref [] and issued = ref 0 and state = ref Protocol.Ptypes.Invalid in
  let misses = ref (0, 0) and raised = ref [] in
  let loaded = ref [] in
  (* Spawned first, so its node's domain is domain 0, the home. *)
  let _ = C.spawn cl ~cpu:0 "home" ignore in
  let _ =
    C.spawn cl ~cpu:1 "reader" (fun h ->
        ignore (R.load_int h a);
        state := fst (Protocol.Engine.block_state h.R.pcb a);
        let before = (R.pstats h).Protocol.Engine.store_misses in
        R.store_int h a 7;
        misses := (before, (R.pstats h).Protocol.Engine.store_misses);
        h.R.on_access <-
          Some (fun acc -> seen := (acc.R.acc_store, acc.R.acc_addr, acc.R.acc_value) :: !seen);
        let n0 = R.accesses h in
        let v0 = R.load_int h a in
        R.store_int h a 8;
        let v1 = R.load64 h a in
        R.store64 h (a + 8) 9L;
        R.store_float h (a + 16) 1.5;
        let f = R.load_float h (a + 16) in
        R.store64_batched h (a + 24) 11L;
        let v2 = R.load64_batched h (a + 24) in
        loaded := [ Int64.of_int v0; v1; Int64.bits_of_float f; v2 ];
        issued := R.accesses h - n0;
        h.R.on_access <- None;
        let raises name f =
          let ok = try ignore (f ()); false with Invalid_argument _ -> true in
          raised := (name, ok) :: !raised
        in
        (* Take the last line exclusive, so the accesses below fail on
           the bound alone. *)
        R.store64 h (hi - 8) 1L;
        R.mb h;
        let edge = hi - 4 in
        raises "load64 across the image end" (fun () -> R.load64 h edge);
        raises "store64 across the image end" (fun () -> R.store64 h edge 1L);
        raises "load_int across the image end" (fun () -> R.load_int h edge);
        (* A corrupt private-table byte fails loudly, not as a miss. *)
        let st = h.R.st in
        let b = Protocol.Layout.block_of_addr (R.layout h) a in
        let saved = Protocol.Core.private_state st b in
        Bytes.set st.Protocol.Core.private_tab b 'X';
        raises "store64 on a corrupt state" (fun () -> R.store64 h a 1L);
        Protocol.Core.set_private st b saved)
  in
  C.init ~homes:[ 0 ] cl;
  ignore (C.run cl);
  Alcotest.(check bool) "first load leaves the line shared" true (!state = Protocol.Ptypes.Shared);
  let before, after = !misses in
  Alcotest.(check int) "store to a shared line enters the protocol" (before + 1) after;
  Alcotest.(check int) "hook saw every access" !issued (List.length !seen);
  Alcotest.(check int) "hook saw the accesses" 8 !issued;
  let f15 = Int64.bits_of_float 1.5 in
  Alcotest.(check (list int64)) "loads return the stored values" [ 7L; 8L; f15; 11L ] !loaded;
  Alcotest.(check bool)
    "hook saw the values" true
    (List.rev !seen
    = [
        (false, a, 7L);
        (true, a, 8L);
        (false, a, 8L);
        (true, a + 8, 9L);
        (true, a + 16, f15);
        (false, a + 16, f15);
        (true, a + 24, 11L);
        (false, a + 24, 11L);
      ]);
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) (name ^ " raises Invalid_argument") true ok)
    (List.rev !raised)

(* A width-generic store that straddles the image end on a line it does
   not hold exclusive enters the protocol first, so a miss is
   outstanding when the raw write fails the bound.  The failed store
   must not be left recorded against that miss: the reply would replay
   it and raise again, inside the poll handler. *)
let test_straddling_store_miss_leaves_no_replay () =
  let cfg = small_cfg ~nodes:2 ~cpus:1 () in
  let pc = cfg.Cfg.protocol in
  let hi = pc.Protocol.Config.shared_base + pc.Protocol.Config.shared_size in
  let cl = C.create cfg in
  let raised = ref false and done_ = ref false in
  let _ = C.spawn cl ~cpu:0 "home" ignore in
  let _ =
    C.spawn cl ~cpu:1 "writer" (fun h ->
        (try R.store h (hi - 4) Alpha.Insn.W64 1L with Invalid_argument _ -> raised := true);
        R.mb h;
        done_ := true)
  in
  C.init ~homes:[ 0 ] cl;
  ignore (C.run cl);
  Alcotest.(check bool) "the straddling store raised" true !raised;
  Alcotest.(check bool) "the writer ran past its mb" true !done_;
  Alcotest.(check (list string)) "quiescent" []
    (Protocol.Engine.check_quiescent (C.protocol_engine cl))

(* --- set-up follows the run, not the segment --- *)

(* A 4x4 cluster with 16 spawned processes and [init] run, the segment
   [size] bytes, and one home override of 1 KB near the segment's end
   at the domain of [home_cpu]'s process.  Returns the cluster and the
   override's address. *)
let setup_cluster ~variant ~size ~home_cpu =
  let cfg =
    {
      Cfg.default with
      Cfg.net = { Mchan.Net.default_config with Mchan.Net.nodes = 4; cpus_per_node = 4 };
      protocol = { Protocol.Config.default with Protocol.Config.variant; shared_size = size };
    }
  in
  let cl = C.create cfg in
  for c = 0 to 15 do
    ignore (C.spawn cl ~cpu:c "idle" ignore)
  done;
  let addr = cfg.Cfg.protocol.Protocol.Config.shared_base + size - 4096 in
  let home_h = List.nth (C.runtimes cl) home_cpu in
  let domain = home_h.R.st.Protocol.Engine.dom.Protocol.Engine.dom_id in
  Protocol.Engine.set_home (C.protocol_engine cl) ~addr ~len:1024 ~domain;
  C.init cl;
  (cl, addr, domain)

(* The live heap, in bytes, with [setup]'s result still reachable. *)
let live_with setup =
  let kept = setup () in
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words * (Sys.word_size / 8) in
  ignore (Sys.opaque_identity kept);
  live

(* Set-up allocates nothing sized by the segment: the live heap of a
   cluster at a 64 MB segment is within 256 KB of one at 64 KB (a
   per-block table would cost about a megabyte per table at 64 MB).  The
   override near the end reads Shared at its home and Invalid elsewhere
   through [block_state], before and after an image grows over it. *)
let test_setup_follows_run () =
  List.iter
    (fun variant ->
      let name = match variant with Protocol.Config.Smp -> "Smp" | Protocol.Config.Base -> "Base" in
      let small = live_with (fun () -> setup_cluster ~variant ~size:(64 * 1024) ~home_cpu:9) in
      let big = live_with (fun () -> setup_cluster ~variant ~size:(64 * 1024 * 1024) ~home_cpu:9) in
      if abs (big - small) >= 256 * 1024 then
        Alcotest.failf "%s: live heap %d B at 64 MB against %d B at 64 KB" name big small;
      let cl, addr, home = setup_cluster ~variant ~size:(64 * 1024 * 1024) ~home_cpu:9 in
      let check when_ =
        List.iter
          (fun h ->
            let st = h.R.st in
            let priv, shared = Protocol.Engine.block_state h.R.pcb addr in
            let want =
              if st.Protocol.Engine.dom.Protocol.Engine.dom_id = home then Protocol.Ptypes.Shared
              else Protocol.Ptypes.Invalid
            in
            if priv <> Protocol.Ptypes.Invalid || shared <> want then
              Alcotest.failf "%s pid %d %s: (%c, %c), expected (I, %c)" name st.Protocol.Engine.pid
                when_ (Protocol.Core.st_char priv) (Protocol.Core.st_char shared)
                (Protocol.Core.st_char want))
          (C.runtimes cl)
      in
      check "after init";
      (* Grow the home's image and one other over the override: the
         home reads zeros, the other the invalid flag. *)
      List.iter
        (fun cpu ->
          let h = List.nth (C.runtimes cl) cpu in
          let v = Protocol.Engine.raw_read h.R.pcb addr Alpha.Insn.W64 in
          let at_home = h.R.st.Protocol.Engine.dom.Protocol.Engine.dom_id = home in
          Alcotest.(check int64)
            (Printf.sprintf "%s cpu %d reads" name cpu)
            (if at_home then 0L else R.flag Alpha.Insn.W64)
            v)
        [ 9; 0 ];
      check "after the images grew")
    [ Protocol.Config.Smp; Protocol.Config.Base ]

(* --- the trace oracle on interpreted code ---

   [traced_spmd] runs [prog]'s [main] on [nprocs] processes of a
   [nodes] x [cpus] cluster under [model], thread [tid] on processor
   [tid] with arguments [args tid], as [Apps.Ircorpus.run_spmd] places
   them, and attaches one [Check.Trace] to every runtime.  [args] gets
   the cluster first, to allocate.  Returns the trace, each thread's
   interpreter stats, the cluster and the seeded mutation's fires. *)
let traced_spmd ?mutation ~nodes ~cpus ~model ~nprocs prog args =
  let cl =
    C.create
      {
        (small_cfg ~nodes ~cpus ~model ()) with
        Cfg.protocol =
          { Protocol.Config.default with Protocol.Config.model; shared_size = 1 lsl 20 };
      }
  in
  Option.iter (Protocol.Engine.seed_mutation (C.protocol_engine cl)) mutation;
  let args = args cl and tr = Check.Trace.create () and stats = ref [] in
  for tid = 0 to nprocs - 1 do
    Check.Trace.attach tr
      (C.spawn cl ~cpu:tid (Printf.sprintf "t%d" tid) (fun h ->
           let o = R.run_program h prog ~entry:"main" ~args:(args tid) () in
           stats := o.Alpha.Interp.stats :: !stats))
  done;
  ignore (C.run cl);
  Alcotest.(check int) "every thread finished" nprocs (List.length !stats);
  (tr, !stats, cl, Protocol.Engine.mutation_fires (C.protocol_engine cl))

let sum_stats f stats = List.fold_left (fun n s -> n + f s) 0 stats

(* A sync-corpus kernel as [run_spmd] lays it out: a hot allocation at
   [a0], a bulk one at [a1]. *)
let traced_sync_kernel ?mutation ~nodes ~cpus ~model (e : Apps.Ircorpus.entry) =
  let prog = fst (Rewrite.Instrument.instrument e.Apps.Ircorpus.e_program) in
  let words = e.Apps.Ircorpus.e_mem_words in
  traced_spmd ?mutation ~nodes ~cpus ~model ~nprocs:4 prog (fun cl ->
      let hot = C.alloc cl (8 * words) in
      let bulk = C.alloc cl ((8 * words) + 64) in
      fun tid -> List.map Int64.of_int [ hot; bulk; e.Apps.Ircorpus.e_iters; tid; 4 ])

let models = [ ("Rc", Protocol.Config.Rc); ("Sc", Protocol.Config.Sc) ]

(* Every shared access of an interpreted sync kernel is traced, once,
   and the oracle finds each run coherent (and SC under [Sc]). *)
let test_trace_sync_kernels () =
  List.iter
    (fun (e : Apps.Ircorpus.entry) ->
      List.iter
        (fun (nodes, cpus) ->
          List.iter
            (fun (mname, model) ->
              let what = Printf.sprintf "%s on %dx%d %s" e.Apps.Ircorpus.e_name nodes cpus mname in
              let tr, stats, _, _ = traced_sync_kernel ~nodes ~cpus ~model e in
              Alcotest.(check int) (what ^ ": traced = shared loads + stores + LL/SCs")
                (sum_stats
                   (fun s -> s.Alpha.Interp.loads + s.Alpha.Interp.stores + s.Alpha.Interp.ll_sc)
                   stats)
                (Check.Trace.length tr);
              Alcotest.(check (list string)) (what ^ ": oracle") []
                (Check.Trace.check ~full:(model = Protocol.Config.Sc) tr))
            models)
        [ (2, 2); (4, 1) ])
    Apps.Ircorpus.sync

(* An interpreted LL/SC fetch-and-add on 2x2: each LL is traced as a
   load, each successful SC as a store, whether it ran in hardware or
   the protocol performed it as an SC upgrade. *)
let test_trace_interpreted_llsc () =
  let instrumented, _ = Rewrite.Instrument.instrument fetch_add_program in
  let iters = 25 in
  List.iter
    (fun (mname, model) ->
      let counter = ref 0 in
      let tr, stats, cl, _ =
        traced_spmd ~nodes:2 ~cpus:2 ~model ~nprocs:4 instrumented (fun cl ->
            counter := C.alloc cl 64;
            fun _ -> [ Int64.of_int !counter; 0L; Int64.of_int iters ])
      in
      let evs = Check.Trace.events tr in
      let scs = List.length (List.filter (fun e -> e.Check.Trace.ev_store) evs) in
      let lls = List.length evs - scs in
      Alcotest.(check int) (mname ^ ": final counter") (4 * iters)
        (Int64.to_int (read_valid cl !counter));
      Alcotest.(check int) (mname ^ ": traced SCs = successful SCs") (4 * iters) scs;
      (* One LL per SC attempt, so the LLs are half the LL/SCs. *)
      Alcotest.(check int) (mname ^ ": traced LLs")
        (sum_stats (fun s -> s.Alpha.Interp.ll_sc) stats / 2)
        lls;
      Alcotest.(check bool) (mname ^ ": some SC took the protocol") true
        (List.exists (fun h -> (R.pstats h).Protocol.Engine.sc_misses > 0) (C.runtimes cl));
      Alcotest.(check (list string)) (mname ^ ": oracle") []
        (Check.Trace.check ~full:(model = Protocol.Config.Sc) tr))
    models

(* The oracle bites on interpreted code: with a recalled owner keeping
   its private copy, stencil-sync's strip words lose coherence. *)
let test_trace_convicts_interpreted () =
  let tr, _, _, fires =
    traced_sync_kernel ~mutation:Protocol.Engine.Keep_private_on_recall ~nodes:4 ~cpus:1
      ~model:Protocol.Config.Rc (Apps.Ircorpus.find_sync "stencil-sync")
  in
  Alcotest.(check bool) "the mutation fired" true (fires > 0);
  Alcotest.(check (list string)) "violations"
    [
      "trace: addr 0x40000010 has no per-location SC witness (36 events)";
      "trace: addr 0x40000018 has no per-location SC witness (36 events)";
    ]
    (Check.Trace.check tr)

let suite =
  [
    Alcotest.test_case "cross-node store/load" `Quick test_cross_node_store_load;
    Alcotest.test_case "MP lock mutual exclusion" `Quick test_mp_lock_mutual_exclusion;
    Alcotest.test_case "MP barrier phases" `Quick test_mp_barrier_phases;
    Alcotest.test_case "atomic add" `Quick test_atomic_add;
    Alcotest.test_case "SM lock mutual exclusion" `Quick test_sm_lock_mutual_exclusion;
    Alcotest.test_case "SM barrier" `Quick test_sm_barrier;
    Alcotest.test_case "SM lock contended handoff" `Quick test_sm_lock_contended_handoff;
    Alcotest.test_case "checking overhead" `Quick test_checking_overhead;
    Alcotest.test_case "breakdown sane" `Quick test_breakdown_sane;
    Alcotest.test_case "metrics tables sum to their records" `Quick
      test_metrics_tables_sum_to_records;
    Alcotest.test_case "miss kinds agree by region and pid" `Quick test_miss_kinds_agree;
    Alcotest.test_case "API-mode hits allocate nothing" `Quick test_api_hits_allocate_nothing;
    Alcotest.test_case "IR store breaks an armed monitor" `Quick test_ir_store_breaks_monitor;
    Alcotest.test_case "IR store rides an outstanding miss" `Quick
      test_ir_store_rides_outstanding_miss;
    Alcotest.test_case "IR store reissued after a batch" `Quick test_ir_store_reissued_after_batch;
    Alcotest.test_case "IR store hits allocate nothing" `Quick test_ir_store_hits_allocate_nothing;
    Alcotest.test_case "IR-mode hits allocate little" `Quick test_ir_hits_allocate_little;
    Alcotest.test_case "API-mode bounds and slow paths" `Quick test_api_bounds_and_slow_paths;
    Alcotest.test_case "straddling store miss leaves no replay" `Quick
      test_straddling_store_miss_leaves_no_replay;
    Alcotest.test_case "instrumented binary transparent" `Quick
      test_instrumented_binary_runs_transparently;
    Alcotest.test_case "uninstrumented binary reads flags" `Quick
      test_uninstrumented_binary_reads_flags;
    Alcotest.test_case "instrumented read correct" `Quick
      test_instrumented_same_program_reads_correctly;
    Alcotest.test_case "SM lock contended handoff under Sc" `Quick
      test_sm_lock_contended_handoff_sc;
    Alcotest.test_case "instrumented lock under Sc" `Quick test_instrumented_lock_sc;
    Alcotest.test_case "IR-mode LL/SC hits allocate little" `Quick
      test_ir_llsc_hits_allocate_little;
    Alcotest.test_case "set-up follows the run, not the segment" `Quick test_setup_follows_run;
    Alcotest.test_case "trace oracle on interpreted sync kernels" `Quick test_trace_sync_kernels;
    Alcotest.test_case "trace oracle on interpreted LL/SC" `Quick test_trace_interpreted_llsc;
    Alcotest.test_case "trace oracle convicts on interpreted code" `Quick
      test_trace_convicts_interpreted;
  ]
