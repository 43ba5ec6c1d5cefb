(* The experiments of Section 6: one function per table/figure.  Each
   prints the paper's numbers next to ours; EXPERIMENTS.md records the
   comparison. *)

module C = Shasta.Cluster
module R = Shasta.Runtime
module K = Osim.Kernel
module W = Minidb.Workload
open Support

(* ------------------------------------------------------------------ *)
(* Table 1: lock acquire latencies (microseconds)                      *)
(* ------------------------------------------------------------------ *)

type lock_kind = Mp | Sm | Sm_prefetch

(* Every protocol request the run issued (read, store, SC and prefetch
   misses), per acquire: Golab's remote memory references per lock
   passage.  The runs below touch no shared data besides the lock, and
   MP lock traffic is Sync messages outside the protocol. *)
let per_acquire cl ~latency ~acquires =
  let requests =
    Array.fold_left
      (fun n r -> n + r.Protocol.Engine.r_read_misses + r.Protocol.Engine.r_store_misses)
      0
      (Protocol.Engine.region_stats (C.protocol_engine cl))
  in
  (latency /. float_of_int acquires, float_of_int requests /. float_of_int acquires)

(* Measure the average acquire latency for a lock that is cached
   locally: a single process acquires and releases repeatedly. *)
let lock_cached kind =
  let cl = cluster ~nodes:1 ~cpus:1 () in
  let addr = C.alloc cl 64 in
  let acq = ref 0.0 in
  let iters = 200 in
  let _ =
    C.spawn cl ~cpu:0 "locker" (fun h ->
        for _ = 1 to iters do
          let t0 = C.now cl in
          (match kind with
          | Mp -> R.lock h 0
          | Sm -> R.sm_lock h addr
          | Sm_prefetch -> R.sm_lock ~prefetch:true h addr);
          R.flush h;
          acq := !acq +. (C.now cl -. t0);
          match kind with Mp -> R.unlock h 0 | Sm | Sm_prefetch -> R.sm_unlock h addr
        done)
  in
  ignore (C.run cl);
  per_acquire cl ~latency:!acq ~acquires:iters

(* Uncontended miss: two processes on different nodes alternate through
   the lock (so every acquire finds it free but remote); the lock's home
   and MP manager sit on a third node. *)
let lock_uncontended kind =
  let cl = cluster ~nodes:3 ~cpus:2 () in
  let addr = C.alloc cl 64 in
  let acq = ref 0.0 and acquires = ref 0 in
  let rounds = 100 in
  (* A serving process on the home node; spawned first so it is also the
     MP lock manager (pid 0). *)
  let _server = C.spawn cl ~cpu:4 "home" (fun _ -> ()) in
  for side = 0 to 1 do
    ignore
      (C.spawn cl ~cpu:(side * 2) "locker" (fun h ->
           for round = 1 to rounds do
             (* Alternate via an MP barrier (not measured). *)
             R.barrier h ~id:77 ~parties:2;
             if round land 1 = side then begin
               let t0 = C.now cl in
               (match kind with
               | Mp -> R.lock h 0
               | Sm -> R.sm_lock h addr
               | Sm_prefetch -> R.sm_lock ~prefetch:true h addr);
               R.flush h;
               acq := !acq +. (C.now cl -. t0);
               incr acquires;
               match kind with Mp -> R.unlock h 0 | Sm | Sm_prefetch -> R.sm_unlock h addr
             end
           done))
  done;
  C.init ~homes:[ 2 ] cl;
  ignore (C.run cl);
  per_acquire cl ~latency:!acq ~acquires:!acquires

(* Contention: eight processes hammer one lock. *)
let lock_contended kind =
  let cl = cluster ~nodes:3 ~cpus:4 () in
  let addr = C.alloc cl 64 in
  let acq = ref 0.0 and acquires = ref 0 in
  let _server = C.spawn cl ~cpu:8 "home" (fun _ -> ()) in
  for p = 0 to 7 do
    ignore
      (C.spawn cl ~cpu:p "locker" (fun h ->
           for _ = 1 to 40 do
             let t0 = C.now cl in
             (match kind with
             | Mp -> R.lock h 0
             | Sm -> R.sm_lock h addr
             | Sm_prefetch -> R.sm_lock ~prefetch:true h addr);
             R.flush h;
             acq := !acq +. (C.now cl -. t0);
             incr acquires;
             R.work_cycles h 300;
             (match kind with Mp -> R.unlock h 0 | Sm | Sm_prefetch -> R.sm_unlock h addr);
             R.work_cycles h 600
           done))
  done;
  C.init ~homes:[ 2 ] cl;
  ignore (C.run cl);
  per_acquire cl ~latency:!acq ~acquires:!acquires

let table1 () =
  print_header "Table 1: lock acquire latencies (us)   [paper: MP / SM / SM+pf]";
  let row name f (p_mp, p_sm, p_pf) =
    let mp, rq_mp = f Mp and sm, rq_sm = f Sm and pf, rq_pf = f Sm_prefetch in
    [
      name;
      us mp; us sm; us pf;
      Printf.sprintf "%.2f" p_mp; Printf.sprintf "%.2f" p_sm; Printf.sprintf "%.2f" p_pf;
      Printf.sprintf "%.2f/%.2f/%.2f" rq_mp rq_sm rq_pf;
    ]
  in
  print_table
    ~headers:
      [ "case"; "MP"; "SM"; "SM+pf"; "paper MP"; "paper SM"; "paper SM+pf"; "requests/acquire" ]
    [
      row "cached" lock_cached (1.11, 1.88, 1.91);
      row "uncontended miss" lock_uncontended (15.63, 44.12, 25.70);
      row "contended miss" lock_contended (81.02, 136.48, 137.90);
    ]

(* ------------------------------------------------------------------ *)
(* Table 2: system call times (microseconds)                           *)
(* ------------------------------------------------------------------ *)

let syscall_times ~variant ~checks =
  let cl = cluster ~nodes:2 ~cpus:2 ~variant ~checks () in
  let k = K.boot cl ~slot_cpus:[ 0; 2 ] () in
  let results = ref [] in
  let _ =
    K.start k ~cpu_hint:0 (fun ctx ->
        let seg = K.shmget ctx (128 * 1024) in
        let buf = K.shmat ctx seg in
        (* Touch the buffer so its lines are resident (Table 2 is for
           recently-used files and warm state). *)
        for i = 0 to (80 * 1024 / 64) - 1 do
          R.store_int ctx.K.h (buf + (i * 64)) 0
        done;
        let fd0 = K.open_file ctx "bench.dat" in
        Bytes.fill ctx.K.h.R.private_mem 0 65536 'x';
        ignore (K.write ctx fd0 ~buf:0 ~len:65536);
        K.close ctx fd0;
        let time f =
          let iters = 50 in
          let t0 = C.now cl in
          for _ = 1 to iters do
            f ()
          done;
          R.flush ctx.K.h;
          (C.now cl -. t0) /. float_of_int iters
        in
        let t_open =
          time (fun () ->
              let fd = K.open_file ctx "bench.dat" in
              K.close ctx fd)
        in
        let read_n n =
          time (fun () ->
              let fd = K.open_file ctx "bench.dat" in
              ignore (K.read ctx fd ~buf ~len:n);
              K.close ctx fd)
          -. t_open
        in
        results := [ t_open; read_n 4; read_n 8192; read_n 65536 ])
  in
  ignore (C.run cl);
  !results

let table2 () =
  print_header "Table 2: system call times (us)   [standard / Base-Shasta / SMP-Shasta]";
  let std = syscall_times ~variant:Protocol.Config.Base ~checks:false in
  let base = syscall_times ~variant:Protocol.Config.Base ~checks:true in
  let smp = syscall_times ~variant:Protocol.Config.Smp ~checks:true in
  let names = [ "open"; "read 4 B"; "read 8192 B"; "read 65536 B" ] in
  let paper = [ (58., 66., 79.); (12., 16., 20.); (51., 70., 126.); (370., 576., 845.) ] in
  let rows =
    List.mapi
      (fun i name ->
        let p1, p2, p3 = List.nth paper i in
        [
          name;
          us (List.nth std i); us (List.nth base i); us (List.nth smp i);
          Printf.sprintf "%.0f" p1; Printf.sprintf "%.0f" p2; Printf.sprintf "%.0f" p3;
        ])
      names
  in
  print_table
    ~headers:[ "call"; "std"; "Base"; "SMP"; "paper std"; "paper Base"; "paper SMP" ]
    rows

(* ------------------------------------------------------------------ *)
(* Table 3: sequential times, checking overheads, code growth          *)
(* ------------------------------------------------------------------ *)

(* A representative instruction-stream skeleton per application family,
   used to compute the static code-size increase the way ATOM-based
   Shasta would (the API-mode kernels have no machine code of their
   own).  The scientific mix resembles a SPLASH inner loop; the database
   mix is integer pointer-chasing with a higher shared-access density. *)
let skeleton ~procedures ~mix =
  let shared_loads, shared_stores, private_accesses, alu, n_fp = mix in
  let body i =
    let open Alpha.Asm in
    let shared_base = Protocol.Config.default.Protocol.Config.shared_base in
    List.concat
      [
        [ li t8 (Int64.of_int (shared_base + (i * 4096))); li t9 64L ];
        [ label "loop" ];
        List.init shared_loads (fun k -> ldq (1 + (k mod 6)) (8 * k) t8);
        List.concat (List.init n_fp (fun k -> [ fadd (k mod 8) ((k + 1) mod 8) ((k + 2) mod 8) ]));
        List.init shared_stores (fun k -> stq (1 + (k mod 6)) (8 * (k + shared_loads)) t8);
        List.init private_accesses (fun k ->
            if k land 1 = 0 then ldq (1 + (k mod 6)) (8 * k) sp else stq (1 + (k mod 6)) (8 * k) sp);
        List.init alu (fun k -> addi (1 + (k mod 6)) k (1 + ((k + 1) mod 6)));
        [ subi t9 1 t9; bgt t9 "loop"; ret ];
      ]
  in
  Alpha.Asm.program
    (List.init procedures (fun i -> Alpha.Asm.proc (Printf.sprintf "proc%d" i) (body i)))

let sci_mix = (6, 3, 6, 10, 6)
let db_mix = (10, 5, 5, 10, 0)

let code_growth_of ~procedures ~mix =
  let prog = skeleton ~procedures ~mix in
  let _, stats = Rewrite.Instrument.instrument prog in
  Rewrite.Instrument.code_growth stats

let app_overhead spec =
  let seq =
    let cl = cluster ~nodes:1 ~cpus:1 ~checks:false () in
    fst (Apps.Harness.run_spec cl spec ~nprocs:1 ~sync:Apps.Harness.Mp ())
  in
  let checked =
    let cl = cluster ~nodes:1 ~cpus:1 ~checks:true () in
    fst (Apps.Harness.run_spec cl spec ~nprocs:1 ~sync:Apps.Harness.Mp ())
  in
  (seq, checked)

let oracle_overhead query =
  let run checks =
    let cfg = W.cluster_config ~nodes:1 ~checks () in
    let p = { W.root_cpu = 0; daemon_cpu = 0; server_cpus = [ 1 ] } in
    match query with
    | `Oltp -> (W.run_oltp ~cfg ~placement:p ~clients:1 ~txns:600 ()).W.elapsed
    | `Dss q -> (W.run_dss ~cfg ~placement:p ~query:q ()).W.elapsed
  in
  (run false, run true)

let table3 () =
  print_header
    "Table 3: sequential time, checking overhead, code growth   [paper overhead / growth]";
  let rows = ref [] in
  List.iter
    (fun spec ->
      let seq, checked = app_overhead spec in
      let growth = code_growth_of ~procedures:12 ~mix:sci_mix in
      rows :=
        [
          spec.Apps.Harness.name;
          ms seq ^ " ms"; ms checked ^ " ms";
          pct ((checked -. seq) /. seq);
          pct growth;
          pct spec.Apps.Harness.paper_overhead;
          pct spec.Apps.Harness.paper_growth;
        ]
        :: !rows)
    Apps.Registry.all;
  let oracle name query (p_ovh, p_growth) =
    let seq, checked = oracle_overhead query in
    let growth = code_growth_of ~procedures:40 ~mix:db_mix in
    rows :=
      [
        name;
        ms seq ^ " ms"; ms checked ^ " ms";
        pct ((checked -. seq) /. seq);
        pct growth;
        pct p_ovh;
        pct p_growth;
      ]
      :: !rows
  in
  oracle "Oracle OLTP" `Oltp (0.192, 0.96);
  oracle "Oracle DSS-1" (`Dss W.Dss1) (0.681, 0.96);
  oracle "Oracle DSS-2" (`Dss W.Dss2) (0.372, 0.96);
  print_table
    ~headers:
      [ "application"; "sequential"; "with checks"; "overhead"; "growth"; "paper ovh"; "paper growth" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Figure 3: SPLASH-2 speedups, MP vs transparent Alpha sync           *)
(* ------------------------------------------------------------------ *)

let fig3_procs = [ 1; 2; 4; 8; 16 ]

let speedup_row spec ~sync ~seq =
  List.map
    (fun nprocs ->
      let cl = cluster () in
      let elapsed, ok = Apps.Harness.run_spec cl spec ~nprocs ~sync () in
      if not ok then "FAIL" else Printf.sprintf "%.2f" (seq /. elapsed))
    fig3_procs

let figure3 () =
  print_header "Figure 3 (left): speedups with message-passing synchronization";
  let seq_of spec =
    let cl = cluster ~nodes:1 ~cpus:1 ~checks:false () in
    fst (Apps.Harness.run_spec cl spec ~nprocs:1 ~sync:Apps.Harness.Mp ())
  in
  let seqs = List.map (fun s -> (s, seq_of s)) Apps.Registry.all in
  print_table
    ~headers:("application" :: List.map string_of_int fig3_procs)
    (List.map
       (fun (spec, seq) -> spec.Apps.Harness.name :: speedup_row spec ~sync:Apps.Harness.Mp ~seq)
       seqs);
  print_header "Figure 3 (right): speedups with transparent Alpha (LL/SC + MB) synchronization";
  print_table
    ~headers:("application" :: List.map string_of_int fig3_procs)
    (List.map
       (fun (spec, seq) -> spec.Apps.Harness.name :: speedup_row spec ~sync:Apps.Harness.Sm ~seq)
       seqs)

(* ------------------------------------------------------------------ *)
(* Figure 4: blocking (SC) vs non-blocking (RC) stores, 16 processors  *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  print_header
    "Figure 4: 16-processor Base-Shasta, sequential consistency (SC) vs relaxed (RC)";
  let rows =
    List.map
      (fun spec ->
        let run model =
          let cl = cluster ~variant:Protocol.Config.Base ~model () in
          let elapsed, ok = Apps.Harness.run_spec cl spec ~nprocs:16 ~sync:Apps.Harness.Mp () in
          (elapsed, ok, C.total_breakdown cl)
        in
        let rc, ok1, _brc = run Protocol.Config.Rc in
        let sc, ok2, bsc = run Protocol.Config.Sc in
        let b = Shasta.Breakdown.normalize ~against:bsc bsc in
        [
          spec.Apps.Harness.name;
          ms rc; ms sc;
          (if ok1 && ok2 then Printf.sprintf "%+.1f%%" (100.0 *. ((sc /. rc) -. 1.0)) else "FAIL");
          Printf.sprintf "%.0f/%.0f/%.0f/%.0f" b.Shasta.Breakdown.task
            (b.Shasta.Breakdown.read +. b.Shasta.Breakdown.write)
            (b.Shasta.Breakdown.sync +. b.Shasta.Breakdown.mb)
            b.Shasta.Breakdown.msg;
        ])
      Apps.Registry.all
  in
  print_table
    ~headers:[ "application"; "RC ms"; "SC ms"; "SC slowdown"; "SC task/stall/sync/msg %" ]
    rows;
  Printf.printf "(paper: SC loses at most ~10%% across SPLASH-2 — fine-grain coherence\n";
  Printf.printf " does not depend on the relaxed model, unlike page-based systems)\n";
  print_header "Figure 4 (SMP-Shasta, LL/SC sync): 16 processors on 4 nodes x 4, SC vs RC";
  let rows =
    List.map
      (fun spec ->
        let run model =
          let cl = cluster ~model () in
          Apps.Harness.run_spec cl spec ~nprocs:16 ~sync:Apps.Harness.Sm ()
        in
        let rc, ok1 = run Protocol.Config.Rc in
        let sc, ok2 = run Protocol.Config.Sc in
        [
          spec.Apps.Harness.name;
          ms rc;
          ms sc;
          (if ok1 && ok2 then Printf.sprintf "%+.1f%%" (100.0 *. ((sc /. rc) -. 1.0)) else "FAIL");
        ])
      Apps.Registry.all
  in
  print_table ~headers:[ "application"; "RC ms"; "SC ms"; "SC slowdown" ] rows

(* ------------------------------------------------------------------ *)
(* Table 4 and Figure 5: Oracle DSS-1 scaling and breakdowns           *)
(* ------------------------------------------------------------------ *)

let dss1_run ~servers ~config =
  match config with
  | `Smp ->
      (* Standard Oracle on one AlphaServer: no Shasta checks, processes
         share memory through the node's hardware. *)
      let cfg = W.cluster_config ~nodes:1 ~checks:false () in
      let placement =
        { W.root_cpu = 0; daemon_cpu = 0; server_cpus = List.init servers (fun i -> 1 + i) }
      in
      W.run_dss ~cfg ~placement ~query:W.Dss1 ()
  | `Extra -> W.run_dss ~cfg:(W.cluster_config ()) ~placement:(W.placement_extra_proc ~servers) ~query:W.Dss1 ()
  | `Equal -> W.run_dss ~cfg:(W.cluster_config ()) ~placement:(W.placement_equal ~servers) ~query:W.Dss1 ()

let table4 () =
  print_header "Table 4: DSS-1 run times (ms simulated)   [paper seconds in brackets]";
  let paper = function
    | 1, `Smp -> 8.83 | 2, `Smp -> 4.77 | 3, `Smp -> 3.06
    | 1, `Extra -> 15.51 | 2, `Extra -> 12.57 | 3, `Extra -> 8.11
    | 1, `Equal -> 15.40 | 2, `Equal -> 19.29 | 3, `Equal -> 11.11
    | _ -> nan
  in
  let rows =
    List.map
      (fun servers ->
        let cell config =
          let o = dss1_run ~servers ~config in
          Printf.sprintf "%s%s [%.2f]" (ms o.W.elapsed) (if o.W.ok then "" else "!") (paper (servers, config))
        in
        [
          Printf.sprintf "%d server%s" servers (if servers > 1 then "s" else "");
          cell `Smp; cell `Extra; cell `Equal;
        ])
      [ 1; 2; 3 ]
  in
  print_table ~headers:[ ""; "Oracle on SMP"; "Shasta extra proc"; "Shasta 1 proc/server" ] rows

let figure5 () =
  print_header "Figure 5: DSS-1 time breakdowns, extra-processor (EX) vs equal (EQ)";
  List.iter
    (fun servers ->
      let ex = dss1_run ~servers ~config:`Extra in
      let eq = dss1_run ~servers ~config:`Equal in
      let sum os =
        List.fold_left Shasta.Breakdown.add (Shasta.Breakdown.empty ()) os.W.server_breakdowns
      in
      let bex = sum ex and beq = sum eq in
      let n = Shasta.Breakdown.normalize ~against:bex in
      Printf.printf "%d servers:\n" servers;
      Format.printf "  EX (100%%): %a@." Shasta.Breakdown.pp (n bex);
      Format.printf "  EQ (%3.0f%%): %a@." (Shasta.Breakdown.total (n beq)) Shasta.Breakdown.pp (n beq))
    [ 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Section 6.2: memory-barrier cost; 6.3: code modification time       *)
(* ------------------------------------------------------------------ *)

let mb_cost ~variant ~checks =
  let cl = cluster ~nodes:1 ~cpus:1 ~variant ~checks () in
  measure_on ~cl ~cpu:0 ~iters:500 ~setup:(fun _ -> ()) (fun h -> R.mb h)

let mb_bench () =
  print_header "Memory barrier cost (us)  [paper: standard 0.03, Base 0.32, SMP 1.68]";
  print_table ~headers:[ "configuration"; "measured"; "paper" ]
    [
      [ "standard SMP application"; us (mb_cost ~variant:Protocol.Config.Smp ~checks:false); "0.03" ];
      [ "Base-Shasta"; us (mb_cost ~variant:Protocol.Config.Base ~checks:true); "0.32" ];
      [ "SMP-Shasta"; us (mb_cost ~variant:Protocol.Config.Smp ~checks:true); "1.68" ];
    ]

let rewrite_time () =
  print_header "Code modification time   [paper: SPLASH-2 4.0-7.3 s, Oracle 202 s]";
  let time_real f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  let splash_prog = skeleton ~procedures:370 ~mix:sci_mix in
  let (_, s_stats), s_real = time_real (fun () -> Rewrite.Instrument.instrument splash_prog) in
  let oracle_prog = skeleton ~procedures:12000 ~mix:db_mix in
  let (_, o_stats), o_real = time_real (fun () -> Rewrite.Instrument.instrument oracle_prog) in
  print_table
    ~headers:[ "binary"; "procedures"; "slots"; "modelled time"; "our rewriter (real s)" ]
    [
      [
        "SPLASH-2-sized"; "370";
        string_of_int s_stats.Rewrite.Instrument.orig_slots;
        Printf.sprintf "%.1f s"
          (Rewrite.Instrument.modification_time_model ~procedures:370
             ~slots:s_stats.Rewrite.Instrument.orig_slots);
        Printf.sprintf "%.2f" s_real;
      ];
      [
        "Oracle-sized"; "12000";
        string_of_int o_stats.Rewrite.Instrument.orig_slots;
        Printf.sprintf "%.1f s"
          (Rewrite.Instrument.modification_time_model ~procedures:12000
             ~slots:o_stats.Rewrite.Instrument.orig_slots);
        Printf.sprintf "%.2f" o_real;
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                 *)
(* ------------------------------------------------------------------ *)

let lock_counter_program =
  Alpha.Asm.(
    program
      [
        proc "main"
          [
            label "outer";
            label "try_again";
            ll W32 t0 0 a0;
            bne t0 "try_again";
            li t0 1L;
            sc W32 t0 0 a0;
            beq t0 "try_again";
            mb;
            ldq t1 0 a1;
            addi t1 1 t1;
            stq t1 0 a1;
            mb;
            stl zero 0 a0;
            subi a2 1 a2;
            bgt a2 "outer";
            halt;
          ];
      ])

let ir_lock_run ~options =
  let instrumented, _ = Rewrite.Instrument.instrument ~options lock_counter_program in
  let cl = cluster ~nodes:2 ~cpus:2 () in
  let lockw = C.alloc cl 64 in
  let counter = C.alloc cl 64 in
  for c = 0 to 3 do
    ignore
      (C.spawn cl ~cpu:c "cpu" (fun h ->
           ignore
             (R.run_program h instrumented ~entry:"main"
                ~args:[ Int64.of_int lockw; Int64.of_int counter; Int64.of_int 20 ]
                ())))
  done;
  C.run cl

(* A streaming-read kernel over locally valid data: the configuration
   where the flag technique shines (3-slot inline check vs a protocol
   entry per load). *)
let ir_stream_run ~options =
  let prog =
    Alpha.Asm.(
      program
        [
          proc "main"
            [
              label "outer";
              mov a0 t8;
              li t9 64L;
              label "loop";
              ldq t0 0 t8;
              ldq t1 8 t8;
              ldq t2 16 t8;
              add t0 t1 t3;
              add t3 t2 t3;
              addi t8 64 t8;
              subi t9 1 t9;
              bgt t9 "loop";
              subi a2 1 a2;
              bgt a2 "outer";
              halt;
            ];
        ])
  in
  let instrumented, _ = Rewrite.Instrument.instrument ~options prog in
  let cl = cluster ~nodes:1 ~cpus:1 () in
  let buf = C.alloc cl 8192 in
  let elapsed = ref 0.0 in
  let _ =
    C.spawn cl ~cpu:0 "cpu" (fun h ->
        (* Make the region locally valid first. *)
        for i = 0 to 127 do
          R.store_int h (buf + (i * 64)) i
        done;
        let t0 = C.now cl in
        ignore
          (R.run_program h instrumented ~entry:"main"
             ~args:[ Int64.of_int buf; 0L; 200L ] ());
        R.flush h;
        elapsed := C.now cl -. t0)
  in
  ignore (C.run cl);
  !elapsed

let ablation () =
  print_header "Ablations";
  let base_opts = Rewrite.Instrument.default_options in
  let no_flag = { base_opts with Rewrite.Instrument.flag_loads = false } in
  let no_batch = { base_opts with Rewrite.Instrument.batching = false } in
  let no_flag_no_batch = { no_flag with Rewrite.Instrument.batching = false } in
  (* With batching disabled, every load keeps its individual check: the
     flag technique's 3-slot inline check vs a per-load protocol entry. *)
  Printf.printf
    "streaming reads (12.8k loads, locally valid):\n\
    \  flag+batch %.3f ms   flag only %.3f ms   state-table checks %.3f ms\n"
    (1000.0 *. ir_stream_run ~options:base_opts)
    (1000.0 *. ir_stream_run ~options:no_batch)
    (1000.0 *. ir_stream_run ~options:no_flag_no_batch);
  Printf.printf "IR lock kernel, 4 procs:  flag %.3f ms   no-flag %.3f ms\n"
    (1000.0 *. ir_lock_run ~options:base_opts)
    (1000.0 *. ir_lock_run ~options:no_flag);
  let growth o =
    let prog = skeleton ~procedures:24 ~mix:sci_mix in
    let _, st = Rewrite.Instrument.instrument ~options:o prog in
    Rewrite.Instrument.code_growth st
  in
  Printf.printf "code growth:              default %s   no-batch %s   no-flag-no-batch %s\n"
    (pct (growth base_opts))
    (pct (growth no_batch))
    (pct (growth no_flag_no_batch));
  (* Batching: a 17-line remote row fetched batched vs serial. *)
  let batch_vs_serial batched =
    let cl = cluster ~nodes:2 ~cpus:2 () in
    let t = Apps.Harness.create cl ~sync:Apps.Harness.Mp ~nprocs:2 in
    let arr = Apps.Harness.alloc_farray t 256 in
    let dt = ref 0.0 in
    let _w = C.spawn cl ~cpu:0 "w" (fun h ->
        for i = 0 to 135 do Apps.Harness.fset h arr i 1.0 done;
        R.barrier h ~id:1 ~parties:2)
    in
    let _r = C.spawn cl ~cpu:2 "r" (fun h ->
        R.barrier h ~id:1 ~parties:2;
        let t0 = C.now cl in
        if batched then Apps.Harness.batch_read h arr 0 136
        else
          for i = 0 to 135 do
            ignore (Apps.Harness.fget h arr i)
          done;
        R.flush h;
        dt := C.now cl -. t0)
    in
    C.init ~homes:[ 0 ] cl;
    ignore (C.run cl);
    !dt
  in
  Printf.printf "17-line remote fetch:     batched %.1f us   serial %.1f us\n"
    (Sim.Units.to_us (batch_vs_serial true))
    (Sim.Units.to_us (batch_vs_serial false));
  (* Direct downgrade: the paper could not even measure the runs without
     it; we can. *)
  let dd on =
    let cfg = W.cluster_config ~direct_downgrade:on () in
    (W.run_dss ~cfg ~placement:(W.placement_extra_proc ~servers:2) ~query:W.Dss1 ()).W.elapsed
  in
  let show_dd t =
    (* A negative elapsed means the timed region never completed before
       the 600-simulated-second cutoff. *)
    if t <= 0.0 then "never completes (cut off at 600 s; the paper could not measure these runs either)"
    else Printf.sprintf "%.2f ms" (1000.0 *. t)
  in
  Printf.printf "direct downgrade (DSS-1, 2 servers):  on %s   off %s\n" (show_dd (dd true))
    (show_dd (dd false));
  (* Home placement (Ocean homes each processor's rows at its domain, so
     a neighbour's boundary fetch is a two-hop miss at the owner instead
     of a recall through a third-party home). *)
  let place app on =
    let cl = cluster () in
    fst (Apps.Harness.run_spec ~home_placement:on cl app ~nprocs:8 ~sync:Apps.Harness.Mp ())
  in
  Printf.printf "home placement (Ocean, 8 procs):  on %.2f ms   off %.2f ms\n"
    (1000.0 *. place Apps.Ocean.spec true) (1000.0 *. place Apps.Ocean.spec false);
  Printf.printf "home placement (FMM, 8 procs):    on %.2f ms   off %.2f ms\n"
    (1000.0 *. place Apps.Fmm.spec true) (1000.0 *. place Apps.Fmm.spec false);
  (* Coherence granularity: one application across line sizes. *)
  let line_sweep line =
    let cl = cluster ~shared:(8 * 1024 * 1024) () in
    ignore cl;
    let cl =
      C.create
        {
          Shasta.Config.default with
          Shasta.Config.net = { Mchan.Net.default_config with Mchan.Net.nodes = 4; cpus_per_node = 4 };
          protocol =
            { Protocol.Config.default with Protocol.Config.line_size = line; shared_size = 8 * 1024 * 1024 };
        }
    in
    fst (Apps.Harness.run_spec cl Apps.Ocean.spec ~nprocs:8 ~sync:Apps.Harness.Mp ())
  in
  Printf.printf "line size (Ocean, 8 procs):  32 B %.2f ms   64 B %.2f ms   128 B %.2f ms   256 B %.2f ms\n"
    (1000.0 *. line_sweep 32) (1000.0 *. line_sweep 64) (1000.0 *. line_sweep 128)
    (1000.0 *. line_sweep 256);
  (* SC vs RC and Base vs SMP on one kernel. *)
  let variant_run ~variant ~model =
    let cl = cluster ~variant ~model () in
    fst (Apps.Harness.run_spec cl Apps.Lu.spec ~nprocs:8 ~sync:Apps.Harness.Mp ())
  in
  Printf.printf "LU, 8 procs:  SMP/RC %.2f ms   SMP/SC %.2f ms   Base/RC %.2f ms\n"
    (1000.0 *. variant_run ~variant:Protocol.Config.Smp ~model:Protocol.Config.Rc)
    (1000.0 *. variant_run ~variant:Protocol.Config.Smp ~model:Protocol.Config.Sc)
    (1000.0 *. variant_run ~variant:Protocol.Config.Base ~model:Protocol.Config.Rc)
