(* The experiments of Section 6: one function per table/figure, each
   returning its tables with the paper's numbers as columns beside ours.
   [bench/main.exe paper] commits every cell as BENCH_paper.json, and
   EXPERIMENTS.md quotes it.

   A [deviation] column names the entry of EXPERIMENTS' "Known
   deviations" that explains a row's gap from the paper (0: none). *)

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
      (fun n r ->
        Protocol.Engine.(
          n + r.r_read_misses + r.r_store_misses + r.r_sc_misses + r.r_prefetch_misses))
      0
      (Protocol.Engine.region_stats (C.protocol_engine cl))
  in
  (latency /. float_of_int acquires, float_of_int requests /. float_of_int acquires)

(* One timed acquire, its latency added to [acq]. *)
let acquire cl h kind addr acq =
  let t0 = C.now cl in
  (match kind with
  | Mp -> R.lock h 0
  | Sm -> R.sm_lock h addr
  | Sm_prefetch -> R.sm_lock ~prefetch:true h addr);
  R.flush h;
  acq := !acq +. (C.now cl -. t0)

let release h kind addr =
  match kind with Mp -> R.unlock h 0 | Sm | Sm_prefetch -> R.sm_unlock h addr

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
          acquire cl h kind addr acq;
          release h kind addr
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
               acquire cl h kind addr acq;
               incr acquires;
               release h kind addr
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
             acquire cl h kind addr acq;
             incr acquires;
             R.work_cycles h 300;
             release h kind addr;
             R.work_cycles h 600
           done))
  done;
  C.init ~homes:[ 2 ] cl;
  ignore (C.run cl);
  per_acquire cl ~latency:!acq ~acquires:!acquires

let lock_kinds = [ ("MP", Mp); ("SM", Sm); ("SM+pf", Sm_prefetch) ]

let table1 () =
  let rows (case, f, paper, deviation) =
    List.map2
      (fun (name, kind) paper_us ->
        let latency, requests = f kind in
        ( case ^ " " ^ name,
          Sim.Stats.[ Float (Sim.Units.to_us latency); Float paper_us; Float requests;
                      Int (if kind = Mp then 0 else deviation) ] ))
      lock_kinds paper
  in
  (* The paper's latencies in [lock_kinds] order, and the deviation
     that explains the SM locks' gap. *)
  let rows =
    List.concat_map rows
      [ ("cached", lock_cached, [ 1.11; 1.88; 1.91 ], 0);
        ("uncontended miss", lock_uncontended, [ 15.63; 44.12; 25.70 ], 1);
        ("contended miss", lock_contended, [ 81.02; 136.48; 137.90 ], 1) ]
  in
  [ { Sim.Stats.title = "Table 1: lock acquire latencies"; rows;
      columns =
        [ "lock"; "acquire_us"; "paper_acquire_us"; "requests_per_acquire"; "deviation" ] } ]

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
  let std = syscall_times ~variant:Protocol.Config.Base ~checks:false in
  let base = syscall_times ~variant:Protocol.Config.Base ~checks:true in
  let smp = syscall_times ~variant:Protocol.Config.Smp ~checks:true in
  let row i (call, paper_us) =
    let ours = List.map (fun times -> Sim.Units.to_us (List.nth times i)) [ std; base; smp ] in
    (call, List.map (fun x -> Sim.Stats.Float x) (ours @ paper_us))
  in
  let rows =
    List.mapi row
      [ ("open", [ 58.; 66.; 79. ]); ("read 4 B", [ 12.; 16.; 20. ]);
        ("read 8192 B", [ 51.; 70.; 126. ]); ("read 65536 B", [ 370.; 576.; 845. ]) ]
  in
  [ { Sim.Stats.title = "Table 2: system call times (standard / Base-Shasta / SMP-Shasta)"; rows;
      columns =
        [ "call"; "std_us"; "base_us"; "smp_us"; "paper_std_us"; "paper_base_us"; "paper_smp_us" ]
    } ]

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

(* One process alone on a one-CPU cluster: Table 3's sequential and
   checked runs, and the base of Figure 3's speedups. *)
let sequential ~checks spec =
  let cl = cluster ~nodes:1 ~cpus:1 ~checks () in
  Apps.Harness.run_spec cl spec ~nprocs:1 ~sync:Apps.Harness.Mp ()

let oracle_overhead query =
  let run checks =
    let cfg = W.cluster_config ~nodes:1 ~checks () in
    let placement = { W.root_cpu = 0; daemon_cpu = 0; server_cpus = [ 1 ] } in
    let o =
      match query with
      | `Oltp -> W.run_oltp ~cfg ~placement ~clients:1 ~txns:600 ()
      | `Dss query -> W.run_dss ~cfg ~placement ~query ()
    in
    (o.W.elapsed, o.W.ok)
  in
  let seq = run false in
  (seq, run true)

let table3 () =
  let row name ((seq, seq_ok), (checked, checked_ok)) growth (p_ovh, p_growth) deviation =
    ( name,
      Sim.Stats.[ Float (1000.0 *. seq); Float (1000.0 *. checked);
                  Float (100.0 *. (checked -. seq) /. seq); Float (100.0 *. growth);
                  Float (100.0 *. p_ovh); Float (100.0 *. p_growth);
                  Support.validated (seq_ok && checked_ok); Int deviation ] )
  in
  let app spec =
    let seq = sequential ~checks:false spec in
    let runs = (seq, sequential ~checks:true spec) in
    let name = spec.Apps.Harness.name in
    (* Their inner loops model the rewriter's batching by hand. *)
    let deviation = if List.mem name [ "Barnes"; "Water-Nsq"; "Water-Sp" ] then 3 else 0 in
    row name runs (code_growth_of ~procedures:12 ~mix:sci_mix)
      Apps.Harness.(spec.paper_overhead, spec.paper_growth) deviation
  in
  let apps = List.map app Apps.Registry.all in
  let oracle (name, query, paper) =
    row name (oracle_overhead query) (code_growth_of ~procedures:40 ~mix:db_mix) paper 0
  in
  let oracles =
    List.map oracle
      [ ("Oracle OLTP", `Oltp, (0.192, 0.96)); ("Oracle DSS-1", `Dss W.Dss1, (0.681, 0.96));
        ("Oracle DSS-2", `Dss W.Dss2, (0.372, 0.96)) ]
  in
  [ { Sim.Stats.title = "Table 3: sequential time, checking overhead, code growth";
      rows = apps @ oracles;
      columns = [ "application"; "sequential_ms"; "checked_ms"; "overhead_pct"; "growth_pct";
                  "paper_overhead_pct"; "paper_growth_pct"; "validated"; "deviation" ] } ]

(* ------------------------------------------------------------------ *)
(* Figure 3: SPLASH-2 speedups, MP vs transparent Alpha sync           *)
(* ------------------------------------------------------------------ *)

let fig3_procs = [ 1; 2; 4; 8; 16 ]

let figure3 () =
  let seqs = List.map (fun s -> (s, fst (sequential ~checks:false s))) Apps.Registry.all in
  let panel title sync =
    let row (spec, seq) =
      let runs =
        List.map (fun nprocs -> Apps.Harness.run_spec (cluster ()) spec ~nprocs ~sync ()) fig3_procs
      in
      ( spec.Apps.Harness.name,
        List.map (fun (elapsed, _) -> Sim.Stats.Float (seq /. elapsed)) runs
        @ [ Support.validated (List.for_all snd runs) ] )
    in
    let speedups = List.map (Printf.sprintf "speedup_%dp") fig3_procs in
    { Sim.Stats.title; rows = List.map row seqs;
      columns = ("application" :: speedups) @ [ "validated" ] }
  in
  let left = panel "Figure 3 (left): speedups with message-passing sync" Apps.Harness.Mp in
  let right_title = "Figure 3 (right): speedups with transparent Alpha (LL/SC + MB) sync" in
  [ left; panel right_title Apps.Harness.Sm ]

(* ------------------------------------------------------------------ *)
(* Figure 4: blocking (SC) vs non-blocking (RC) stores, 16 processors  *)
(* ------------------------------------------------------------------ *)

(* The paper: SC loses at most about 10% across SPLASH-2, because
   fine-grain coherence does not lean on the relaxed model the way
   page-based systems do. *)
let paper_max_sc_slowdown_pct = 10.0

let figure4 () =
  let times (rc, ok1) (sc, ok2) =
    ( Sim.Stats.[ Float (1000.0 *. rc); Float (1000.0 *. sc); Float (100.0 *. ((sc /. rc) -. 1.0));
                  Float paper_max_sc_slowdown_pct ],
      Support.validated (ok1 && ok2) )
  in
  let base spec =
    let run model =
      let cl = cluster ~variant:Protocol.Config.Base ~model () in
      (Apps.Harness.run_spec cl spec ~nprocs:16 ~sync:Apps.Harness.Mp (), cl)
    in
    let rc, _ = run Protocol.Config.Rc in
    let sc, cl = run Protocol.Config.Sc in
    let cells, ok = times rc sc in
    let bsc = C.total_breakdown cl in
    let b = Shasta.Breakdown.normalize ~against:bsc bsc in
    ( spec.Apps.Harness.name,
      cells @ Shasta.Breakdown.[ Sim.Stats.Float b.task; Float (b.read +. b.write);
                                 Float (b.sync +. b.mb); Float b.msg; ok ] )
  in
  let smp spec =
    let run model =
      Apps.Harness.run_spec (cluster ~model ()) spec ~nprocs:16 ~sync:Apps.Harness.Sm ()
    in
    let rc = run Protocol.Config.Rc in
    let cells, ok = times rc (run Protocol.Config.Sc) in
    (spec.Apps.Harness.name, cells @ [ ok ])
  in
  let columns =
    [ "application"; "rc_ms"; "sc_ms"; "sc_slowdown_pct"; "paper_max_sc_slowdown_pct" ]
  in
  let base_rows = List.map base Apps.Registry.all in
  [ { Sim.Stats.title = "Figure 4: 16-processor Base-Shasta, SC vs RC (SC time breakdown in %)";
      columns =
        columns @ [ "sc_task_pct"; "sc_stall_pct"; "sc_sync_pct"; "sc_msg_pct"; "validated" ];
      rows = base_rows };
    { Sim.Stats.title = "Figure 4 (SMP-Shasta, LL/SC sync): 16 processors on 4 nodes x 4, SC vs RC";
      columns = columns @ [ "validated" ]; rows = List.map smp Apps.Registry.all } ]

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
  (* The paper's seconds per placement, for 1, 2 and 3 servers. *)
  let configs =
    [ (`Smp, [ 8.83; 4.77; 3.06 ]); (`Extra, [ 15.51; 12.57; 8.11 ]);
      (`Equal, [ 15.40; 19.29; 11.11 ]) ]
  in
  let row i servers =
    let runs = List.map (fun (config, _) -> dss1_run ~servers ~config) configs in
    ( Printf.sprintf "%d server%s" servers (if servers > 1 then "s" else ""),
      List.map (fun o -> Sim.Stats.Float (1000.0 *. o.W.elapsed)) runs
      @ List.map (fun (_, paper) -> Sim.Stats.Float (List.nth paper i)) configs
      @ [ Support.validated (List.for_all (fun o -> o.W.ok) runs) ] )
  in
  [ { Sim.Stats.title =
        "Table 4: DSS-1 run times (Oracle on SMP / Shasta extra proc / Shasta 1 proc per server)";
      columns = [ "servers"; "smp_ms"; "extra_ms"; "equal_ms"; "paper_smp_s"; "paper_extra_s";
                  "paper_equal_s"; "validated" ];
      rows = List.mapi row [ 1; 2; 3 ] } ]

let figure5 () =
  let rows servers =
    let ex = dss1_run ~servers ~config:`Extra in
    let eq = dss1_run ~servers ~config:`Equal in
    let sum o =
      List.fold_left Shasta.Breakdown.add (Shasta.Breakdown.empty ()) o.W.server_breakdowns
    in
    let row name o =
      let b = Shasta.Breakdown.normalize ~against:(sum ex) (sum o) in
      ( Printf.sprintf "%d servers %s" servers name,
        Shasta.Breakdown.[ Sim.Stats.Float (total b); Float b.task; Float b.read; Float b.write;
                           Float b.mb; Float b.sync; Float b.blocked; Float b.msg;
                           Support.validated o.W.ok ] )
    in
    [ row "EX" ex; row "EQ" eq ]
  in
  [ { Sim.Stats.title =
        "Figure 5: DSS-1 time breakdowns, extra-processor (EX) vs equal (EQ), in % of EX";
      columns = [ "run"; "total_pct"; "task_pct"; "read_pct"; "write_pct"; "mb_pct"; "sync_pct";
                  "blocked_pct"; "msg_pct"; "validated" ];
      rows = List.concat_map rows [ 2; 3 ] } ]

(* ------------------------------------------------------------------ *)
(* Section 6.2: memory-barrier cost; 6.3: code modification time       *)
(* ------------------------------------------------------------------ *)

let mb_cost ~variant ~checks =
  let cl = cluster ~nodes:1 ~cpus:1 ~variant ~checks () in
  measure_on ~cl ~cpu:0 ~iters:500 ~setup:(fun _ -> ()) (fun h -> R.mb h)

let mb_bench () =
  let row (name, variant, checks, paper_us) =
    (name, Sim.Stats.[ Float (Sim.Units.to_us (mb_cost ~variant ~checks)); Float paper_us ])
  in
  let rows =
    List.map row
      [ ("standard SMP application", Protocol.Config.Smp, false, 0.03);
        ("Base-Shasta", Protocol.Config.Base, true, 0.32);
        ("SMP-Shasta", Protocol.Config.Smp, true, 1.68) ]
  in
  [ { Sim.Stats.title = "Section 6.2: memory barrier cost"; rows;
      columns = [ "configuration"; "mb_us"; "paper_mb_us" ] } ]

(* The real seconds our rewriter takes are host time: printed, never
   part of the table. *)
let rewrite_time () =
  let row (name, procedures, mix, paper_lo, paper_hi) =
    let prog = skeleton ~procedures ~mix in
    let t0 = Sys.time () in
    let _, stats = Rewrite.Instrument.instrument prog in
    Printf.printf "our rewriter, %s binary: %.2f s host time\n" name (Sys.time () -. t0);
    let slots = stats.Rewrite.Instrument.orig_slots in
    ( name,
      Sim.Stats.[ Int procedures; Int slots;
                  Float (Rewrite.Instrument.modification_time_model ~procedures ~slots);
                  Float paper_lo; Float paper_hi ] )
  in
  let rows =
    List.map row
      [ ("SPLASH-2-sized", 370, sci_mix, 4.0, 7.3); ("Oracle-sized", 12000, db_mix, 202.0, 202.0) ]
  in
  [ { Sim.Stats.title = "Section 6.3: modelled code modification time"; rows;
      columns = [ "binary"; "procedures"; "slots"; "modelled_s"; "paper_min_s"; "paper_max_s" ] } ]

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
  let base_opts = Rewrite.Instrument.default_options in
  let no_flag = { base_opts with Rewrite.Instrument.flag_loads = false } in
  let no_batch = { base_opts with Rewrite.Instrument.batching = false } in
  let no_flag_no_batch = { no_flag with Rewrite.Instrument.batching = false } in
  (* Batching: a 17-line remote row fetched batched vs serial. *)
  let batch_vs_serial batched () =
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
  (* Direct downgrade: the paper could not even measure the runs without
     it; we can.  A negative elapsed means the timed region never
     completed before the 600-simulated-second cutoff: no time. *)
  let dd on () =
    let cfg = W.cluster_config ~direct_downgrade:on () in
    let placement = W.placement_extra_proc ~servers:2 in
    let t = (W.run_dss ~cfg ~placement ~query:W.Dss1 ()).W.elapsed in
    if t <= 0.0 then nan else t
  in
  (* Home placement (Ocean homes each processor's rows at its domain, so
     a neighbour's boundary fetch is a two-hop miss at the owner instead
     of a recall through a third-party home). *)
  let place app on () =
    let cl = cluster () in
    fst (Apps.Harness.run_spec ~home_placement:on cl app ~nprocs:8 ~sync:Apps.Harness.Mp ())
  in
  (* Coherence granularity: one application across line sizes. *)
  let line_sweep line () =
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
  (* SC vs RC and Base vs SMP on one kernel. *)
  let variant_run ~variant ~model () =
    let cl = cluster ~variant ~model () in
    fst (Apps.Harness.run_spec cl Apps.Lu.spec ~nprocs:8 ~sync:Apps.Harness.Mp ())
  in
  (* With batching disabled, every load keeps its individual check: the
     flag technique's 3-slot inline check vs a per-load protocol entry. *)
  let runs =
    [
      ("streaming reads (12.8k loads, locally valid): flag+batch",
       fun () -> ir_stream_run ~options:base_opts);
      ("streaming reads: flag only", fun () -> ir_stream_run ~options:no_batch);
      ("streaming reads: state-table checks", fun () -> ir_stream_run ~options:no_flag_no_batch);
      ("IR lock kernel, 4 procs: flag", fun () -> ir_lock_run ~options:base_opts);
      ("IR lock kernel, 4 procs: no-flag", fun () -> ir_lock_run ~options:no_flag);
      ("17-line remote fetch: batched", batch_vs_serial true);
      ("17-line remote fetch: serial", batch_vs_serial false);
      ("direct downgrade (DSS-1, 2 servers): on", dd true);
      ("direct downgrade (DSS-1, 2 servers): off", dd false);
      ("home placement (Ocean, 8 procs): on", place Apps.Ocean.spec true);
      ("home placement (Ocean, 8 procs): off", place Apps.Ocean.spec false);
      ("home placement (FMM, 8 procs): on", place Apps.Fmm.spec true);
      ("home placement (FMM, 8 procs): off", place Apps.Fmm.spec false);
      ("line size (Ocean, 8 procs): 32 B", line_sweep 32);
      ("line size (Ocean, 8 procs): 64 B", line_sweep 64);
      ("line size (Ocean, 8 procs): 128 B", line_sweep 128);
      ("line size (Ocean, 8 procs): 256 B", line_sweep 256);
      ("LU, 8 procs: SMP/RC", variant_run ~variant:Protocol.Config.Smp ~model:Protocol.Config.Rc);
      ("LU, 8 procs: SMP/SC", variant_run ~variant:Protocol.Config.Smp ~model:Protocol.Config.Sc);
      ("LU, 8 procs: Base/RC", variant_run ~variant:Protocol.Config.Base ~model:Protocol.Config.Rc);
    ]
  in
  let time_rows = List.map (fun (name, run) -> (name, [ Sim.Stats.Float (1e3 *. run ()) ])) runs in
  let growth (name, options) =
    let _, st = Rewrite.Instrument.instrument ~options (skeleton ~procedures:24 ~mix:sci_mix) in
    (name, [ Sim.Stats.Float (100.0 *. Rewrite.Instrument.code_growth st) ])
  in
  let growth_rows =
    List.map growth
      [ ("default", base_opts); ("no-batch", no_batch); ("no-flag-no-batch", no_flag_no_batch) ]
  in
  [ { Sim.Stats.title = "Ablations: simulated time (nan: never completes)"; rows = time_rows;
      columns = [ "ablation"; "elapsed_ms" ] };
    { Sim.Stats.title = "Ablations: code growth"; rows = growth_rows;
      columns = [ "instrumentation"; "growth_pct" ] } ]
