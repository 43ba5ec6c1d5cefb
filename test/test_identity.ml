(* Fifo bit-identity regression for the event core.

   The simulator's verification story rests on the [Fifo] schedule being
   exactly reproducible: every perf change to the heap, the dispatcher,
   or the protocol fast paths must leave sequential runs bit-identical.
   The goldens under [goldens/] record the exact Fifo outputs — raised
   to full float-bit precision, which the benches' rounded tables would
   hide — of five slices of the evaluation, each with its engine
   event count:

   - a Table-1 slice: cached lock-acquire latency, MP and both SM
     flavours;
   - a Figure-3 slice: LU and Water-Nsq elapsed times at 1 and 4
     processors under both synchronisation flavours;
   - the IR corpus: per-kernel interpreter step counts, check-slot
     counts, [r0] checksums and a digest of the final shared image;
   - homing: the mdb-sync kernel on 4 nodes under Static and Migratory
     homes — elapsed time, home transfers, per-thread [r0]s and the hot
     region's coherence counters;
   - work: the IR corpus at 100x its default iterations and the sync
     kernels on 4x2, where long CPU work dominates — elapsed time and
     per-process work and message-service time bits;
   - serve: minidb behind [Load.Serve] at an overloaded 40k req/s for
     30 ms, where idle server workers spin-wait beside runnable
     competitors and the CPU quantum timer decides who runs — elapsed
     time, offered/completed/shed counts and p50/p99 bits.

   A second golden, [rewrite_identity.txt], pins the static side: what
   the rewriter and its analyses ([Instrument], [Verify], [Races],
   [Affinity], [Batch]) say about every IR-corpus and sync kernel.

   Any engine change that perturbs event order, simulated timing, or
   interpreter behaviour shows up as a byte diff against the golden.
   After auditing an intentional behaviour change, regenerate with

     SHASTA_UPDATE_GOLDENS=$PWD/test/goldens \
       dune exec test/test_main.exe -- test identity

   and commit the new golden alongside the change that explains it. *)

module C = Shasta.Cluster
module R = Shasta.Runtime

let cluster ?(nodes = 4) ?(cpus = 4) ?(parallel = 1) ?(schedule = Sim.Engine.Fifo) () =
  C.create
    {
      Shasta.Config.default with
      Shasta.Config.net =
        { Mchan.Net.default_config with Mchan.Net.nodes; cpus_per_node = cpus };
      parallel;
      schedule;
      protocol =
        { Protocol.Config.default with Protocol.Config.shared_size = 8 * 1024 * 1024 };
    }

(* Exact float rendering: decimal for the reader, bits for the byte
   diff (two floats can share a %.6f rendering and still differ). *)
let exact x = Printf.sprintf "%.6f (bits %016Lx)" x (Int64.bits_of_float x)

(* --- Table 1 slice: cached lock acquire ----------------------------- *)

type lock_kind = Mp_lock | Sm_lock | Sm_prefetch

let lock_cached kind =
  let cl = cluster ~nodes:1 ~cpus:1 () in
  let addr = C.alloc cl 64 in
  let acq = ref 0.0 in
  let iters = 50 in
  let _ =
    C.spawn cl ~cpu:0 "locker" (fun h ->
        for _ = 1 to iters do
          let t0 = C.now cl in
          (match kind with
          | Mp_lock -> R.lock h 0
          | Sm_lock -> R.sm_lock h addr
          | Sm_prefetch -> R.sm_lock ~prefetch:true h addr);
          R.flush h;
          acq := !acq +. (C.now cl -. t0);
          match kind with Mp_lock -> R.unlock h 0 | Sm_lock | Sm_prefetch -> R.sm_unlock h addr
        done)
  in
  ignore (C.run cl);
  (!acq /. float_of_int iters, Sim.Engine.events_fired (C.sim cl))

let render_table1 buf =
  List.iter
    (fun (name, kind) ->
      let acq, events = lock_cached kind in
      Buffer.add_string buf
        (Printf.sprintf "table1-cached %-5s %s events=%d\n" name (exact (1e6 *. acq)) events))
    [ ("MP", Mp_lock); ("SM", Sm_lock); ("SM+pf", Sm_prefetch) ]

(* --- Figure 3 slice: LU and Water-Nsq elapsed times ------------------ *)

let fig3_apps = [ "LU"; "Water-Nsq" ]
let fig3_procs = [ 1; 4 ]

let render_figure3 buf =
  List.iter
    (fun app ->
      let spec = Apps.Registry.find app in
      List.iter
        (fun (sname, sync) ->
          List.iter
            (fun nprocs ->
              let cl = cluster () in
              let elapsed, ok = Apps.Harness.run_spec cl spec ~nprocs ~sync () in
              Buffer.add_string buf
                (Printf.sprintf "figure3 %-10s %s@%d elapsed=%s ok=%b events=%d\n" app sname
                   nprocs (exact elapsed) ok
                   (Sim.Engine.events_fired (C.sim cl))))
            fig3_procs)
        [ ("Mp", Apps.Harness.Mp); ("Sm", Apps.Harness.Sm) ])
    fig3_apps

(* --- IR corpus: interpreter fingerprints ----------------------------- *)

(* FNV-style fold over the final shared image; one wrong word anywhere
   changes the digest. *)
let image_digest image =
  Array.fold_left
    (fun acc w -> Int64.add (Int64.mul acc 0x100000001b3L) w)
    0xcbf29ce484222325L image

let render_ircorpus buf =
  List.iter
    (fun (e : Apps.Ircorpus.entry) ->
      let prog, _ =
        Rewrite.Instrument.instrument ~options:Rewrite.Instrument.default_options
          e.Apps.Ircorpus.e_program
      in
      let r = Apps.Ircorpus.run prog e in
      Buffer.add_string buf
        (Printf.sprintf
           "ircorpus %-12s steps=%d slots=%d r0=%016Lx image=%016Lx elapsed=%s events=%d\n"
           e.Apps.Ircorpus.e_name r.Apps.Ircorpus.steps r.Apps.Ircorpus.check_slots
           r.Apps.Ircorpus.r0
           (image_digest r.Apps.Ircorpus.image)
           (exact r.Apps.Ircorpus.elapsed) r.Apps.Ircorpus.events))
    Apps.Ircorpus.all

(* --- Homing: mdb-sync under each home-placement policy --------------- *)

(* The migratory record of the mdb-sync kernel, set up the way the
   affinity-lint bench runs it (4 nodes, migration threshold 1, a 64B
   hot region over a 1KiB bulk region), so that home transfers, bounces
   and the transfer-driven grant paths are pinned as well as Static. *)
let render_homing buf =
  let e = Apps.Ircorpus.find_sync "mdb-sync" in
  let prog = fst (Rewrite.Instrument.instrument e.Apps.Ircorpus.e_program) in
  let regions =
    [
      { Protocol.Layout.rs_name = "hot"; rs_size = 64 * 1024; rs_block = 64 };
      { Protocol.Layout.rs_name = "bulk"; rs_size = (1 lsl 20) - (64 * 1024); rs_block = 1024 };
    ]
  in
  List.iter
    (fun (name, homing) ->
      let r =
        Apps.Ircorpus.run_spmd ~nodes:4 ~cpus_per_node:2 ~nprocs:8 ~iters:50 ~regions ~homing
          ~migration_threshold:1 prog e
      in
      let hot = List.assoc "hot" r.Apps.Ircorpus.s_regions in
      Buffer.add_string buf
        (Printf.sprintf
           "homing %-11s elapsed=%s events=%d migrations=%d r0s=%s hot: rd=%d st=%d inv=%d \
            rec=%d bytes=%d\n"
           name
           (exact r.Apps.Ircorpus.s_elapsed)
           r.Apps.Ircorpus.s_events
           r.Apps.Ircorpus.s_migrations
           (String.concat ","
              (Array.to_list (Array.map (Printf.sprintf "%Lx") r.Apps.Ircorpus.s_r0s)))
           hot.Protocol.Engine.r_read_misses hot.Protocol.Engine.r_store_misses
           hot.Protocol.Engine.r_invals hot.Protocol.Engine.r_recalls
           hot.Protocol.Engine.r_data_bytes))
    [
      ("static", Protocol.Config.Static);
      ("migratory", Protocol.Config.Migratory);
    ]

(* --- Work: long CPU slices between polls ------------------------------ *)

(* The corpus lines above run a few hundred interpreter steps each; here
   the same kernels run 100x longer and the sync kernels run on eight
   processes, so most events are the CPU scheduler's work slices and the
   polls between them.  Per-process work and message-service times are
   recorded as bits. *)
let proc_time_bits times =
  String.concat ","
    (Array.to_list
       (Array.map
          (fun (w, m) ->
            Printf.sprintf "%Lx/%Lx" (Int64.bits_of_float w) (Int64.bits_of_float m))
          times))

let render_work buf =
  List.iter
    (fun (e : Apps.Ircorpus.entry) ->
      let prog, _ =
        Rewrite.Instrument.instrument ~options:Rewrite.Instrument.default_options
          e.Apps.Ircorpus.e_program
      in
      let r = Apps.Ircorpus.run ~iters:(100 * e.Apps.Ircorpus.e_iters) prog e in
      Buffer.add_string buf
        (Printf.sprintf "work %-12s x100 elapsed=%s events=%d procs=%s\n" e.Apps.Ircorpus.e_name
           (exact r.Apps.Ircorpus.elapsed) r.Apps.Ircorpus.events
           (proc_time_bits r.Apps.Ircorpus.proc_times)))
    Apps.Ircorpus.all;
  List.iter
    (fun (e : Apps.Ircorpus.entry) ->
      let prog = fst (Rewrite.Instrument.instrument e.Apps.Ircorpus.e_program) in
      let r = Apps.Ircorpus.run_spmd ~nodes:4 ~cpus_per_node:2 ~nprocs:8 prog e in
      Buffer.add_string buf
        (Printf.sprintf "work %-12s 4x2 elapsed=%s events=%d procs=%s\n" e.Apps.Ircorpus.e_name
           (exact r.Apps.Ircorpus.s_elapsed) r.Apps.Ircorpus.s_events
           (proc_time_bits r.Apps.Ircorpus.s_proc_times)))
    Apps.Ircorpus.sync

(* --- Serve: an overloaded open-loop run -------------------------------- *)

let render_serve buf =
  let rate = 40_000.0 in
  let o =
    Load.Serve.run
      {
        Load.Serve.default_config with
        Load.Serve.seed = 42;
        arrival = Load.Arrival.Poisson { rate };
        duration = 0.03;
      }
  in
  let rc = o.Load.Serve.recorder in
  Buffer.add_string buf
    (Printf.sprintf
       "serve poisson:%.0f elapsed=%s offered=%d completed=%d shed=%d p50=%Lx p99=%Lx ok=%b \
        events=%d\n"
       rate (exact o.Load.Serve.elapsed) rc.Load.Recorder.offered rc.Load.Recorder.completed
       rc.Load.Recorder.shed
       (Int64.bits_of_float (Load.Recorder.percentile rc 50.0))
       (Int64.bits_of_float (Load.Recorder.percentile rc 99.0))
       (o.Load.Serve.ok && o.Load.Serve.drained)
       (Sim.Engine.events_fired (C.sim o.Load.Serve.cluster)))

let render () =
  let buf = Buffer.create 4096 in
  render_table1 buf;
  render_figure3 buf;
  render_ircorpus buf;
  render_homing buf;
  render_work buf;
  render_serve buf;
  Buffer.contents buf

(* --- Rewrite: the static analyses over the IR corpus ------------------ *)

(* Every instruction of every procedure, batch entries and literals
   included, folded into one hex digest. *)
let program_digest prog =
  let code =
    List.map
      (fun (p : Alpha.Program.procedure) -> (p.Alpha.Program.name, p.Alpha.Program.code))
      (Alpha.Program.procedures prog)
  in
  Digest.to_hex (Digest.string (Marshal.to_string code [ Marshal.No_sharing ]))

let stats_line (s : Rewrite.Instrument.stats) =
  let open Rewrite.Instrument in
  Printf.sprintf
    "procs=%d slots=%d->%d ld=%d st=%d priv=%d batches=%d/%d polls=%d mb=%d llsc=%d pf=%d \
     gran=%d elim=%d hoist=%d"
    s.procedures s.orig_slots s.new_slots s.loads_checked s.stores_checked s.accesses_private
    s.batches s.batched_accesses s.polls_inserted s.mb_checks_inserted s.llsc_pairs s.prefetches
    s.gran_lookups s.checks_eliminated s.checks_hoisted

(* The reference layout of [shasta_instrument --affinity]. *)
let affinity_bindings =
  [
    { Rewrite.Affinity.bd_arg = 0; bd_region = "hot"; bd_block = 512; bd_size = 64 * 1024 };
    { Rewrite.Affinity.bd_arg = 1; bd_region = "bulk"; bd_block = 512; bd_size = 64 * 1024 };
  ]

(* One affinity hint on one line. *)
let pp_hint ppf (h : Rewrite.Affinity.hint) =
  let open Rewrite.Affinity in
  Format.fprintf ppf "%-10s a%d block %4d -> %4d  %-13s %dr/%dw stride %d%s%s" h.h_region
    h.h_arg h.h_block h.h_suggest (kind_name h.h_kind) h.h_reads h.h_writes h.h_stride
    (if h.h_locked_writes > 0 then Printf.sprintf " (%d locked)" h.h_locked_writes else "")
    (match h.h_homing with None -> "" | Some hm -> " homing=" ^ homing_name hm)

let render_races buf ~nprocs prog =
  let r = Rewrite.Races.analyze ~nprocs prog in
  Buffer.add_string buf
    (Printf.sprintf "  races@%d atoms=%d unresolved=%d races=%d\n" nprocs
       (List.length r.Rewrite.Races.rep_atoms)
       r.Rewrite.Races.rep_unresolved
       (List.length r.Rewrite.Races.rep_races));
  List.iter
    (fun rc -> Buffer.add_string buf (Format.asprintf "    @[<v>%a@]\n" Rewrite.Races.pp_race rc))
    r.Rewrite.Races.rep_races;
  r

(* Per kernel: the instrumented program and its stats under default and
   redundant-elimination options, the validator's diagnostic count and
   the batch validator's violation count on each, the race detector's
   counts at the thread counts [shasta_instrument --races] uses (1 for
   the single-process corpus, 4 for the sync corpus) and the affinity
   hints.  Every seeded instrumenter mutation of a corpus kernel is
   validated (how many sites the validator convicts, and the first
   site's diagnostics), and every seeded sync mutation of a sync kernel
   is raced, so that printed races — where the detector's widening
   order shows — are pinned too. *)
let render_rewrite () =
  let buf = Buffer.create 4096 in
  let kernel ~nprocs (e : Apps.Ircorpus.entry) =
    let name = e.Apps.Ircorpus.e_name and prog = e.Apps.Ircorpus.e_program in
    Buffer.add_string buf
      (Printf.sprintf "rewrite %s raw batch=%d\n" name
         (List.length (Rewrite.Batch.validate_program prog)));
    List.iter
      (fun (oname, options) ->
        let p, stats = Rewrite.Instrument.instrument ~options prog in
        Buffer.add_string buf
          (Printf.sprintf "  %s digest=%s verify=%d batch=%d %s\n" oname (program_digest p)
             (List.length (Rewrite.Verify.diags (Rewrite.Verify.verify p)))
             (List.length (Rewrite.Batch.validate_program p))
             (stats_line stats)))
      [
        ("default", Rewrite.Instrument.default_options);
        ("rce", { Rewrite.Instrument.default_options with Rewrite.Instrument.redundant_elim = true });
      ];
    let r = render_races buf ~nprocs prog in
    List.iter
      (fun h -> Buffer.add_string buf (Format.asprintf "  hint %a\n" pp_hint h))
      (Rewrite.Affinity.report ~bindings:affinity_bindings r)
  in
  List.iter (kernel ~nprocs:1) Apps.Ircorpus.all;
  List.iter (kernel ~nprocs:4) Apps.Ircorpus.sync;
  List.iter
    (fun (e : Apps.Ircorpus.entry) ->
      let inst = fst (Rewrite.Instrument.instrument e.Apps.Ircorpus.e_program) in
      List.iter
        (fun (m, label) ->
          let _, _, nsites = Check.Mutation.apply_imutation m ~site:(-1) inst in
          let diags site =
            let prog, _, _ = Check.Mutation.apply_imutation m ~site inst in
            Rewrite.Verify.diags (Rewrite.Verify.verify prog)
          in
          let convicted = List.length (List.filter (fun s -> diags s <> []) (List.init nsites Fun.id)) in
          Buffer.add_string buf
            (Printf.sprintf "imutant %s %s sites=%d convicted=%d\n" e.Apps.Ircorpus.e_name label
               nsites convicted);
          if nsites > 0 then
            List.iter
              (fun d -> Buffer.add_string buf (Format.asprintf "  %a\n" Rewrite.Verify.pp_diag d))
              (diags 0))
        Check.Mutation.all_imutations)
    Apps.Ircorpus.all;
  List.iter
    (fun (e : Apps.Ircorpus.entry) ->
      List.iter
        (fun (m, label) ->
          let _, _, nsites = Check.Mutation.apply_smutation m ~site:(-1) e.Apps.Ircorpus.e_program in
          for site = 0 to nsites - 1 do
            let prog, _, _ = Check.Mutation.apply_smutation m ~site e.Apps.Ircorpus.e_program in
            Buffer.add_string buf
              (Printf.sprintf "mutant %s %s site %d\n" e.Apps.Ircorpus.e_name label site);
            ignore (render_races buf ~nprocs:4 prog)
          done)
        Check.Mutation.all_smutations)
    Apps.Ircorpus.sync;
  Buffer.contents buf

(* dune runtest runs in _build/default/test (where the deps glob put the
   goldens); dune exec runs from the workspace root. *)
let check_golden file ~what got =
  let golden = Filename.concat "goldens" file in
  let golden = if Sys.file_exists golden then golden else Filename.concat "test/goldens" file in
  match Sys.getenv_opt "SHASTA_UPDATE_GOLDENS" with
  | Some dir ->
      let path = Filename.concat dir file in
      Out_channel.with_open_bin path (fun oc -> output_string oc got);
      Printf.printf "wrote %s\n" path
  | None ->
      let want = In_channel.with_open_bin golden In_channel.input_all in
      Alcotest.(check string) (what ^ " matches committed golden byte-for-byte") want got

let test_fifo_identity () = check_golden "fifo_identity.txt" ~what:"Fifo output" (render ())

let test_rewrite_identity () =
  check_golden "rewrite_identity.txt" ~what:"Rewrite analyses" (render_rewrite ())

(* --- Parallel cross-validation --------------------------------------- *)

(* The conservative parallel driver must cross-validate against the
   sequential Fifo engine: every run validates and the protocol sweeps
   clean afterwards.  Elapsed time is near- but not bit-identical to
   sequential — a cross-lane event merged at a window barrier receives a
   fresh sequence number, so a same-time local/cross pair on one lane
   can fire in the opposite order from the sequential global numbering.
   That is a permutation of causally-concurrent events (the same class
   a seeded [Guided] schedule explores), so we bound the drift tightly instead
   of requiring equality.  The merge order itself is deterministic in
   [(time, src lane, src seq)] and independent of how lanes are dealt to
   workers, so parallel runs at different domain counts must agree
   bit-for-bit with each other. *)
let par_run app ~parallel =
  let spec = Apps.Registry.find app in
  let cl = cluster ~nodes:4 ~cpus:1 ~parallel () in
  let elapsed, ok = Apps.Harness.run_spec cl spec ~nprocs:4 ~sync:Apps.Harness.Mp () in
  let quiescent = Protocol.Engine.check_quiescent (C.protocol_engine cl) in
  (elapsed, ok, quiescent)

let test_parallel_cross_validation () =
  List.iter
    (fun app ->
      let seq_elapsed, seq_ok, _ = par_run app ~parallel:1 in
      Alcotest.(check bool) (app ^ " sequential validated") true seq_ok;
      let par_elapsed =
        List.map
          (fun parallel ->
            let elapsed, ok, quiescent = par_run app ~parallel in
            Alcotest.(check bool) (Printf.sprintf "%s par%d validated" app parallel) true ok;
            Alcotest.(check (list string))
              (Printf.sprintf "%s par%d quiescent" app parallel)
              [] quiescent;
            Alcotest.(check bool)
              (Printf.sprintf "%s par%d elapsed within 1e-3 of sequential" app parallel)
              true
              (abs_float (elapsed -. seq_elapsed) /. seq_elapsed < 1e-3);
            elapsed)
          [ 2; 4 ]
      in
      match par_elapsed with
      | [ e2; e4 ] ->
          Alcotest.(check int64)
            (app ^ " par2 and par4 bit-identical")
            (Int64.bits_of_float e2) (Int64.bits_of_float e4)
      | _ -> assert false)
    fig3_apps

(* --- Inline work slices vs the heap ---------------------------------- *)

(* [Fifo] fires a process's next work-slice event inline when it would
   pop next anyway; a [Guided] chooser that always picks the first tie
   is the same order but never inlines.  The two must agree exactly:
   clock, event count and pending events, at the end of a run and when
   a run is stopped part-way by its deadline or its event budget. *)
let first_tie = Sim.Engine.Guided { choose = (fun _ -> 0); jitter = None }

let snapshot cl =
  let eng = C.sim cl in
  ( Int64.bits_of_float (C.now cl),
    Sim.Engine.events_fired eng,
    eng.Sim.Engine.heap.Sim.Engine.q_size + eng.Sim.Engine.instant.Sim.Engine.r_len )

let staged app schedule stop =
  let cl = cluster ~schedule () in
  let finish =
    Apps.Harness.start cl (Apps.Registry.find app) ~nprocs:16 ~sync:Apps.Harness.Mp ()
  in
  (match stop with
  | `Until t -> ignore (C.run ~until:t cl)
  | `Events n ->
      C.init cl;
      ignore (Sim.Engine.run ~max_events:n (C.sim cl))
  | `End -> ());
  let mid = snapshot cl in
  let _, ok = finish () in
  Alcotest.(check bool) (app ^ " validated") true ok;
  (mid, snapshot cl)

let snap = Alcotest.(triple int64 int int)

let test_inline_matches_heap () =
  List.iter
    (fun app ->
      let _, ((bits, events, _) as full) = staged app Sim.Engine.Fifo `End in
      Alcotest.(check snap) (app ^ ": same end") full (snd (staged app first_tie `End));
      List.iter
        (fun stop ->
          let fifo_mid, fifo_end = staged app Sim.Engine.Fifo stop in
          let guided_mid, guided_end = staged app first_tie stop in
          Alcotest.(check snap) (app ^ ": stopped alike") guided_mid fifo_mid;
          Alcotest.(check snap) (app ^ ": resumed to the same end") full fifo_end;
          Alcotest.(check snap) (app ^ ": resumed to the same end under Guided") full guided_end)
        [ `Until (Int64.float_of_bits bits /. 2.0); `Events (events / 2) ])
    [ "LU"; "Water-Nsq"; "Ocean"; "Barnes" ]

(* A [Guided] chooser is consulted on every fire, so it must see the
   work-slice events that [Fifo] fires inline: on single-process LU,
   where 91% of the events fire inline under [Fifo], it is called once
   per fired event, and as many events fire as under [Fifo]. *)
let test_guided_sees_every_event () =
  let calls = ref 0 in
  let counting =
    Sim.Engine.Guided
      {
        choose =
          (fun _ ->
            incr calls;
            0);
        jitter = None;
      }
  in
  let events schedule =
    let cl = cluster ~nodes:1 ~cpus:1 ~schedule () in
    let _, ok =
      Apps.Harness.run_spec cl (Apps.Registry.find "LU") ~nprocs:1 ~sync:Apps.Harness.Mp ()
    in
    Alcotest.(check bool) "validated" true ok;
    Sim.Engine.events_fired (C.sim cl)
  in
  let fifo = events Sim.Engine.Fifo in
  let guided = events counting in
  Alcotest.(check int) "chooser called once per fired event" guided !calls;
  Alcotest.(check int) "as many events as Fifo" fifo guided

let suite =
  [
    Alcotest.test_case "Fifo bit-identity vs golden" `Slow test_fifo_identity;
    Alcotest.test_case "rewrite analyses vs golden" `Quick test_rewrite_identity;
    Alcotest.test_case "parallel agrees with sequential" `Slow test_parallel_cross_validation;
    Alcotest.test_case "inline slices agree with the heap" `Slow test_inline_matches_heap;
    Alcotest.test_case "Guided sees every event" `Slow test_guided_sees_every_event;
  ]
