(* Simulator throughput trajectory (ROADMAP "raw speed"): events per
   host second on fixed-configuration runs of the scale apps, the same
   measurement as BENCH_scale.json's points (wall clock around
   [Apps.Harness.run_spec], so the two files are directly comparable),
   plus interpreter steps/sec over the IR corpus and the conservative
   parallel mode at 2 and 4 domains on a 16-node run.

   Results land in BENCH_speed.json; [run_speed_smoke] is the CI
   regression gate — it fails the build if single-threaded events/sec on
   the LU and Water-Nsq smokes, completed requests per host second on a
   short serving run, API-mode hit accesses per host second, or
   interpreter steps per host second drops below a floor derived from a
   recorded baseline. *)

module C = Shasta.Cluster
module R = Shasta.Runtime
module E = Protocol.Engine
module J = Load.Json

type point = {
  s_name : string;
  s_procs : int;
  s_nodes : int;
  s_domains : int;
  s_elapsed : float;  (** simulated seconds *)
  s_events : int;
  s_wall : float;  (** host seconds around run_spec *)
  s_ok : bool;
  s_gc : Sim.Stats.gc_delta;
}

let events_per_sec p = float_of_int p.s_events /. Float.max 1e-9 p.s_wall

(* The points as one table: printed, and the [points] of the JSON file. *)
let table ~title points =
  let row p =
    let g = p.s_gc in
    ( p.s_name,
      Sim.Stats.(
        ints [ p.s_procs; p.s_nodes; p.s_domains ]
        @ [ Float (1e3 *. p.s_elapsed); Int p.s_events; Float (events_per_sec p); Float p.s_wall ]
        @ ints
            [ int_of_float g.gc_minor_words; int_of_float g.gc_major_words;
              g.gc_minor_collections; g.gc_major_collections; g.gc_compactions ]
        @ [ Str (string_of_bool p.s_ok) ]) )
  in
  {
    Sim.Stats.title;
    columns =
      [ "name"; "procs"; "nodes"; "domains"; "elapsed_ms"; "events"; "events_per_s"; "wall_s";
        "minor_words"; "major_words"; "minor_gcs"; "major_gcs"; "compactions"; "validated" ];
    rows = List.map row points;
  }

(* One timed application run.  Parallel points run on one-cpu nodes (one
   event lane per node) and are swept for coherence after the run: the
   parallel mode must leave a quiescent, violation-free protocol state. *)
let run_app ?(name = "") ?(domains = 1) spec ~nprocs ~nodes ~cpus =
  let cl = Support.cluster ~nodes ~cpus ~parallel:domains () in
  let gc0 = Sim.Stats.gc_mark () in
  let t0 = Unix.gettimeofday () in
  let elapsed, ok = Apps.Harness.run_spec cl spec ~nprocs ~sync:Apps.Harness.Mp () in
  let wall = Unix.gettimeofday () -. t0 in
  let gc = Sim.Stats.gc_delta gc0 in
  let ok =
    ok
    &&
    if domains > 1 then (
      match E.check_quiescent (C.protocol_engine cl) with
      | [] -> true
      | errs ->
          List.iter (fun e -> Printf.eprintf "invariant: %s\n" e) errs;
          false)
    else true
  in
  {
    s_name =
      (if name <> "" then name
       else Printf.sprintf "%s@%d" spec.Apps.Harness.name nprocs);
    s_procs = nprocs;
    s_nodes = nodes;
    s_domains = domains;
    s_elapsed = elapsed;
    s_events = Sim.Engine.events_fired (C.sim cl);
    s_wall = wall;
    s_ok = ok;
    s_gc = gc;
  }

(* Interpreter throughput: every IR-corpus kernel, instrumented with the
   default options before the clock starts, then run single-process at
   [interp_scale] times its default iterations, so the timed region is
   interpretation, not the rewriter.  The point's "events" are
   interpreter steps, so events_per_sec is steps/sec; its elapsed time
   is the kernels' simulated time summed. *)
let interp_scale = 1000

let run_interp () =
  let corpus =
    List.map
      (fun (e : Apps.Ircorpus.entry) ->
        ( fst
            (Rewrite.Instrument.instrument ~options:Rewrite.Instrument.default_options
               e.Apps.Ircorpus.e_program),
          e ))
      Apps.Ircorpus.all
  in
  let gc0 = Sim.Stats.gc_mark () in
  let t0 = Unix.gettimeofday () in
  let steps, elapsed =
    List.fold_left
      (fun (steps, elapsed) (prog, (e : Apps.Ircorpus.entry)) ->
        let r = Apps.Ircorpus.run ~iters:(interp_scale * e.Apps.Ircorpus.e_iters) prog e in
        (steps + r.Apps.Ircorpus.steps, elapsed +. r.Apps.Ircorpus.elapsed))
      (0, 0.0) corpus
  in
  let wall = Unix.gettimeofday () -. t0 in
  {
    s_name = "ircorpus-interp";
    s_procs = 1;
    s_nodes = 1;
    s_domains = 1;
    s_elapsed = elapsed;
    s_events = steps;
    s_wall = wall;
    s_ok = true;
    s_gc = Sim.Stats.gc_delta gc0;
  }

(* A short overloaded serving run, shaped like perfbench's serve
   workload at its 40k req/s rate: minidb behind [Load.Serve], where
   idle server workers spin-wait beside runnable processes and the CPU
   quantum timer decides who runs.  The point's "events" are completed
   requests, so events_per_sec is requests per host second. *)
let run_serve () =
  let cfg =
    {
      Load.Serve.default_config with
      Load.Serve.seed = 42;
      arrival = Load.Arrival.Poisson { rate = 40_000.0 };
      duration = 0.1;
    }
  in
  let gc0 = Sim.Stats.gc_mark () in
  let t0 = Unix.gettimeofday () in
  let o = Load.Serve.run cfg in
  let wall = Unix.gettimeofday () -. t0 in
  {
    s_name = "serve@40k";
    s_procs = List.length cfg.Load.Serve.server_cpus;
    s_nodes = 2;
    s_domains = 1;
    s_elapsed = o.Load.Serve.elapsed;
    s_events = o.Load.Serve.recorder.Load.Recorder.completed;
    s_wall = wall;
    s_ok = o.Load.Serve.ok && o.Load.Serve.drained;
    s_gc = Sim.Stats.gc_delta gc0;
  }

(* The API-mode inline check on hits, shaped like perfbench's runtime
   probe: one process holds 1,024 words exclusive and runs
   [load64]+[store64] rounds over them.  Only the rounds are timed; the
   point's "events" are accesses, so events_per_sec is accesses per host
   second. *)
let run_api_hits () =
  let cl = Support.cluster ~nodes:1 ~cpus:1 () in
  let words = 1024 and rounds = 2000 in
  let base = C.alloc cl (8 * words) in
  let timed = ref None and ok = ref true in
  ignore
    (C.spawn cl ~cpu:0 "hits" (fun h ->
         for i = 0 to words - 1 do
           R.store64 h (base + (8 * i)) 0L
         done;
         let gc0 = Sim.Stats.gc_mark () in
         let t0 = Unix.gettimeofday () in
         for _ = 1 to rounds do
           for i = 0 to words - 1 do
             let a = base + (8 * i) in
             R.store64 h a (Int64.succ (R.load64 h a))
           done
         done;
         timed := Some (Unix.gettimeofday () -. t0, Sim.Stats.gc_delta gc0);
         for i = 0 to words - 1 do
           if R.load64 h (base + (8 * i)) <> Int64.of_int rounds then ok := false
         done));
  let elapsed = C.run cl in
  let wall, gc = Option.get !timed in
  {
    s_name = "api-hits@1";
    s_procs = 1;
    s_nodes = 1;
    s_domains = 1;
    s_elapsed = elapsed;
    s_events = 2 * words * rounds;
    s_wall = wall;
    s_ok = !ok;
    s_gc = gc;
  }

let emit ~file ~bench t = Support.emit ~file ~bench [ ("points", J.of_table t) ]

let find name points = List.find (fun p -> p.s_name = name) points

let run_speed () =
  let lu = Apps.Registry.find "LU" in
  let wnsq = Apps.Registry.find "Water-Nsq" in
  let seq_points =
    List.concat_map
      (fun spec ->
        List.map
          (fun nprocs ->
            let nodes, cpus = Support.shape nprocs in
            run_app spec ~nprocs ~nodes ~cpus)
          [ 1; 16 ])
      [ lu; wnsq ]
  in
  (* The parallel sweep: 16 one-cpu nodes = 16 event lanes, driven by 1,
     2 and 4 real domains.  On a multicore host the 2- and 4-domain
     points show the wall-clock win; on a single-core host (CI included)
     they bound the coordination overhead instead — either way the
     simulated results must validate and sweep clean. *)
  let par_points =
    List.map
      (fun domains ->
        run_app lu
          ~name:(Printf.sprintf "LU@16n-par%d" domains)
          ~domains ~nprocs:16 ~nodes:16 ~cpus:1)
      [ 1; 2; 4 ]
  in
  let interp = run_interp () in
  let points = seq_points @ par_points @ [ interp ] in
  let t = table ~title:"simulator throughput (events per host second)" points in
  Support.print t;
  (let p1 = find "LU@16n-par1" points
   and p4 = find "LU@16n-par4" points in
   Printf.printf "parallel 4-domain wall vs sequential: %.2fx (%d host cores)\n"
     (p1.s_wall /. Float.max 1e-9 p4.s_wall)
     (Domain.recommended_domain_count ()));
  List.iter
    (fun p ->
      if not p.s_ok then failwith ("speed: " ^ p.s_name ^ " failed validation"))
    points;
  emit ~file:"BENCH_speed.json" ~bench:"speed" t

(* CI regression floors: the committed BENCH_speed.json baseline
   (recorded on the 1-core container this repo grows in) measured the
   smoke shapes at ~0.9M (LU@4) and ~1.6M (Water-Nsq@4) events/sec
   after the flat-heap rewrite, roughly 2x the pre-rewrite engine.
   The floor is baseline/3 to absorb slower CI hosts; a regression that
   undoes the rewrite's win (a ~2x drop to pre-rewrite speed on the
   same host) still lands well under it.  LU@1 (baseline 0.98M) is one
   process on one CPU, where 91% of the events are that process's own
   work slices fired inline: its floor guards the single-process shape
   those inline fires serve.  serve@40k is floored on completed
   requests per host second, not events: how many events a request
   costs depends on how the scheduler's timers are counted.  Its
   baseline is ~15,500 on a shared 2-core host (EXPERIMENTS "Simulator
   throughput").  api-hits@1 is floored on accesses per host second:
   baseline ~120M on the same host (83M-156M over seven runs; the code
   before the module-local inline check read 40M-67M).  ircorpus-interp
   is floored on interpreter steps per host second: baseline ~75M on the
   same host (70.5M-80.9M over six runs), with each procedure decoded
   once per run, unchecked register access and in-place raw hits. *)
let smoke_floor =
  [
    ("LU@1", 327_000.0);
    ("LU@4", 300_000.0);
    ("Water-Nsq@4", 530_000.0);
    ("serve@40k", 5_100.0);
    ("api-hits@1", 40_000_000.0);
    ("ircorpus-interp", 25_000_000.0);
  ]

let run_speed_smoke () =
  let points =
    List.map
      (fun (app, nprocs) ->
        let spec = Apps.Registry.find app in
        let nodes, cpus = Support.shape nprocs in
        run_app spec ~nprocs ~nodes ~cpus)
      [ ("LU", 1); ("LU", 4); ("Water-Nsq", 4) ]
  in
  let serve = run_serve () in
  let hits = run_api_hits () in
  let interp = run_interp () in
  let points = points @ [ serve; hits; interp ] in
  let t = table ~title:"simulator throughput smoke (CI regression gate)" points in
  Support.print t;
  emit ~file:"BENCH_speed_smoke.json" ~bench:"speed_smoke" t;
  let failed = ref false in
  List.iter
    (fun (name, floor) ->
      let p = find name points in
      let eps = events_per_sec p in
      if (not p.s_ok) || eps < floor then begin
        Printf.eprintf "speed regression: %s at %.0f per host second (floor %.0f, ok=%b)\n"
          name eps floor p.s_ok;
        failed := true
      end)
    smoke_floor;
  if !failed then exit 1
