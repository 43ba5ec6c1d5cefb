(* The three workloads.  [start ~seed] does a workload's one-off
   preparation and returns its pass function.  A pass runs the whole
   workload once: it fills [sim] with simulated results and layer counts,
   which must repeat bit for bit under one seed, and returns (outputs
   checked, checks failed). *)

module C = Shasta.Cluster
module R = Shasta.Runtime
module H = Apps.Harness
module I = Apps.Ircorpus
module J = Load.Json
module M = Measure
module S = Load.Serve

type t = {
  name : string;
  params : (string * J.t) list;  (** workload parameters, for provenance *)
  start : seed:int -> M.recorder -> sim:M.counters -> int * int;
}

(* The seed permutes the order in which a run's processes are spawned;
   every process keeps its processor.  Spawn order assigns pids, hence the
   message-passing lock and barrier managers, and orders same-instant
   events, so each seed is a different valid execution of the same
   program. *)
let spawn_order ~seed n =
  let a = Array.init n Fun.id in
  Sim.Rng.shuffle (Sim.Rng.create seed) a;
  a

let cluster_config ?(shared = 1 lsl 20) ~nodes ~cpus () =
  {
    Shasta.Config.default with
    Shasta.Config.net = { Mchan.Net.default_config with Mchan.Net.nodes; cpus_per_node = cpus };
    protocol = { Protocol.Config.default with Protocol.Config.shared_size = shared };
  }

(* --- splash16 --- *)

let splash_nodes = 4
let splash_cpus = 4
let splash_procs = splash_nodes * splash_cpus

(* Figure 3's configuration: SMP-Shasta, release consistency, static
   homes with the apps' placement hints, the default shared segment. *)
let splash_config =
  cluster_config ~shared:Protocol.Config.default.Protocol.Config.shared_size ~nodes:splash_nodes
    ~cpus:splash_cpus ()

let run_app r ~sim ~order (spec : H.spec) =
  let name = spec.H.name in
  let cl = M.span r M.Setup "Cluster.create" (fun () -> C.create splash_config) in
  let t = H.create cl ~sync:H.Mp ~nprocs:splash_procs in
  let body, validate =
    M.span r M.Setup (name ^ ".make") (fun () -> spec.H.make t ~size:spec.H.default_size)
  in
  M.span r M.Setup "Cluster.spawn" (fun () ->
      Array.iter
        (fun p -> ignore (C.spawn cl ~cpu:p (Printf.sprintf "%s%d" name p) (fun h -> body p h)))
        order;
      C.init cl);
  let total = M.span r M.Run "Cluster.run" (fun () -> C.run cl) in
  let ok =
    M.span r M.Validate (name ^ ".validate") (fun () ->
        M.sample_live r;
        validate ())
  in
  (* As in Harness.run_spec: the paper times the parallel phase only. *)
  M.add sim ("sim_s." ^ name)
    (if t.H.parallel_start > 0.0 then total -. t.H.parallel_start else total);
  M.add_cluster sim cl;
  ok

let splash16 =
  {
    name = "splash16";
    params =
      [
        ("apps", J.List (List.map (fun (s : H.spec) -> J.Str s.H.name) Apps.Registry.all));
        ("procs", J.Int splash_procs);
        ("nodes", J.Int splash_nodes);
        ("cpus_per_node", J.Int splash_cpus);
        ("config", J.Str "SMP-Shasta, RC, message-passing sync, static homes, default sizes");
      ];
    start =
      (fun ~seed ->
        let order = spawn_order ~seed splash_procs in
        fun r ~sim ->
          List.fold_left
            (fun (checked, failed) spec ->
              let ok = run_app r ~sim ~order spec in
              (checked + 1, if ok then failed else failed + 1))
            (0, 0) Apps.Registry.all);
  }

(* --- serve --- *)

type rate = { tag : string; rps : float; overload : bool }

(* About 35% and 75% of the ~22k req/s capacity, and 1.8x past it. *)
let serve_rates =
  [
    { tag = "8k"; rps = 8_000.0; overload = false };
    { tag = "16k"; rps = 16_000.0; overload = false };
    { tag = "40k"; rps = 40_000.0; overload = true };
  ]

(* 0.2 s of offered load leaves at least 16 samples beyond p99 at 8k. *)
let serve_duration = 0.2

let serve =
  let base = S.default_config in
  {
    name = "serve";
    params =
      [
        ("rates_rps", J.List (List.map (fun q -> J.Float q.rps) serve_rates));
        ("duration_s", J.Float serve_duration);
        ("arrival", J.Str "poisson");
        ("clients", J.Int base.S.clients);
        ("window", J.Int base.S.window);
        ("servers", J.Int (List.length base.S.server_cpus));
        ("scan_share", J.Float base.S.scan_share);
        ("admission", J.Str (Load.Admission.to_spec base.S.admission));
      ];
    start =
      (fun ~seed ->
        let base = { base with S.seed; duration = serve_duration } in
        let cluster_cfg = S.cluster_config () in
        let slot_cpus =
          [ base.S.root_cpu; base.S.daemon_cpu; base.S.daemon_cpu; base.S.daemon_cpu ]
          @ base.S.server_cpus
        in
        fun r ~sim ->
          List.fold_left
            (fun (checked, failed) q ->
              (* Serve.run builds its own cluster inside; the same calls
                 are timed here on their own as this rate's set-up. *)
              M.span r M.Setup "Cluster.create+Kernel.boot" (fun () ->
                  ignore (Osim.Kernel.boot (C.create cluster_cfg) ~slot_cpus ()));
              let o =
                M.span r M.Run ("Serve.run " ^ q.tag) (fun () ->
                    S.run { base with S.arrival = Load.Arrival.Poisson { rate = q.rps } })
              in
              M.span r M.Validate ("Serve.check " ^ q.tag) (fun () ->
                  M.sample_live r;
                  let rc = o.S.recorder in
                  let key k = k ^ "." ^ q.tag in
                  M.add sim ("sim_s." ^ q.tag) o.S.elapsed;
                  M.add_cluster sim o.S.cluster;
                  List.iter
                    (fun (k, n) -> M.addi sim (key ("load." ^ k)) n)
                    Load.Recorder.
                      [
                        ("offered", rc.offered);
                        ("completed", rc.completed);
                        ("shed", rc.shed);
                        ("rejected", rc.rejected);
                        ("dropped", rc.dropped);
                        ("client_buffered", rc.client_buffered);
                        ("depth_max", rc.depth_max);
                      ];
                  M.add sim (key "p50_us") (1e6 *. Load.Recorder.percentile rc 50.0);
                  M.add sim (key "p99_us") (1e6 *. Load.Recorder.percentile rc 99.0);
                  M.add sim (key "goodput_rps") (Load.Recorder.goodput rc);
                  (* Refusing work is the designed answer to overload; below
                     capacity every request must complete. *)
                  let refused = Load.Recorder.(rc.rejected + rc.dropped + rc.shed) in
                  let bad =
                    (if o.S.ok && o.S.drained then 0 else 1) + if q.overload then 0 else refused
                  in
                  let requests = if q.overload then 0 else rc.Load.Recorder.offered in
                  (checked + 1 + requests, failed + bad)))
            (0, 0) serve_rates);
  }

(* --- binary --- *)

(* Iteration multipliers: at their default counts the corpus kernels run
   for microseconds.  Scaled, the interpreter dominates the pass and the
   SPMD kernels, which go through the protocol, stay a minority share. *)
let corpus_scale = 4000
let spmd_scale = 25
let spmd_nodes = 4
let spmd_cpus = 2
let spmd_threads = spmd_nodes * spmd_cpus

type kernel = {
  k_cluster : C.t;
  k_r0s : int64 array;  (** per thread *)
  mutable k_image : int64 array;  (** thread 0's view of the image words at exit *)
  mutable k_steps : int;
  mutable k_slots : int;
  mutable k_finished : int;
}

(* Spawn thread [tid] of [prog] on processor [tid], in [order], with
   argument registers [args tid]; thread 0 reads back [image_words] words
   from [image_base] when it finishes, as Ircorpus.run does. *)
let spawn_kernel cl ~order ~name ~image_base ~image_words ~args prog =
  let k =
    {
      k_cluster = cl;
      k_r0s = Array.make (Array.length order) 0L;
      k_image = [||];
      k_steps = 0;
      k_slots = 0;
      k_finished = 0;
    }
  in
  Array.iter
    (fun tid ->
      ignore
        (C.spawn cl ~cpu:tid (Printf.sprintf "%s.%d" name tid) (fun h ->
             let o =
               R.run_program h prog ~entry:"main" ~args:(List.map Int64.of_int (args tid)) ()
             in
             let st = o.Alpha.Interp.stats in
             k.k_r0s.(tid) <- o.Alpha.Interp.r0;
             k.k_steps <- k.k_steps + st.Alpha.Interp.steps;
             k.k_slots <- k.k_slots + st.Alpha.Interp.check_slots;
             k.k_finished <- k.k_finished + 1;
             if tid = 0 then
               k.k_image <-
                 Array.init image_words (fun i ->
                     Protocol.Engine.raw_read h.R.pcb (image_base + (8 * i)) Alpha.Insn.W64))))
    order;
  C.init cl;
  k

(** [corpus_kernel ~scale prog e] — corpus kernel [e] as [prog], laid out
    single-process as {!Apps.Ircorpus.run} does, at [scale] times its
    default iterations. *)
let corpus_kernel ~scale prog (e : I.entry) =
  let cl = C.create (cluster_config ~nodes:1 ~cpus:1 ()) in
  let arr = C.alloc cl (8 * e.I.e_mem_words) in
  let aux = C.alloc cl 64 in
  spawn_kernel cl ~order:[| 0 |] ~name:e.I.e_name ~image_base:arr ~image_words:e.I.e_mem_words
    ~args:(fun _ -> [ arr; aux; scale * e.I.e_iters ])
    prog

(* A sync-corpus kernel, one thread per processor, laid out as
   Ircorpus.run_spmd does. *)
let spmd_kernel ~order prog (e : I.entry) =
  let cl = C.create (cluster_config ~nodes:spmd_nodes ~cpus:spmd_cpus ()) in
  let hot = C.alloc ~granularity:64 cl (8 * e.I.e_mem_words) in
  let bulk = C.alloc ~granularity:64 cl ((8 * e.I.e_mem_words) + 64) in
  let n = Array.length order in
  spawn_kernel cl ~order ~name:e.I.e_name ~image_base:hot ~image_words:0
    ~args:(fun tid -> [ hot; bulk; spmd_scale * e.I.e_iters; tid; n ])
    prog

(* The sync kernels' closed-form per-thread results. *)
let spmd_oracle name ~nprocs ~iters =
  match name with
  | "fs-twin" -> Array.make nprocs (Int64.of_int (2081 + iters))
  | "stencil-sync" ->
      Array.init nprocs (fun tid ->
          if tid = nprocs - 1 then 0L else Int64.of_int (iters * (iters + 1) / 2))
  | "mdb-sync" -> Array.make nprocs (Int64.of_int (100 + (nprocs * iters)))
  | _ -> invalid_arg ("no oracle for sync kernel " ^ name)

let binary =
  {
    name = "binary";
    params =
      [
        ("corpus", J.List (List.map (fun (e : I.entry) -> J.Str e.I.e_name) I.all));
        ("corpus_iteration_scale", J.Int corpus_scale);
        ("spmd", J.List (List.map (fun (e : I.entry) -> J.Str e.I.e_name) I.sync));
        ("spmd_iteration_scale", J.Int spmd_scale);
        ("spmd_threads", J.Int spmd_threads);
        ("spmd_nodes", J.Int spmd_nodes);
        ("instrument", J.Str "Rewrite.Instrument.default_options");
      ];
    start =
      (fun ~seed ->
        let order = spawn_order ~seed spmd_threads in
        (* The uninstrumented corpus, run once: every instrumented pass
           must reproduce its r0 and image bit for bit. *)
        let reference =
          List.map
            (fun (e : I.entry) ->
              let k = corpus_kernel ~scale:corpus_scale e.I.e_program e in
              ignore (C.run k.k_cluster);
              (k.k_r0s.(0), k.k_image))
            I.all
        in
        fun r ~sim ->
          let instrument (e : I.entry) = fst (Rewrite.Instrument.instrument e.I.e_program) in
          let corpus, sync =
            M.span r M.Setup "Instrument.instrument" (fun () ->
                (List.map instrument I.all, List.map instrument I.sync))
          in
          let run (e : I.entry) k =
            M.add sim ("sim_s." ^ e.I.e_name)
              (M.span r M.Run "Cluster.run" (fun () -> C.run k.k_cluster));
            M.addi sim "interp.steps" k.k_steps;
            M.addi sim "interp.check_slots" k.k_slots;
            M.add_cluster sim k.k_cluster
          in
          let corpus_ok =
            List.map2
              (fun (e, prog) (r0, image) ->
                let k =
                  M.span r M.Setup "Cluster.create+spawn" (fun () ->
                      corpus_kernel ~scale:corpus_scale prog e)
                in
                run e k;
                M.span r M.Validate "compare with uninstrumented" (fun () ->
                    M.sample_live r;
                    k.k_finished = 1 && k.k_r0s.(0) = r0 && k.k_image = image))
              (List.combine I.all corpus) reference
          in
          let sync_ok =
            List.map2
              (fun (e : I.entry) prog ->
                let k =
                  M.span r M.Setup "Cluster.create+spawn" (fun () -> spmd_kernel ~order prog e)
                in
                run e k;
                M.span r M.Validate "check oracle r0s" (fun () ->
                    M.sample_live r;
                    k.k_finished = spmd_threads
                    && k.k_r0s
                       = spmd_oracle e.I.e_name ~nprocs:spmd_threads
                           ~iters:(spmd_scale * e.I.e_iters)))
              I.sync sync
          in
          let oks = corpus_ok @ sync_ok in
          (List.length oks, List.length (List.filter not oks)));
  }

let all = [ splash16; serve; binary ]
