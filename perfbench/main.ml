(* perfbench: one workload per invocation, every metric by name and unit.

     main.exe --workload splash16|serve|binary --seed N --seconds S --trace 0|1 [--commit ID]

   --trace 0 repeats the workload for S seconds and reports the end-to-end
   metrics.  --trace 1 alternates untraced and traced passes for S
   seconds, runs the layer probes, reports the per-layer metrics and
   writes the span log to .perfbench/.  The last line of standard output
   is the JSON result.  perfbench/README.md defines every metric. *)

module J = Load.Json
module M = Measure
module W = Workloads

type pass = {
  times : (M.phase * float) array;  (** each span's seconds at the reference speed, in order *)
  sim : M.counters;
  checked : int;
  failed : int;
  gc : Sim.Stats.gc_delta;
  traced : bool;
}

let total phase p =
  Array.fold_left (fun acc (ph, dt) -> if ph = phase then acc +. dt else acc) 0.0 p.times

let run_pass rc pass ~traced =
  rc.M.tracing <- traced;
  rc.M.times <- [];
  (* Every pass starts from the same heap, so no pass pays for collecting
     the garbage of the one before. *)
  Gc.full_major ();
  let sim = M.counters () in
  let gc0 = Sim.Stats.gc_mark () in
  let checked, failed = pass rc ~sim in
  let gc = Sim.Stats.gc_delta gc0 in
  { times = Array.of_list (List.rev rc.M.times); sim; checked; failed; gc; traced }

(* Passes until [seconds] have gone by, and at least [min_passes]; when
   tracing, every second pass is traced. *)
let run_passes rc pass ~seconds ~trace =
  let min_passes = if trace then 4 else 3 in
  let t_end = M.wall () +. seconds in
  let rec loop i acc =
    if i >= min_passes && M.wall () >= t_end then List.rev acc
    else begin
      (* The warm-up pass also samples the live heap; its full
         collections stay out of the timed passes. *)
      rc.M.sample_heap <- i = 0;
      loop (i + 1) (run_pass rc pass ~traced:(trace && i mod 2 = 1) :: acc)
    end
  in
  loop 0 []

(* Every pass under one seed, traced or not, must reproduce the first
   pass's simulated results and layer counts exactly. *)
let determinism = function
  | [] -> (0, 0)
  | first :: rest ->
      let expect = M.bindings first.sim in
      List.fold_left
        (fun (checked, failed) p ->
          if M.bindings p.sim = expect then (checked + 1, failed)
          else begin
            prerr_endline "perfbench: simulated results differ between passes of one seed";
            (checked + 1, failed + 1)
          end)
        (0, 0) rest

(* Host medians come from the untraced passes, less the first (warm-up)
   pass when at least two others remain. *)
let timed passes =
  match List.filter (fun p -> not p.traced) passes with
  | _ :: (_ :: _ :: _ as rest) -> rest
  | ps -> ps

let median_over ps f = M.median (List.map f ps)
let sim_value passes k = M.get (List.hd passes).sim k
let steps p = M.get p.sim "interp.steps" +. M.get p.sim "runtime.accesses"

(* [per_span ps phase] — the sum, over the spans of [phase], of each
   span's median time across [ps]; every pass makes the same spans in the
   same order.  A burst of host noise slows a span or two of one pass,
   which a per-span median drops where a median of pass totals may not. *)
let per_span ps phase =
  let a = Array.of_list ps in
  let sum = ref 0.0 in
  Array.iteri
    (fun i (ph, _) ->
      if ph = phase then
        sum := !sum +. M.median (Array.to_list (Array.map (fun p -> snd p.times.(i)) a)))
    a.(0).times;
  !sum

let end_to_end rc passes =
  let t = timed passes in
  let first = List.hd passes in
  let sims =
    List.filter_map
      (fun (k, v) -> if String.starts_with ~prefix:"sim_s." k then Some v else None)
      (M.bindings first.sim)
  in
  let wall = per_span t M.Run in
  [
    ("wall_s", "s", wall);
    ("events_per_s", "events/s", M.get first.sim "engine.events" /. wall);
    ("steps_per_s", "steps/s", steps first /. wall);
    ("setup_s", "s", per_span t M.Setup);
    ("heap_mb", "MB", rc.M.live_peak_mb);
    ("sim_ms", "sim-ms", 1000.0 *. M.geomean sims);
  ]

(* The serving figures a client sees; zero on the closed-loop workloads. *)
let serve_metrics passes =
  let c = sim_value passes in
  [
    ("p50_us.8k", "sim-us", c "p50_us.8k");
    ("p99_us.8k", "sim-us", c "p99_us.8k");
    ("p50_us.16k", "sim-us", c "p50_us.16k");
    ("p99_us.16k", "sim-us", c "p99_us.16k");
    ("goodput_rps.40k", "req/s", c "goodput_rps.40k");
  ]

type probes = {
  engine : float;
  interp : float;
  runtime : float;
  fetch : Probes.fetch;
  net : float;
  rewrite : Probes.rewrite;
  par : Probes.par;
}

(* Probe host times are put at the reference speed, as the passes' are. *)
let run_probes rc =
  let probe name f = M.scaled (fun () -> M.span rc M.Run ("probe " ^ name) f) in
  let ns name f =
    let v, k = probe name f in
    v *. k
  in
  let engine = ns "Sim.Engine" Probes.engine in
  let interp = ns "Alpha.Interp" Probes.interp in
  let runtime = ns "Shasta.Runtime" Probes.runtime in
  let fetch, kf = probe "Protocol.Engine" Probes.protocol in
  let net = ns "Mchan.Net" Probes.net in
  let rewrite, kr = probe "Rewrite.Instrument" Probes.rewrite in
  let par, _ = probe "Sim.Par" Probes.par in
  {
    engine;
    interp;
    runtime;
    fetch = { fetch with Probes.ns_per_miss = fetch.Probes.ns_per_miss *. kf };
    net;
    rewrite = { rewrite with Probes.instrument_s = rewrite.Probes.instrument_s *. kr };
    par;
  }

(* Section 6.1: fetching a 64-byte block two hops away takes about 20 us.
   It is the only simulated figure with a reference value. *)
let paper_fetch_us = 20.0

let per_layer passes pr ~failed_frac =
  let c = sim_value passes in
  let t = timed passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let wall = per_span t M.Run in
  let all p = Array.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 p.times in
  let misses = c "protocol.read_misses" +. c "protocol.store_misses" +. c "protocol.sc_misses" in
  let msgs = c "net.remote_msgs" +. c "net.local_msgs" in
  let busy = List.fold_left (fun acc k -> acc +. c ("time." ^ k ^ "_s")) 0.0 M.time_kinds in
  let share ns ops = 100.0 *. ns *. 1e-9 *. ops /. wall in
  let count k = (k, "count", c k) in
  let per_rate k =
    List.map (fun (q : W.rate) -> (k ^ "." ^ q.W.tag, "count", c (k ^ "." ^ q.W.tag))) W.serve_rates
  in
  let f = pr.fetch and par = pr.par in
  let events_2d = List.map float_of_int par.Probes.events_2d in
  List.concat
    [
      [
        count "engine.events";
        ("engine.ns_per_event", "ns", pr.engine);
        ("engine.share_pct", "%", share pr.engine (c "engine.events"));
        ( "gc.minor_words_per_event",
          "words/event",
          median_over t (fun p ->
              M.ratio p.gc.Sim.Stats.gc_minor_words (M.get p.sim "engine.events")) );
        ( "gc.major_collections",
          "count",
          median_over t (fun p -> float_of_int p.gc.Sim.Stats.gc_major_collections) );
        count "interp.steps";
        count "interp.check_slots";
        ("interp.check_share", "ratio", M.ratio (c "interp.check_slots") (c "interp.steps"));
        ("interp.ns_per_step", "ns", pr.interp);
        ("interp.share_pct", "%", share pr.interp (c "interp.steps"));
        count "runtime.accesses";
        ("runtime.miss_ratio", "ratio", M.ratio misses (c "runtime.accesses"));
        ("runtime.ns_per_check", "ns", pr.runtime);
        ("runtime.share_pct", "%", share pr.runtime (c "runtime.accesses"));
      ];
      List.map count
        [
          "protocol.read_misses";
          "protocol.store_misses";
          "protocol.sc_misses";
          "protocol.intra_hits";
          "protocol.false_misses";
          "protocol.downgrades_direct";
          "protocol.downgrades_msg";
          "protocol.invals";
          "protocol.recalls";
        ];
      [
        ("protocol.data_bytes", "B", c "protocol.data_bytes");
        ( "protocol.read_stall_us",
          "sim-us",
          1e6 *. M.ratio (c "protocol.read_stall_s") (c "protocol.read_misses") );
        ( "protocol.write_stall_us",
          "sim-us",
          1e6
          *. M.ratio (c "protocol.write_stall_s")
               (c "protocol.store_misses" +. c "protocol.sc_misses") );
        ("protocol.ns_per_miss", "ns", f.Probes.ns_per_miss);
        ("protocol.share_pct", "%", share f.Probes.ns_per_miss misses);
        ("protocol.fetch_us", "sim-us", f.Probes.fetch_us);
        ("protocol.fetch_model_us", "sim-us", f.Probes.model_us);
        ("protocol.fetch_residual_us", "sim-us", f.Probes.fetch_us -. f.Probes.model_us);
        ( "protocol.fetch_paper_err_pct",
          "%",
          100.0 *. (f.Probes.fetch_us -. paper_fetch_us) /. paper_fetch_us );
        count "net.remote_msgs";
        count "net.local_msgs";
        ("net.msgs_per_miss", "ratio", M.ratio msgs misses);
        ("net.ns_per_msg", "ns", pr.net);
        ("net.share_pct", "%", share pr.net msgs);
        count "sync.messages";
      ];
      List.map
        (fun k -> ("time." ^ k ^ "_pct", "%", 100.0 *. M.ratio (c ("time." ^ k ^ "_s")) busy))
        M.time_kinds;
      [
        ("rewrite.instrument_s", "s", pr.rewrite.Probes.instrument_s);
        ("rewrite.checks_inserted", "count", float_of_int pr.rewrite.Probes.checks_inserted);
      ];
      List.concat_map
        (fun k -> per_rate ("load." ^ k))
        [ "offered"; "completed"; "shed"; "rejected"; "dropped"; "client_buffered"; "depth_max" ];
      serve_metrics passes;
      [
        ("failed_frac", "ratio", failed_frac);
        ("span.setup_s", "s", median_over traced (total M.Setup));
        ("span.run_s", "s", median_over traced (total M.Run));
        ("span.validate_s", "s", median_over traced (total M.Validate));
        ( "trace.overhead_pct",
          "%",
          100.0 *. (median_over traced all -. median_over t all) /. median_over t all );
        ("par.wall_ratio_2d", "ratio", par.Probes.wall_ratio);
        ("par.events_1d", "count", float_of_int (List.hd par.Probes.events_1d));
        ("par.events_2d", "count", float_of_int (List.hd par.Probes.events_2d));
        ( "par.events_spread_2d",
          "count",
          List.fold_left Float.max 0.0 events_2d -. List.fold_left Float.min infinity events_2d );
      ];
    ]

let metric_json (name, unit, v) = (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ])

let print_metrics title metrics =
  Printf.printf "\n%s\n" title;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-28s %18.6f  %s\n" name v unit) metrics

let print_passes passes =
  Printf.printf "\n%-5s %10s %10s %10s %12s  %s\n" "pass" "setup s" "run s" "check s" "events" "";
  List.iteri
    (fun i p ->
      Printf.printf "%-5d %10.4f %10.4f %10.4f %12.0f  %s\n" i (total M.Setup p) (total M.Run p)
        (total M.Validate p)
        (M.get p.sim "engine.events")
        (if p.traced then "traced" else ""))
    passes

let provenance (w : W.t) ~seed ~seconds ~traced ~commit =
  J.Obj
    [
      ("commit", J.Str commit);
      ("host_cores", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("workload", J.Str w.W.name);
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("traced", J.Bool traced);
      ("reference_loop_s", J.Float M.reference_loop_s);
      ("params", J.Obj w.W.params);
    ]

let write_trace ~file prov rc layer =
  (try Sys.mkdir (Filename.dirname file) 0o755 with Sys_error _ -> ());
  J.write_file file
    (J.Obj
       [
         ("provenance", prov);
         ("spans", J.List (List.rev_map M.span_json rc.M.spans));
         ("per_layer", J.Obj (List.map metric_json layer));
       ]);
  Printf.printf "\nwrote %s (%d spans)\n" file (List.length rc.M.spans)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 20.0 and trace = ref 0 in
  let commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME splash16, serve or binary");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S seconds of measured passes (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--commit", Arg.Set_string commit, "ID source identity, recorded as provenance");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--commit ID]";
  let w =
    match List.find_opt (fun w -> w.W.name = !workload) W.all with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.W.name) W.all));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let prov = provenance w ~seed:!seed ~seconds:!seconds ~traced ~commit:!commit in
  Printf.printf "provenance %s\n%!" (J.to_string prov);
  let rc = M.recorder () in
  let pass = w.W.start ~seed:!seed in
  let passes = run_passes rc pass ~seconds:!seconds ~trace:traced in
  print_passes passes;
  Printf.printf "\ncalibration loop: %.6f s now, %.6f s at the reference speed\n"
    (M.median (List.init 9 (fun _ -> M.calibrate ())))
    M.reference_loop_s;
  let d_checked, d_failed = determinism passes in
  let checked = List.fold_left (fun acc p -> acc + p.checked) d_checked passes in
  let failed = List.fold_left (fun acc p -> acc + p.failed) d_failed passes in
  let checked, failed, metrics =
    if not traced then begin
      let e2e = end_to_end rc passes in
      print_metrics "end-to-end" e2e;
      print_metrics "serving, simulated"
        (serve_metrics passes @ [ ("failed_frac", "ratio", M.ratio (float failed) (float checked)) ]);
      (checked, failed, e2e)
    end
    else begin
      rc.M.tracing <- true;
      let pr = run_probes rc in
      Printf.printf "\nSim.Par LU@16n events per repeat: 1 domain %s, 2 domains %s\n"
        (String.concat " " (List.map string_of_int pr.par.Probes.events_1d))
        (String.concat " " (List.map string_of_int pr.par.Probes.events_2d));
      Printf.printf
        "two-hop 64 B fetch: %.3f us simulated, %.3f us modelled, paper ~%.0f us; no other \
         simulated figure has a reference value, so all others are unvalidated\n"
        pr.fetch.Probes.fetch_us pr.fetch.Probes.model_us paper_fetch_us;
      let checked = checked + 2 in
      let failed =
        failed + Bool.to_int (not pr.fetch.Probes.fetch_ok) + Bool.to_int (not pr.par.Probes.par_ok)
      in
      let layer =
        per_layer passes pr ~failed_frac:(M.ratio (float failed) (float checked))
      in
      print_metrics "per-layer" layer;
      write_trace
        ~file:(Printf.sprintf ".perfbench/%s-seed%d-trace.json" w.W.name !seed)
        prov rc layer;
      (checked, failed, layer)
    end
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (failed = 0));
            ("attempted", J.Int checked);
            ("failed", J.Int failed);
            ("metrics", J.Obj (List.map metric_json metrics));
          ]))
