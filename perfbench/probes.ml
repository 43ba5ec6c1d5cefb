(* Layer probes.  Each times calls into one layer's public functions in
   isolation and reports host nanoseconds per operation; multiplied by a
   workload's operation count and divided by its wall time, a probe
   estimates that layer's share of the run. *)

module C = Shasta.Cluster
module R = Shasta.Runtime
module M = Measure
module W = Workloads

let median_of n f = M.median (List.init n (fun _ -> f ()))
let ns seconds ops = 1e9 *. seconds /. float_of_int ops

(** [Sim.Engine]: [after]/[run] over no-op thunks, in 32 self-rescheduling
    chains so that as many events are pending as in a small cluster. *)
let engine () =
  median_of 5 (fun () ->
      let eng = Sim.Engine.create () in
      let left = ref 300_000 in
      let chain dt =
        let rec tick () =
          if !left > 0 then begin
            decr left;
            Sim.Engine.after eng dt tick
          end
        in
        tick
      in
      for k = 1 to 32 do
        let dt = float_of_int k *. 1e-9 in
        Sim.Engine.after eng dt (chain dt)
      done;
      let t0 = M.now () in
      ignore (Sim.Engine.run eng);
      ns (M.now () -. t0) (Sim.Engine.events_fired eng))

(** [Alpha.Interp]: the uninstrumented corpus, single-process. *)
let interp () =
  median_of 3 (fun () ->
      let seconds, steps =
        List.fold_left
          (fun (seconds, steps) (e : Apps.Ircorpus.entry) ->
            let k = W.corpus_kernel ~scale:200 e.Apps.Ircorpus.e_program e in
            let t0 = M.now () in
            ignore (C.run k.W.k_cluster);
            (seconds +. (M.now () -. t0), steps + k.W.k_steps))
          (0.0, 0) Apps.Ircorpus.all
      in
      ns seconds steps)

(** [Shasta.Runtime]: the inline check on a hit — [load64]/[store64] over
    lines the one process already holds exclusive. *)
let runtime () =
  median_of 3 (fun () ->
      let cl = C.create (W.cluster_config ~nodes:1 ~cpus:1 ()) in
      let words = 1024 and rounds = 200 in
      let base = C.alloc cl (8 * words) in
      let seconds = ref 0.0 in
      ignore
        (C.spawn cl ~cpu:0 "probe" (fun h ->
             for i = 0 to words - 1 do
               R.store64 h (base + (8 * i)) 0L
             done;
             let t0 = M.now () in
             for _ = 1 to rounds do
               for i = 0 to words - 1 do
                 let a = base + (8 * i) in
                 R.store64 h a (Int64.succ (R.load64 h a))
               done
             done;
             seconds := M.now () -. t0));
      ignore (C.run cl);
      ns !seconds (2 * words * rounds))

type fetch = {
  ns_per_miss : float;  (** host *)
  fetch_us : float;  (** simulated two-hop 64-byte read miss *)
  model_us : float;  (** the same miss as a sum of modelled costs *)
  fetch_ok : bool;  (** every read was a miss *)
}

let fetch_blocks = 1000

(* The modelled two-hop fetch: requester entry, two message injections,
   the home's handler and the reply's processing, plus one-way latency
   and link occupancy for the request and for the 64-byte reply. *)
let fetch_model_us () =
  let c = Protocol.Config.default_costs and w = Mchan.Net.default_config in
  let wire msg =
    w.Mchan.Net.one_way_latency
    +. (float_of_int (Protocol.Ptypes.msg_size msg) /. w.Mchan.Net.bandwidth)
  in
  let request =
    Protocol.Ptypes.Request
      { kind = Protocol.Ptypes.Read; block = 0; from_domain = 0; from_pid = 0 }
  in
  let reply =
    Protocol.Ptypes.Data_reply
      { block = 0; data = Bytes.make 64 '\000'; exclusive = false; to_pid = 0; seq = 0 }
  in
  1e6
  *. (c.Protocol.Config.miss_entry
     +. (2.0 *. c.Protocol.Config.send)
     +. c.Protocol.Config.handler +. c.Protocol.Config.reply_process +. wire request
     +. wire reply)

(** [Protocol.Engine]: two-hop 64-byte read misses, each to a block homed
    on the other of two one-CPU nodes. *)
let protocol () =
  let once () =
    let cl = C.create (W.cluster_config ~nodes:2 ~cpus:1 ()) in
    let len = 64 * fetch_blocks in
    let base = C.alloc cl len in
    let sim = ref 0.0 in
    ignore
      (C.spawn cl ~cpu:0 "reader" (fun h ->
           let t0 = C.now cl in
           for i = 0 to fetch_blocks - 1 do
             ignore (R.load64 h (base + (64 * i)))
           done;
           sim := C.now cl -. t0));
    ignore (C.spawn cl ~cpu:1 "home" ignore);
    Protocol.Engine.set_home (C.protocol_engine cl) ~addr:base ~len ~domain:1;
    C.init cl;
    let t0 = M.now () in
    ignore (C.run cl);
    let host = M.now () -. t0 in
    let misses =
      List.fold_left
        (fun acc h -> acc + (R.pstats h).Protocol.Engine.read_misses)
        0 (C.runtimes cl)
    in
    (ns host fetch_blocks, 1e6 *. !sim /. float_of_int fetch_blocks, misses = fetch_blocks)
  in
  let runs = List.init 3 (fun _ -> once ()) in
  {
    ns_per_miss = M.median (List.map (fun (h, _, _) -> h) runs);
    fetch_us = M.median (List.map (fun (_, s, _) -> s) runs);
    model_us = fetch_model_us ();
    fetch_ok = List.for_all (fun (_, _, ok) -> ok) runs;
  }

(** [Mchan.Net]: [send] between two nodes, 16 ping-pong chains. *)
let net () =
  median_of 3 (fun () ->
      let net =
        Mchan.Net.create { Mchan.Net.default_config with Mchan.Net.nodes = 2; cpus_per_node = 1 }
      in
      let left = ref 100_000 in
      let rec hop src () =
        if !left > 0 then begin
          decr left;
          Mchan.Net.send net ~src_node:src ~dst_node:(1 - src) ~size:32 (hop (1 - src))
        end
      in
      for _ = 1 to 16 do
        hop 0 ()
      done;
      let t0 = M.now () in
      ignore (Sim.Engine.run (Mchan.Net.engine net));
      ns (M.now () -. t0) (Mchan.Net.remote_messages net))

type rewrite = {
  instrument_s : float;  (** host seconds to instrument the whole set once *)
  checks_inserted : int;  (** loads and stores given a check, over the set *)
}

(** [Rewrite.Instrument]: default-option instrumentation of the corpus
    and sync kernels, the binary workload's set-up. *)
let rewrite () =
  let progs =
    List.map
      (fun (e : Apps.Ircorpus.entry) -> e.Apps.Ircorpus.e_program)
      (Apps.Ircorpus.all @ Apps.Ircorpus.sync)
  in
  let instrument_all () =
    List.fold_left
      (fun acc p ->
        let _, st = Rewrite.Instrument.instrument p in
        acc + st.Rewrite.Instrument.loads_checked + st.Rewrite.Instrument.stores_checked)
      0 progs
  in
  let rounds = 100 and checks = ref 0 in
  let seconds =
    median_of 3 (fun () ->
        let t0 = M.now () in
        for _ = 1 to rounds do
          checks := instrument_all ()
        done;
        (M.now () -. t0) /. float_of_int rounds)
  in
  { instrument_s = seconds; checks_inserted = !checks }

type par = {
  wall_ratio : float;  (** median 2-domain wall over median 1-domain wall *)
  events_1d : int list;  (** events fired, per repeat *)
  events_2d : int list;
  par_ok : bool;  (** validated, and the 2-domain runs swept clean *)
}

(** [Sim.Par]: LU@16 on 16 one-CPU nodes (one event lane each), driven by
    1 and by 2 domains, alternating. *)
let par () =
  let lu = Apps.Registry.find "LU" in
  let once domains =
    let cl =
      C.create
        {
          (W.cluster_config ~shared:(2 lsl 20) ~nodes:16 ~cpus:1 ()) with
          Shasta.Config.parallel = domains;
        }
    in
    let t0 = M.wall () in
    let _, ok = Apps.Harness.run_spec cl lu ~nprocs:16 ~sync:Apps.Harness.Mp () in
    let wall = M.wall () -. t0 in
    let clean = domains = 1 || Protocol.Engine.check_quiescent (C.protocol_engine cl) = [] in
    (domains, wall, Sim.Engine.events_fired (C.sim cl), ok && clean)
  in
  let runs = List.map once [ 1; 2; 1; 2 ] in
  let at d = List.filter (fun (d', _, _, _) -> d' = d) runs in
  let walls d = List.map (fun (_, w, _, _) -> w) (at d) in
  let events d = List.map (fun (_, _, e, _) -> e) (at d) in
  {
    wall_ratio = M.median (walls 2) /. M.median (walls 1);
    events_1d = events 1;
    events_2d = events 2;
    par_ok = List.for_all (fun (_, _, _, ok) -> ok) runs;
  }
