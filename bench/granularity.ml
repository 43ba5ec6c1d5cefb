(* Variable coherence granularity (Section 2.1): what block size buys.

   Two experiments:

   - a microbenchmark with the two access patterns granularity trades
     off: per-processor hot words (fine blocks avoid false sharing) and
     a bulk array streamed by every processor (coarse blocks amortise
     misses) — run under uniform layouts and under a mixed layout that
     places each structure in the region that suits it;

   - one SPLASH-2 kernel (Ocean) swept across uniform block sizes and
     the mixed layout, with the per-region miss/invalidation report.

   [run_granularity_smoke] is the CI-sized variant: tiny inputs, the
   coherence invariant checker enabled, so a layout bug fails the run
   rather than skewing a number. *)

module C = Shasta.Cluster
module R = Shasta.Runtime
module E = Protocol.Engine

let cluster ?(check_invariants = false) ?(shared = 2 * 1024 * 1024) ~regions () =
  C.create
    {
      Shasta.Config.default with
      Shasta.Config.net =
        { Mchan.Net.default_config with Mchan.Net.nodes = 4; cpus_per_node = 2 };
      protocol =
        {
          Protocol.Config.default with
          Protocol.Config.regions;
          shared_size = shared;
          check_invariants;
        };
    }

(* Layouts under test.  The mixed layout mirrors what an annotated
   application asks for: a small fine region for contended words, the
   rest coarse for bulk data. *)
let uniform block ~shared =
  [ { Protocol.Layout.rs_name = Printf.sprintf "u%d" block; rs_size = shared; rs_block = block } ]

let mixed ~shared =
  [
    { Protocol.Layout.rs_name = "fine"; rs_size = 64 * 1024; rs_block = 64 };
    { Protocol.Layout.rs_name = "bulk"; rs_size = shared - (64 * 1024); rs_block = 512 };
  ]

(* --- false-sharing + streaming micro --- *)

(* Each processor read-modify-writes its own word (spaced 64 B apart:
   distinct blocks under a fine layout, one ping-ponging block under a
   coarse one — every neighbour's store invalidates this copy, so the
   next load misses again), then streams a read of the whole bulk array
   (few misses under a coarse layout, one per 64 B under a fine one). *)
let run_micro ?check_invariants ~regions ~shared ~nprocs ~iters ~bulk_words () =
  let cl = cluster ?check_invariants ~shared ~regions () in
  let hot = C.alloc ~granularity:64 cl (64 * nprocs) in
  let bulk = C.alloc ~granularity:512 cl (8 * bulk_words) in
  let barrier_parties = nprocs in
  for p = 0 to nprocs - 1 do
    ignore
      (C.spawn cl ~cpu:p (Printf.sprintf "micro%d" p) (fun h ->
           (* Fill the bulk array once from processor 0. *)
           if p = 0 then
             for i = 0 to bulk_words - 1 do
               R.store_int h (bulk + (8 * i)) i
             done;
           R.barrier h ~id:7000 ~parties:barrier_parties;
           (* Barrier per round so every processor touches its word in
              every inter-steal window — without it a holder drains all
              its iterations in one ownership tenure and the ping-pong
              disappears. *)
           for _ = 1 to iters do
             let v = R.load_int h (hot + (64 * p)) in
             R.store_int h (hot + (64 * p)) (v + 1);
             R.barrier h ~id:7001 ~parties:barrier_parties
           done;
           let sum = ref 0 in
           for i = 0 to bulk_words - 1 do
             sum := !sum + R.load_int h (bulk + (8 * i))
           done;
           if !sum < 0 then failwith "unreachable"))
  done;
  let elapsed = C.run cl in
  (elapsed, E.region_stats (C.protocol_engine cl))

(* A layout's time and summed region counters, as one table row. *)
let layout_row name elapsed totals =
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 totals in
  ( name,
    Sim.Stats.Float (1000.0 *. elapsed)
    :: Sim.Stats.ints
         [ sum (fun r -> r.E.r_read_misses); sum (fun r -> r.E.r_store_misses);
           sum (fun r -> r.E.r_invals); sum (fun r -> r.E.r_data_bytes) ] )

let layout_columns =
  [ "layout"; "elapsed_ms"; "read_misses"; "store_misses"; "invals"; "data_bytes" ]

let micro_table ~title ?check_invariants ~shared ~nprocs ~iters ~bulk_words () =
  let layouts =
    [
      ("uniform 64", uniform 64 ~shared);
      ("uniform 128", uniform 128 ~shared);
      ("uniform 512", uniform 512 ~shared);
      ("mixed 64/512", mixed ~shared);
    ]
  in
  Support.print
    {
      Sim.Stats.title;
      columns = layout_columns;
      rows =
        List.map
          (fun (name, regions) ->
            let elapsed, totals =
              run_micro ?check_invariants ~regions ~shared ~nprocs ~iters ~bulk_words ()
            in
            layout_row name elapsed totals)
          layouts;
    }

(* --- SPLASH kernel sweep --- *)

(* Shared-memory sync, so the lock and barrier words land in the fine
   region and the grid in the coarse one — under Mp sync Ocean never
   touches fine blocks and a mixed layout has nothing to show. *)
let ocean_run ?check_invariants ?size ~regions ~shared () =
  let cl = cluster ?check_invariants ~shared ~regions () in
  let elapsed, ok =
    Apps.Harness.run_spec cl Apps.Ocean.spec ~nprocs:8 ~sync:Apps.Harness.Sm ?size ()
  in
  if not ok then failwith "granularity: Ocean failed validation";
  (elapsed, cl)

let ocean_sweep ?check_invariants ?size ~shared () =
  let layouts =
    [
      ("uniform 64", uniform 64 ~shared);
      ("uniform 128", uniform 128 ~shared);
      ("uniform 256", uniform 256 ~shared);
      ("uniform 512", uniform 512 ~shared);
      ("mixed 64/512", mixed ~shared);
    ]
  in
  let results =
    List.map
      (fun (name, regions) ->
        let elapsed, cl = ocean_run ?check_invariants ?size ~regions ~shared () in
        (name, elapsed, cl))
      layouts
  in
  Support.print
    {
      Sim.Stats.title = "Variable granularity: Ocean across layouts (8 procs)";
      columns = layout_columns;
      rows =
        List.map
          (fun (name, elapsed, cl) ->
            layout_row name elapsed (E.region_stats (C.protocol_engine cl)))
          results;
    };
  (* The per-region breakdown for the mixed run: the point of the
     exercise is that the fine region absorbs the invalidations while
     the bulk region carries the data. *)
  match List.rev results with
  | (_, _, cl) :: _ ->
      Support.print { (C.region_table cl) with Sim.Stats.title = "mixed layout, per region" }
  | [] -> ()

(* --- code-size cost of the table lookup (Section 2.1) --- *)

let code_growth_delta () =
  let prog = Experiments.skeleton ~procedures:32 ~mix:Experiments.sci_mix in
  let _, s_uniform = Rewrite.Instrument.instrument prog in
  let options =
    { Rewrite.Instrument.default_options with Rewrite.Instrument.granularity_table = true }
  in
  let _, s_table = Rewrite.Instrument.instrument ~options prog in
  Printf.printf
    "code growth: uniform layout %.1f%%   with block-number table %.1f%% (%d lookups)\n"
    (100.0 *. Rewrite.Instrument.code_growth s_uniform)
    (100.0 *. Rewrite.Instrument.code_growth s_table)
    s_table.Rewrite.Instrument.gran_lookups

let run_granularity () =
  micro_table ~title:"Variable granularity: false sharing vs bulk transfer (8 procs)"
    ~shared:(2 * 1024 * 1024) ~nprocs:8 ~iters:200 ~bulk_words:8192 ();
  ocean_sweep ~shared:(2 * 1024 * 1024) ();
  print_newline ();
  code_growth_delta ()

(** CI smoke: small inputs, invariant checker on — a layout bug aborts
    the run with a [Coherence_violation] rather than a skewed number. *)
let run_granularity_smoke () =
  micro_table ~title:"Granularity smoke (checked)" ~check_invariants:true ~shared:(256 * 1024)
    ~nprocs:8 ~iters:50 ~bulk_words:1024 ();
  let shared = 256 * 1024 in
  let row (name, regions) =
    let elapsed, cl = ocean_run ~check_invariants:true ~size:18 ~regions ~shared () in
    let violations = E.check_quiescent (C.protocol_engine cl) in
    if violations <> [] then
      failwith (Printf.sprintf "%s: %s" name (String.concat "; " violations));
    (name, [ Sim.Stats.Float (1000.0 *. elapsed) ])
  in
  Support.print
    {
      Sim.Stats.title = "Ocean smoke (checked, invariants + quiescence clean)";
      columns = [ "layout"; "elapsed_ms" ];
      rows = List.map row [ ("uniform 64", uniform 64 ~shared); ("mixed 64/512", mixed ~shared) ];
    }
