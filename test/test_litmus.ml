(* End-to-end tests for lib/check: the litmus suite under schedule
   exploration, the explorer drivers on a synthetic racy scenario, the
   trace oracle on hand-built traces, the mutation harness, and the
   zero-cost guarantees of the checking layers. *)

module L = Check.Litmus
module E = Check.Explore
module M = Check.Mutation
module T = Check.Trace

let fail_on_first (sc : L.scenario) (r : E.result) =
  match r.E.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%s under %s: %s (%d failing runs total)" sc.L.name f.E.f_schedule
        (String.concat "; " f.E.f_violations)
        (List.length r.E.failures)

(* Satellite (a): each litmus scenario stays clean across the FIFO
   default plus 16 seeded tie-break schedules, with the per-message
   invariant checker, quiescence sweep, outcome check and trace oracle
   all armed. *)
let test_scenario_seeds (sc : L.scenario) () =
  let r = E.seeds ~n:16 (L.as_scenario sc) in
  Alcotest.(check int) "FIFO plus 16 seeds" 17 r.E.stats.E.s_runs;
  fail_on_first sc r

(* Runs with jitter go through the same Guided hook as the seeded ones, so
   their fired-event classes are observed too. *)
let test_litmus_jittered () =
  List.iter
    (fun (sc : L.scenario) ->
      let r = E.seeds ~jitter:E.default_jitter ~n:8 (L.as_scenario sc) in
      Alcotest.(check bool) (sc.L.name ^ " classes observed") true (r.E.stats.E.s_classes > 0);
      fail_on_first sc r)
    L.all

(* Bounded exhaustive exploration over the first tie-sets; the small
   scenarios exhaust their trees and must stay clean. *)
let test_litmus_exhaustive () =
  List.iter
    (fun (sc : L.scenario) ->
      let r = E.exhaustive ~max_runs:40 ~max_depth:5 (L.as_scenario sc) in
      Alcotest.(check bool) (sc.L.name ^ " explored") true (r.E.stats.E.s_runs > 0);
      match r.E.failures with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "%s under %s: %s" sc.L.name f.E.f_schedule
            (String.concat "; " f.E.f_violations))
    [ L.message_passing; L.dekker ]

(* --- explorer drivers on a synthetic scenario --------------------- *)

(* Three tied events; only the fully reversed firing order is "buggy".
   The exhaustive driver must enumerate all 3! interleavings and find
   exactly that one; the seeded driver must find it within 64 seeds and
   the reported seed must reproduce it. *)
let synthetic_scenario schedule =
  let eng = Sim.Engine.create ~schedule () in
  let log = ref [] in
  for i = 0 to 2 do
    Sim.Engine.at eng 1.0 (fun () -> log := i :: !log)
  done;
  ignore (Sim.Engine.run eng);
  if List.rev !log = [ 2; 1; 0 ] then [ "reverse order reached" ] else []

let test_explore_exhaustive_finds () =
  let r = E.exhaustive ~max_runs:20 ~max_depth:4 synthetic_scenario in
  Alcotest.(check bool) "tree exhausted" true r.E.stats.E.s_complete;
  Alcotest.(check int) "all 3! interleavings enumerated" 6 r.E.stats.E.s_runs;
  Alcotest.(check int) "exactly one bad schedule" 1 (List.length r.E.failures)

(* An "Exhaustive [i;j;...]" failure replays through the decision-vector
   schedule shared with DPOR. *)
let test_explore_exhaustive_replays () =
  match (E.exhaustive ~max_runs:20 ~max_depth:4 synthetic_scenario).E.failures with
  | [ f ] ->
      let s = f.E.f_schedule in
      let lb = String.index s '[' and rb = String.index s ']' in
      let body = String.sub s (lb + 1) (rb - lb - 1) in
      let ds = if body = "" then [] else List.map int_of_string (String.split_on_char ';' body) in
      Alcotest.(check (list string)) "decision vector reproduces the run" f.E.f_violations
        (synthetic_scenario (E.schedule_of_decisions ds))
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

let test_explore_seeds_find_and_reproduce () =
  match (E.seeds ~n:64 synthetic_scenario).E.failures with
  | [] -> Alcotest.fail "no seed in 1..64 reached the reverse interleaving"
  | f :: _ ->
      let seed = Option.get f.E.f_seed in
      Alcotest.(check (list string)) "replaying the seed reproduces it"
        f.E.f_violations
        (synthetic_scenario (E.seed_schedule seed))

(* --- trace oracle on hand-built traces ---------------------------- *)

let mk_trace evs =
  let t = T.create () in
  t.T.rev_events <- List.rev evs;
  t.T.n <- List.length evs;
  t

let ev pid addr store value =
  { T.ev_pid = pid; ev_addr = addr; ev_store = store; ev_value = value; ev_time = 0.0 }

let test_oracle_accepts_coherent () =
  (* Wx1 ; Rx1 interleaves fine, and so does a read of the initial 0. *)
  let t = mk_trace [ ev 0 16 true 1L; ev 1 16 false 1L; ev 2 16 false 0L ] in
  Alcotest.(check (list string)) "coherent trace accepted" [] (T.check ~full:true t)

let test_oracle_rejects_thin_air () =
  (* A load of a value nobody ever stored has no witness. *)
  let t = mk_trace [ ev 0 16 true 1L; ev 1 16 false 2L ] in
  Alcotest.(check bool) "thin-air read rejected" true (T.check t <> [])

let test_oracle_store_buffering () =
  (* Classic SB: Wx1;Ry0 || Wy1;Rx0 is per-location coherent but has no
     global SC witness — exactly the distinction full:true must draw. *)
  let sb = [ ev 0 16 true 1L; ev 0 32 false 0L; ev 1 32 true 1L; ev 1 16 false 0L ] in
  Alcotest.(check (list string)) "per-location view accepts SB" [] (T.check (mk_trace sb));
  match T.check ~full:true (mk_trace sb) with
  | [ v ] ->
      Alcotest.(check bool) "the one violation is the global witness" true
        (String.length v > 0)
  | l -> Alcotest.failf "expected exactly one global-SC violation, got %d" (List.length l)

(* Two memories that differ must never share a memo key.  The bindings
   (256, 9246) and (256, 52188) hash alike, so a key that hashes each
   (addr, value) binding merges the states where x holds one or the
   other, and prunes the only paths to the witness: P1 stores x then y,
   P0 stores x, P2 reads y and then P0's x. *)
let test_oracle_memo_keeps_memories_apart () =
  let x = 256 and y = 512 and v0 = 9246L and v1 = 52188L in
  Alcotest.(check int) "the two bindings hash alike" (Hashtbl.hash (x, v0)) (Hashtbl.hash (x, v1));
  let t =
    mk_trace [ ev 0 x true v0; ev 1 x true v1; ev 1 y true 1L; ev 2 y false 1L; ev 2 x false v0 ]
  in
  Alcotest.(check (list string)) "SC witness found" [] (T.check ~full:true t)

(* --- mutation harness --------------------------------------------- *)

(* Satellite: every seeded protocol bug must fire and be caught, well
   within the 64-seed CI budget. *)
let test_mutations_caught () =
  let reports = M.sweep (M.protocol ~explore:(E.seeds ~n:8) ()) in
  List.iter
    (fun (r : M.report) ->
      Alcotest.(check bool) (r.M.label ^ " fired") true r.M.fired;
      if r.M.caught = None then Alcotest.failf "mutation %s escaped %d runs" r.M.label r.M.spent)
    reports;
  Alcotest.(check bool) "all mutations caught" true (M.all_caught reports);
  Alcotest.(check int) "all five mutations exercised" 5 (List.length reports)

(* A hunt over no scenarios runs nothing: every bug is missed without
   ever firing, and says so. *)
let test_hunt_without_scenarios () =
  let family = M.protocol ~explore:(E.seeds ~n:8) ~scenarios:[] () in
  let reports = M.sweep family in
  Alcotest.(check int) "all five mutations reported" 5 (List.length reports);
  List.iter
    (fun (r : M.report) ->
      Alcotest.(check bool) (r.M.label ^ " not caught") true (r.M.caught = None);
      Alcotest.(check bool) (r.M.label ^ " never fired") false r.M.fired;
      Alcotest.(check int) (r.M.label ^ " no runs") 0 r.M.spent;
      Alcotest.(check bool)
        (r.M.label ^ " table row")
        true
        ((M.table family [ r ]).Sim.Stats.rows
        = [ (r.M.label, Sim.Stats.[ Str "MISSED (never fired)"; Str "-"; Str "-"; Int 0 ]) ]))
    reports

(* --- the checking layers must not perturb the simulation ---------- *)

let run_figure2 ~check ~schedule =
  let cfg = L.config ~model:Protocol.Config.Rc ~schedule () in
  let cfg =
    {
      cfg with
      Shasta.Config.protocol =
        { cfg.Shasta.Config.protocol with Protocol.Config.check_invariants = check };
    }
  in
  let cl = Shasta.Cluster.create cfg in
  let tr = T.create () in
  let outcome = L.figure2.L.body cl tr in
  let elapsed = Shasta.Cluster.run cl in
  Alcotest.(check (list string)) "clean run" [] (outcome ());
  (elapsed, Sim.Engine.events_fired (Shasta.Cluster.sim cl),
   Protocol.Engine.invariant_checks (Shasta.Cluster.protocol_engine cl))

let test_checker_zero_sim_cost () =
  let t_off, ev_off, n_off = run_figure2 ~check:false ~schedule:Sim.Engine.Fifo in
  let t_on, ev_on, n_on = run_figure2 ~check:true ~schedule:Sim.Engine.Fifo in
  Alcotest.(check int) "checker off runs no checks" 0 n_off;
  Alcotest.(check bool) "checker on runs checks" true (n_on > 0);
  Alcotest.(check (float 0.0)) "identical simulated time" t_off t_on;
  Alcotest.(check int) "identical event count" ev_off ev_on

(* The FIFO default is bit-identical run to run (the seed sweep covers
   seeded determinism; this pins the default path). *)
let test_default_schedule_deterministic () =
  let t_a, ev_a, _ = run_figure2 ~check:true ~schedule:Sim.Engine.Fifo in
  let t_b, ev_b, _ = run_figure2 ~check:true ~schedule:Sim.Engine.Fifo in
  Alcotest.(check (float 0.0)) "identical simulated time" t_a t_b;
  Alcotest.(check int) "identical event count" ev_a ev_b

let suite =
  List.map
    (fun (sc : L.scenario) ->
      Alcotest.test_case (sc.L.name ^ " x17 schedules") `Quick (test_scenario_seeds sc))
    L.all
  @ [
      Alcotest.test_case "litmus under jittered schedules" `Quick test_litmus_jittered;
      Alcotest.test_case "litmus exhaustive exploration" `Quick test_litmus_exhaustive;
      Alcotest.test_case "exhaustive finds the racy interleaving" `Quick
        test_explore_exhaustive_finds;
      Alcotest.test_case "exhaustive failure replays by decision vector" `Quick
        test_explore_exhaustive_replays;
      Alcotest.test_case "seeded explorer finds and reproduces" `Quick
        test_explore_seeds_find_and_reproduce;
      Alcotest.test_case "oracle accepts coherent trace" `Quick test_oracle_accepts_coherent;
      Alcotest.test_case "oracle rejects thin-air read" `Quick test_oracle_rejects_thin_air;
      Alcotest.test_case "oracle separates SB from coherence" `Quick
        test_oracle_store_buffering;
      Alcotest.test_case "mutations are caught" `Quick test_mutations_caught;
      Alcotest.test_case "hunt over no scenarios never fires" `Quick test_hunt_without_scenarios;
      Alcotest.test_case "checker has zero simulation cost" `Quick test_checker_zero_sim_cost;
      Alcotest.test_case "default schedule deterministic" `Quick
        test_default_schedule_deterministic;
      Alcotest.test_case "oracle memo keeps memories apart" `Quick
        test_oracle_memo_keeps_memories_apart;
    ]
