(* Tests for the DPOR explorer stack: the Foata levels and class
   signatures (property-tested against a naive oracle), the reduction itself
   (complete fixed points on every litmus scenario, with run counts an
   order of magnitude under the bounded-exhaustive driver's), preemption
   bounding on the minidb two-transaction scenario the exhaustive driver
   cannot finish, the documented legal transient rediscovered-but-exempt
   under jittered DPOR, the exhaustive driver's truncation flag, and
   mutation conviction run counts under DPOR vs exhaustive. *)

module SE = Sim.Engine
module V = Check.Vclock
module E = Check.Explore
module D = Check.Dpor
module L = Check.Litmus
module M = Check.Mutation

(* --- random label traces ------------------------------------------ *)

let gen_kind =
  QCheck.Gen.oneofl [ SE.Generic; SE.Proc_step; SE.Message; SE.Wakeup; SE.Timer ]

let gen_label =
  QCheck.Gen.map3
    (fun n b k -> { SE.lbl_node = n; lbl_block = b; lbl_kind = k })
    (QCheck.Gen.int_range (-1) 2)
    (QCheck.Gen.int_range (-1) 2)
    gen_kind

let print_label (l : SE.label) =
  Printf.sprintf "{n%d/b%d}" l.SE.lbl_node l.SE.lbl_block

let print_trace ls = String.concat ";" (List.map print_label ls)

let arb_trace ?(max_len = 24) () =
  QCheck.make ~print:print_trace
    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 max_len) gen_label)

(* The naive oracle: happens-before is the transitive closure of trace
   order restricted to dependent pairs, computed in O(n³). *)
let naive_hb (labels : SE.label array) =
  let n = Array.length labels in
  let r = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if SE.dependent labels.(i) labels.(j) then r.(i).(j) <- true
    done
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if r.(i).(k) then
        for j = 0 to n - 1 do
          if r.(k).(j) then r.(i).(j) <- true
        done
    done
  done;
  r

(* An event's Foata level is one above the deepest of its
   happens-before predecessors, or 1 if it has none. *)
let test_foata_levels_match_oracle =
  QCheck.Test.make ~name:"foata levels agree with the O(n^3) closure oracle"
    ~count:300 (arb_trace ())
    (fun ls ->
      let labels = Array.of_list ls in
      let levels = V.foata_levels labels in
      let oracle = naive_hb labels in
      let ok = ref true in
      Array.iteri
        (fun j lvl ->
          let deepest = ref 0 in
          for i = 0 to j - 1 do
            if oracle.(i).(j) then deepest := max !deepest levels.(i)
          done;
          if lvl <> !deepest + 1 then ok := false)
        levels;
      !ok)

(* Swapping two adjacent independent events stays in the trace's
   equivalence class, so its signature is unchanged. *)
let test_signature_stable_under_swap =
  QCheck.Test.make ~name:"class signature stable under independent swaps"
    ~count:300 (arb_trace ())
    (fun ls ->
      let labels = Array.of_list ls in
      let sig0 = V.class_signature labels in
      let ok = ref true in
      for i = 0 to Array.length labels - 2 do
        if not (SE.dependent labels.(i) labels.(i + 1)) then begin
          let swapped = Array.copy labels in
          swapped.(i) <- labels.(i + 1);
          swapped.(i + 1) <- labels.(i);
          if V.class_signature swapped <> sig0 then ok := false
        end
      done;
      !ok)

(* --- DPOR vs bounded-exhaustive on the litmus suite --------------- *)

(* Tentpole acceptance: on every litmus scenario, DPOR runs to a
   complete (unbounded) fixed point, reports the same violation set as
   the exhaustive driver (none), and spends at least 10x fewer runs. *)
let test_dpor_litmus_fixed_point () =
  List.iter
    (fun (sc : L.scenario) ->
      let d = D.explore ~max_runs:1000 (L.as_scenario sc) in
      Alcotest.(check bool) (sc.L.name ^ " dpor complete") true d.E.stats.E.s_complete;
      Alcotest.(check bool) (sc.L.name ^ " dpor unbounded") false d.E.stats.E.s_truncated;
      (match d.E.failures with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "%s under %s: %s" sc.L.name f.E.f_schedule
            (String.concat "; " f.E.f_violations));
      let x = E.exhaustive ~max_runs:400 (L.as_scenario sc) in
      Alcotest.(check (list string))
        (sc.L.name ^ " identical violation sets")
        (List.concat_map (fun f -> f.E.f_violations) x.E.failures)
        (List.concat_map (fun f -> f.E.f_violations) d.E.failures);
      (* A budget-capped exhaustive run count lower-bounds the true tree
         size, so the 10x claim is sound even when the cap bites. *)
      if 10 * d.E.stats.E.s_runs > x.E.stats.E.s_runs then
        Alcotest.failf "%s: dpor took %d runs, exhaustive only %d (< 10x)"
          sc.L.name d.E.stats.E.s_runs x.E.stats.E.s_runs;
      (* Every run of a complete reduction should land in a distinct
         Mazurkiewicz class — no redundant exploration. *)
      Alcotest.(check int)
        (sc.L.name ^ " one class per run")
        d.E.stats.E.s_runs d.E.stats.E.s_classes)
    L.all

(* --- preemption bounding: the minidb two-transaction scenario ------ *)

(* Acceptance: under a preemption bound of 1 (<= the required 2), DPOR
   completes the bounded fixed point on a scenario whose tie-break tree
   the exhaustive driver cannot finish within its run budget. *)
let test_dpor_minidb_bounded () =
  let d =
    D.explore ~max_runs:500 ~preemption_bound:1 (L.as_scenario Check.Txn.scenario)
  in
  Alcotest.(check bool) "bounded fixed point reached" true d.E.stats.E.s_complete;
  Alcotest.(check bool) "the bound actually cut branches" true
    d.E.stats.E.s_truncated;
  (match d.E.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "minidb-txn2 under %s: %s" f.E.f_schedule
        (String.concat "; " f.E.f_violations));
  let x = E.exhaustive ~max_runs:60 (L.as_scenario Check.Txn.scenario) in
  Alcotest.(check bool) "exhaustive cannot finish in its budget" false
    x.E.stats.E.s_complete

(* --- the documented legal transient under jittered DPOR ------------ *)

(* Regression pin for the exemption: a directory owner may transiently
   sit in S/I while its upgrade grant is still in flight.  The window
   only opens under message delay, so plain tie-break DPOR never sees
   it; composed with jitter, DPOR must rediscover the transient within a
   few delay seeds and must NOT report it as a violation. *)
let test_dpor_rediscovers_legal_transient () =
  let found = ref 0 in
  let seed = ref 1 in
  while !found = 0 && !seed <= 16 do
    let transients = ref 0 in
    let scenario schedule =
      let o = L.run L.atomic_increment schedule in
      transients := !transients + o.L.legal_transients;
      o.L.violations
    in
    let r =
      D.explore ~max_runs:64 ~preemption_bound:1
        ~jitter:(!seed, 0.25, 2.0e-6) scenario
    in
    (match r.E.failures with
    | [] -> ()
    | f :: _ ->
        Alcotest.failf
          "legal transient misreported as a violation (jitter seed %d): %s"
          !seed
          (String.concat "; " f.E.f_violations));
    found := !transients;
    incr seed
  done;
  Alcotest.(check bool) "transient rediscovered within 16 jitter seeds" true
    (!found > 0)

(* --- exhaustive truncation flag (the fixed silent cut) ------------- *)

(* n same-time events: choice points of width n, n-1, ..., 2. *)
let synthetic_ties n schedule =
  let eng = SE.create ~schedule () in
  for _ = 1 to n do
    SE.at eng 1.0 (fun () -> ())
  done;
  ignore (SE.run eng);
  []

let test_exhaustive_truncation_flag () =
  (* 4 events -> 3 choice points; a depth-2 tree is silently cut and
     must say so, a depth-6 tree covers everything. *)
  let cut = E.exhaustive ~max_runs:100 ~max_depth:2 (synthetic_ties 4) in
  Alcotest.(check bool) "depth-2 tree truncated" true cut.E.stats.E.s_truncated;
  Alcotest.(check bool) "truncated is not complete" false cut.E.stats.E.s_complete;
  let full = E.exhaustive ~max_runs:100 ~max_depth:6 (synthetic_ties 4) in
  Alcotest.(check bool) "depth-6 tree untruncated" false full.E.stats.E.s_truncated;
  Alcotest.(check bool) "and complete" true full.E.stats.E.s_complete;
  Alcotest.(check int) "all 4! interleavings" 24 full.E.stats.E.s_runs

(* --- mutation conviction under DPOR -------------------------------- *)

(* Satellite: every seeded protocol bug is convicted under the DPOR
   driver, spending no more runs than the bounded-exhaustive driver. *)
let test_mutations_convicted_under_dpor () =
  let d = M.sweep (M.protocol ~explore:(D.explore ~max_runs:50) ()) in
  List.iter
    (fun (r : M.report) ->
      Alcotest.(check bool) (r.M.label ^ " fired") true r.M.fired;
      if r.M.caught = None then
        Alcotest.failf "mutation %s escaped DPOR after %d runs" r.M.label r.M.spent)
    d;
  Alcotest.(check bool) "all mutations convicted under DPOR" true (M.all_caught d);
  let x = M.sweep (M.protocol ~explore:(E.exhaustive ~max_runs:50 ~max_depth:8) ()) in
  List.iter2
    (fun (dr : M.report) (xr : M.report) ->
      if dr.M.spent > xr.M.spent then
        Alcotest.failf "%s: DPOR needed %d runs, exhaustive %d" dr.M.label dr.M.spent
          xr.M.spent)
    d x

(* --- decision-vector replay ---------------------------------------- *)

(* A `Dpor [...]` failure line must be replayable: the decision vector
   alone reproduces the run.  Pin it on the synthetic reverse-order
   scenario from the exhaustive tests. *)
let synthetic_racy schedule =
  let eng = SE.create ~schedule () in
  let log = ref [] in
  for i = 0 to 2 do
    SE.at eng 1.0 (fun () -> log := i :: !log)
  done;
  ignore (SE.run eng);
  if List.rev !log = [ 2; 1; 0 ] then [ "reverse order reached" ] else []

let test_dpor_finds_and_replays () =
  let r = D.explore ~max_runs:20 synthetic_racy in
  Alcotest.(check bool) "complete" true r.E.stats.E.s_complete;
  match r.E.failures with
  | [] -> Alcotest.fail "DPOR missed the reverse interleaving"
  | f :: _ ->
      (* "Dpor [i;j;...]" -> decision vector -> replay *)
      let body = String.sub f.E.f_schedule 6 (String.length f.E.f_schedule - 7) in
      let ds =
        if body = "" then []
        else List.map int_of_string (String.split_on_char ';' body)
      in
      Alcotest.(check (list string)) "decision vector reproduces the run"
        f.E.f_violations
        (synthetic_racy (E.schedule_of_decisions ds))

let suite =
  [
    QCheck_alcotest.to_alcotest test_foata_levels_match_oracle;
    QCheck_alcotest.to_alcotest test_signature_stable_under_swap;
    Alcotest.test_case "dpor litmus fixed points, 10x under exhaustive" `Slow
      test_dpor_litmus_fixed_point;
    Alcotest.test_case "dpor completes minidb-txn2 under preemption bound"
      `Slow test_dpor_minidb_bounded;
    Alcotest.test_case "dpor+jitter rediscovers the legal transient" `Quick
      test_dpor_rediscovers_legal_transient;
    Alcotest.test_case "exhaustive surfaces truncation" `Quick
      test_exhaustive_truncation_flag;
    Alcotest.test_case "mutations convicted under dpor" `Slow
      test_mutations_convicted_under_dpor;
    Alcotest.test_case "dpor finds and replays by decision vector" `Quick
      test_dpor_finds_and_replays;
  ]
