(* lib/load: arrival processes, admission control, and the open-loop
   serving harness over minidb. *)

module A = Load.Arrival
module Adm = Load.Admission
module Rec = Load.Recorder
module S = Load.Serve
module J = Load.Json

(* --- arrival processes --- *)

let draw_gaps proc ~seed n =
  let t = A.create ~seed proc in
  List.init n (fun _ -> A.next t)

let test_arrival_deterministic () =
  List.iter
    (fun proc ->
      let a = draw_gaps proc ~seed:11 1000 and b = draw_gaps proc ~seed:11 1000 in
      Alcotest.(check bool) "same seed, same stream" true (a = b);
      let c = draw_gaps proc ~seed:12 1000 in
      Alcotest.(check bool) "different seed, different stream" true (a <> c))
    [
      A.Poisson { rate = 5000.0 };
      A.Mmpp { rate0 = 1000.0; dwell0 = 0.01; rate1 = 20000.0; dwell1 = 0.002 };
    ]

let test_poisson_rate_converges () =
  let rate = 1000.0 in
  let n = 50_000 in
  let total = List.fold_left ( +. ) 0.0 (draw_gaps (A.Poisson { rate }) ~seed:3 n) in
  let measured = float_of_int n /. total in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.1f req/s vs %.1f" measured rate)
    true
    (abs_float (measured -. rate) /. rate < 0.02)

let test_mmpp_rate_converges () =
  let proc = A.Mmpp { rate0 = 1000.0; dwell0 = 0.01; rate1 = 20000.0; dwell1 = 0.002 } in
  let expected = A.mean_rate proc in
  (* Dwell-time-weighted average of the two state rates. *)
  Alcotest.(check (float 1e-6))
    "analytic mean rate"
    ((1000.0 *. 0.01 +. 20000.0 *. 0.002) /. (0.01 +. 0.002))
    expected;
  let n = 100_000 in
  let total = List.fold_left ( +. ) 0.0 (draw_gaps proc ~seed:5 n) in
  let measured = float_of_int n /. total in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.1f req/s vs %.1f" measured expected)
    true
    (abs_float (measured -. expected) /. expected < 0.05)

let test_arrival_scale_and_specs () =
  let p = A.Mmpp { rate0 = 1000.0; dwell0 = 0.01; rate1 = 20000.0; dwell1 = 0.002 } in
  let scaled = A.scale_to p 10_000.0 in
  Alcotest.(check (float 1e-6)) "scale_to hits the target" 10_000.0 (A.mean_rate scaled);
  (match scaled with
  | A.Mmpp { rate0; rate1; _ } ->
      Alcotest.(check (float 1e-9)) "burst ratio preserved" 20.0 (rate1 /. rate0)
  | A.Poisson _ -> Alcotest.fail "scale_to changed the process shape");
  List.iter
    (fun spec ->
      Alcotest.(check string) "spec round trip" spec (A.to_spec (A.of_spec spec)))
    [ "poisson:50000"; "mmpp:10000,0.01,200000,0.002" ];
  Alcotest.check_raises "bad spec"
    (Invalid_argument
       (Printf.sprintf "Arrival.of_spec %S; expected %s" "poison:10" A.spec_help))
    (fun () -> ignore (A.of_spec "poison:10"));
  (* A non-finite rate or dwell would draw zero or infinite gaps. *)
  List.iter
    (fun x ->
      List.iter
        (fun spec ->
          match A.of_spec spec with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%S accepted" spec)
        [ "poisson:" ^ x; "mmpp:" ^ x ^ ",0.01,20000,0.002"; "mmpp:1000,0.01,20000," ^ x ])
    [ "inf"; "1e400"; "nan" ];
  Alcotest.check_raises "an MMPP that almost never arrives"
    (Invalid_argument "Arrival: MMPP must expect at least 1e-6 arrivals per state cycle")
    (fun () -> ignore (A.of_spec "mmpp:1e-4,1e-4,1e-4,1e-4"))

(* --- admission control --- *)

let test_admission_policies () =
  (* drop: silent discard beyond cap *)
  let d = Adm.create (Adm.drop ~cap:2) in
  Alcotest.(check bool) "admit 1" true (Adm.offer d ~now:0.0 1 = `Admitted);
  Alcotest.(check bool) "admit 2" true (Adm.offer d ~now:0.0 2 = `Admitted);
  Alcotest.(check bool) "drop 3" true (Adm.offer d ~now:0.0 3 = `Dropped);
  (* reject: fail fast beyond cap *)
  let r = Adm.create (Adm.reject_fast ~cap:1) in
  ignore (Adm.offer r ~now:0.0 1);
  Alcotest.(check bool) "reject 2" true (Adm.offer r ~now:0.0 2 = `Rejected);
  (* queue: shed at dequeue once the wait exceeds the timeout *)
  let q = Adm.create (Adm.queue ~cap:4 ~timeout:0.01) in
  ignore (Adm.offer q ~now:0.0 1);
  ignore (Adm.offer q ~now:0.0 2);
  (match Adm.take q ~now:0.005 with
  | Some (1, `Serve) -> ()
  | _ -> Alcotest.fail "expected to serve request 1");
  (match Adm.take q ~now:0.05 with
  | Some (2, `Shed) -> ()
  | _ -> Alcotest.fail "expected to shed request 2");
  Alcotest.(check bool) "empty" true (Adm.take q ~now:0.06 = None);
  Alcotest.(check string) "queue spec round trip" "queue:256:0.02"
    (Adm.to_spec (Adm.of_spec "queue:256:0.02"))

(* --- end-to-end serving --- *)

let small_cfg =
  {
    S.default_config with
    S.arrival = A.Poisson { rate = 3000.0 };
    clients = 32;
    duration = 0.01;
    server_cpus = [ 1; 2; 5 ];
  }

(* Every recorder table of a run, histogram bins and the queue-depth
   series included, as JSON. *)
let report o =
  let runs = [ ("run", o.S.recorder) ] in
  J.to_string
    (J.List (List.map J.of_table (Rec.tables ~key:"run" runs @ Rec.series ~key:"run" runs)))

let check_accounting (r : Rec.t) =
  Alcotest.(check int) "every request resolved" r.Rec.offered (Rec.resolved r)

let test_serve_deterministic () =
  let a = S.run small_cfg and b = S.run small_cfg in
  Alcotest.(check bool) "validated" true (a.S.ok && a.S.drained);
  check_accounting a.S.recorder;
  Alcotest.(check bool) "offered some load" true (a.S.recorder.Rec.offered > 0);
  Alcotest.(check string) "bit-identical reports" (report a) (report b);
  let c = S.run { small_cfg with S.seed = 43 } in
  Alcotest.(check bool) "seed changes the report" true (report a <> report c)

let test_serve_under_faults () =
  (* 5% frame drops: the reliable transport retransmits, the run still
     validates and drains, and no response is silently lost. *)
  let cluster_cfg =
    S.cluster_config ~fault_plan:(Fault.Plan.of_spec "seed=7,drop=0.05") ()
  in
  let o = S.run ~cluster_cfg small_cfg in
  Alcotest.(check bool) "validated under faults" true (o.S.ok && o.S.drained);
  check_accounting o.S.recorder;
  match Shasta.Cluster.reliable o.S.cluster with
  | None -> Alcotest.fail "fault plan should install the reliable transport"
  | Some rel ->
      let t = Mchan.Reliable.totals rel in
      Alcotest.(check bool) "faults actually injected" true (t.Mchan.Reliable.inj_dropped > 0);
      Alcotest.(check bool) "retransmits recovered them" true
        (t.Mchan.Reliable.retransmits > 0)

let test_serve_overload_sheds () =
  (* Far past the knee with a tiny accept queue: admission must reject
     or shed, goodput must stay bounded, and accounting must still
     balance. *)
  let cfg =
    {
      small_cfg with
      S.arrival = A.Poisson { rate = 120_000.0 };
      clients = 256;
      admission = Adm.queue ~cap:16 ~timeout:0.005;
    }
  in
  let o = S.run cfg in
  let r = o.S.recorder in
  Alcotest.(check bool) "validated" true (o.S.ok && o.S.drained);
  check_accounting r;
  Alcotest.(check bool) "overload is refused, not absorbed" true
    (r.Rec.rejected + r.Rec.shed > 0);
  Alcotest.(check bool) "goodput bounded by capacity" true
    (Rec.goodput r < 0.8 *. Rec.offered_rate r)

let test_serve_drop_policy_times_out () =
  (* Silent drops: the client window frees via timeout, so the run still
     drains with every fate accounted. *)
  let cfg =
    {
      small_cfg with
      S.arrival = A.Poisson { rate = 80_000.0 };
      clients = 64;
      admission = Adm.drop ~cap:8;
      client_timeout = 0.004;
    }
  in
  let o = S.run cfg in
  let r = o.S.recorder in
  Alcotest.(check bool) "validated" true (o.S.ok && o.S.drained);
  check_accounting r;
  Alcotest.(check bool) "drops happened" true (r.Rec.dropped > 0)

let suite =
  [
    Alcotest.test_case "arrival determinism" `Quick test_arrival_deterministic;
    Alcotest.test_case "poisson rate converges" `Quick test_poisson_rate_converges;
    Alcotest.test_case "mmpp rate converges" `Quick test_mmpp_rate_converges;
    Alcotest.test_case "arrival scale and specs" `Quick test_arrival_scale_and_specs;
    Alcotest.test_case "admission policies" `Quick test_admission_policies;
    Alcotest.test_case "serve determinism" `Quick test_serve_deterministic;
    Alcotest.test_case "serve under 5% drops" `Quick test_serve_under_faults;
    Alcotest.test_case "serve overload sheds" `Quick test_serve_overload_sheds;
    Alcotest.test_case "serve drop policy drains" `Quick test_serve_drop_policy_times_out;
  ]
