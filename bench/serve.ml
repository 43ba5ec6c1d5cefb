(* Open-loop serving saturation sweep (lib/load over minidb).

   [run_serve] is the full calibrated sweep behind BENCH_serve.json:
   offered load from well under capacity to ~4.5x capacity, recording
   goodput and p50/p99/p999 per point.  The curve must show the
   open-loop signature: goodput plateaus at the service capacity while
   offered load (and therefore p99) keeps growing.

   [run_serve_smoke] is the short fixed-seed variant CI runs on every
   push: two points, with a hard floor on goodput at the low-load point
   so a serving regression fails the build instead of shifting a curve
   nobody looks at. *)

module S = Load.Serve
module J = Load.Json

let sweep_rates = [ 4_000.0; 8_000.0; 16_000.0; 32_000.0; 64_000.0; 96_000.0 ]
let sweep_duration = 0.06

(* The low-load goodput floor for CI (req/s, in-window completions at
   4000 req/s offered over 0.02 s).  Measured 3936 req/s at the current
   seed; the floor leaves ~8% headroom for benign scheduling shifts
   while still catching anything that costs real capacity. *)
let smoke_floor = 3_600.0

let check_points points =
  List.iter
    (fun (p : S.sweep_point) ->
      if not (p.S.sp_outcome.S.ok && p.S.sp_outcome.S.drained) then
        failwith
          (Printf.sprintf "serve: point at %.0f req/s failed validation or drain" p.S.sp_rate))
    points

let run_serve () =
  let cfg = { S.default_config with S.duration = sweep_duration } in
  let points = S.sweep ~cfg sweep_rates in
  Support.print (S.sweep_table points);
  check_points points;
  Support.emit ~file:"BENCH_serve.json" ~bench:"serve" ~meta:(S.meta ~cfg points)
    [ J.tables (S.tables points) ]

let run_serve_smoke () =
  let cfg = { S.default_config with S.duration = 0.02 } in
  let points = S.sweep ~cfg [ 4_000.0; 48_000.0 ] in
  Support.print (S.sweep_table points);
  check_points points;
  let low = List.hd points in
  let g = Load.Recorder.goodput low.S.sp_outcome.S.recorder in
  Printf.printf "low-load goodput %.0f req/s (floor %.0f)\n" g smoke_floor;
  Support.emit ~file:"BENCH_serve_smoke.json" ~bench:"serve_smoke"
    ~meta:(("goodput_floor", J.Float smoke_floor) :: S.meta ~cfg points)
    [ J.tables (S.tables points) ];
  if g < smoke_floor then
    failwith
      (Printf.sprintf "serve_smoke: low-load goodput %.0f req/s below floor %.0f" g smoke_floor)
