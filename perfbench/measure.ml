(* Host clocks, the reference-speed scale, medians, the span log, and the
   per-pass counter tables shared by the workloads and the layer probes. *)

module C = Shasta.Cluster
module R = Shasta.Runtime
module E = Protocol.Engine
module J = Load.Json

(** Real time, for run deadlines and the multi-domain probe. *)
let wall = Unix.gettimeofday

(** This process's CPU seconds.  Everything but the [Sim.Par] probe runs
    on one domain, so this is its wall time less the time the host
    scheduler gave to something else. *)
let now = Sys.time

let median = function
  | [] -> invalid_arg "Measure.median: no samples"
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(** [ratio a b] is [a /. b], or 0 when nothing was counted in [b]. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- reference speed --- *)

(* On a shared host the same code runs up to a third slower while other
   tenants are busy, and that changes from second to second.  [calibrate]
   times a fixed loop that is not simulator code and allocates nothing,
   so its time moves with the host alone.  A timed call is divided by
   the loop's time just before and just after it and multiplied by
   [reference_loop_s], the loop's time on a quiet host: that gives host
   seconds at one fixed reference speed. *)
let reference_loop_s = 0.0011

let cal_words = Array.make 65536 0

let calibrate () =
  let t0 = now () in
  let a = cal_words in
  let x = ref 12345 in
  for i = 1 to 400_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 65535 in
    let v = a.(k) in
    a.(k) <- (if v land 1 = 0 then v + i else v lxor i)
  done;
  now () -. t0

(** [scaled f] is [(f (), s)] where [s] turns host seconds measured
    during [f] into seconds at the reference speed. *)
let scaled f =
  let c0 = calibrate () in
  let v = f () in
  let c1 = calibrate () in
  (v, reference_loop_s /. ((c0 +. c1) /. 2.0))

(* --- spans --- *)

type phase = Setup | Run | Validate

let phase_name = function Setup -> "setup" | Run -> "run" | Validate -> "validate"

type span = { sp_name : string; sp_phase : phase; sp_start : float; sp_stop : float }

(** The time of every span of the current pass is always kept, at the
    reference speed: the untraced run's [wall_s] and [setup_s] are built
    from them.  Named spans with their CPU-clock start times are kept, in
    memory, only while [tracing] is set. *)
type recorder = {
  origin : float;
  mutable tracing : bool;
  mutable spans : span list;  (** newest first *)
  mutable times : (phase * float) list;  (** the current pass's spans, newest first *)
  mutable sample_heap : bool;  (** see {!sample_live} *)
  mutable live_peak_mb : float;
}

let recorder () =
  {
    origin = now ();
    tracing = false;
    spans = [];
    times = [];
    sample_heap = false;
    live_peak_mb = 0.0;
  }

(** [sample_live r] — while [r.sample_heap] is set, the live major heap
    after a full collection, kept as a running maximum.  Workloads call it
    as each run finishes, while its cluster is still reachable.  Live
    words depend only on what the program holds, not on when the
    collector happened to run, so the figure repeats from run to run. *)
let sample_live r =
  if r.sample_heap then begin
    let s = Gc.stat () in
    let mb = float_of_int (s.Gc.live_words * (Sys.word_size / 8)) /. 1048576.0 in
    if mb > r.live_peak_mb then r.live_peak_mb <- mb
  end

(** [span r phase name f] runs [f], charging its time to [phase]. *)
let span r phase name f =
  let (v, t0, t1), scale =
    scaled (fun () ->
        let t0 = now () in
        let v = f () in
        (v, t0, now ()))
  in
  r.times <- (phase, (t1 -. t0) *. scale) :: r.times;
  if r.tracing then
    r.spans <-
      { sp_name = name; sp_phase = phase; sp_start = t0 -. r.origin; sp_stop = t1 -. r.origin }
      :: r.spans;
  v

let span_json s =
  J.Obj
    [
      ("name", J.Str s.sp_name);
      ("phase", J.Str (phase_name s.sp_phase));
      ("start_s", J.Float s.sp_start);
      ("dur_s", J.Float (s.sp_stop -. s.sp_start));
    ]

(* --- counters --- *)

(** Named sums over one pass. *)
type counters = (string, float) Hashtbl.t

let counters () : counters = Hashtbl.create 64

let add (c : counters) k v =
  Hashtbl.replace c k (v +. Option.value (Hashtbl.find_opt c k) ~default:0.0)

let addi c k n = add c k (float_of_int n)
let get (c : counters) k = Option.value (Hashtbl.find_opt c k) ~default:0.0
let bindings (c : counters) = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) c [])

(** The breakdown categories of {!Shasta.Breakdown}, as counter names. *)
let time_kinds = [ "task"; "read"; "write"; "mb"; "sync"; "msg"; "blocked" ]

(** [add_cluster c cl] — every layer counter a finished cluster exposes
    through its public accessors. *)
let add_cluster c cl =
  addi c "engine.events" (Sim.Engine.events_fired (C.sim cl));
  List.iter
    (fun h ->
      let s = R.pstats h in
      addi c "runtime.accesses" (R.accesses h);
      addi c "protocol.read_misses" s.E.read_misses;
      addi c "protocol.store_misses" s.E.store_misses;
      addi c "protocol.sc_misses" s.E.sc_misses;
      addi c "protocol.intra_hits" s.E.intra_hits;
      addi c "protocol.false_misses" s.E.false_misses;
      addi c "protocol.downgrades_direct" s.E.downgrades_direct;
      addi c "protocol.downgrades_msg" s.E.downgrades_msg;
      add c "protocol.read_stall_s" s.E.read_stall;
      add c "protocol.write_stall_s" s.E.write_stall)
    (C.runtimes cl);
  Array.iter
    (fun (r : E.rstat) ->
      addi c "protocol.invals" r.E.r_invals;
      addi c "protocol.recalls" r.E.r_recalls;
      addi c "protocol.data_bytes" r.E.r_data_bytes)
    (E.region_stats (C.protocol_engine cl));
  addi c "net.remote_msgs" (Mchan.Net.remote_messages cl.C.net);
  addi c "net.local_msgs" (Mchan.Net.local_messages cl.C.net);
  addi c "sync.messages" (Shasta.Sync.messages cl.C.sync);
  let b = C.total_breakdown cl in
  List.iter2
    (fun kind v -> add c ("time." ^ kind ^ "_s") v)
    time_kinds
    Shasta.Breakdown.[ b.task; b.read; b.write; b.mb; b.sync; b.msg; b.blocked ]
