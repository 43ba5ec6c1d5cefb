(** Open-loop arrival processes.

    A closed-loop script (each client waits for its previous request)
    can never drive the system past its knee: arrival rate collapses to
    service rate and tail latency stays flat.  The serving benchmarks
    instead draw arrival instants from a seeded stochastic process that
    keeps offering load no matter how slow the server gets.

    Two processes are provided:

    - [Poisson]: exponential inter-arrivals at a fixed rate λ — the
      standard open-loop model;
    - [Mmpp]: a two-state Markov-modulated Poisson process — dwell in a
      quiet state at [rate0] for an exponential time of mean [dwell0],
      then burst at [rate1] for mean [dwell1], and so on.  This is the
      bursty, asymmetric demand that closed-loop TPC scripts cannot
      express.

    All randomness comes from {!Sim.Rng}, so a given seed reproduces the
    identical arrival sequence bit for bit. *)

type process =
  | Poisson of { rate : float }
  | Mmpp of { rate0 : float; dwell0 : float; rate1 : float; dwell1 : float }

(* Rates (req/s) and dwell times (s) must lie in [1e-9, 1e9], which
   excludes 0, infinities and NaN.  Then every exponential draw in
   {!next} is a finite positive gap; an infinite rate would draw zero
   gaps and the arrival pump would never advance simulated time.  An
   MMPP must also expect at least 1e-6 arrivals per quiet+burst cycle,
   or {!next} would spin through state switches between arrivals. *)
let in_range x = x >= 1e-9 && x <= 1e9

let validate = function
  | Poisson { rate } ->
      if not (in_range rate) then invalid_arg "Arrival: rate must be in [1e-9, 1e9] req/s"
  | Mmpp { rate0; dwell0; rate1; dwell1 } ->
      if not (List.for_all in_range [ rate0; dwell0; rate1; dwell1 ]) then
        invalid_arg "Arrival: MMPP rates and dwell times must be in [1e-9, 1e9]";
      if (rate0 *. dwell0) +. (rate1 *. dwell1) < 1e-6 then
        invalid_arg "Arrival: MMPP must expect at least 1e-6 arrivals per state cycle"

(** [mean_rate p] — the long-run arrival rate (requests/second). *)
let mean_rate = function
  | Poisson { rate } -> rate
  | Mmpp { rate0; dwell0; rate1; dwell1 } ->
      ((rate0 *. dwell0) +. (rate1 *. dwell1)) /. (dwell0 +. dwell1)

(** [scale_to p target] — [p] with every rate scaled so the long-run
    mean is [target]; preserves the burst shape, which is how one MMPP
    spec is swept across offered loads. *)
let scale_to p target =
  let f = target /. mean_rate p in
  match p with
  | Poisson { rate } -> Poisson { rate = rate *. f }
  | Mmpp m -> Mmpp { m with rate0 = m.rate0 *. f; rate1 = m.rate1 *. f }

type t = {
  rng : Sim.Rng.t;
  proc : process;
  mutable state : int;  (** MMPP: 0 = quiet, 1 = burst *)
  mutable dwell_left : float;
}

let create ~seed proc =
  validate proc;
  let rng = Sim.Rng.create seed in
  let dwell_left =
    match proc with
    | Poisson _ -> 0.0
    | Mmpp { dwell0; _ } -> Sim.Rng.exponential rng ~mean:dwell0
  in
  { rng; proc; state = 0; dwell_left }

(** [next t] — the next inter-arrival time, seconds. *)
let next t =
  match t.proc with
  | Poisson { rate } -> Sim.Rng.exponential t.rng ~mean:(1.0 /. rate)
  | Mmpp { rate0; dwell0; rate1; dwell1 } ->
      (* Draw at the current state's rate; if the candidate falls past
         the end of the dwell, move to the state boundary and redraw —
         exact by memorylessness of the exponential. *)
      let rec go acc =
        let rate = if t.state = 0 then rate0 else rate1 in
        let dt = Sim.Rng.exponential t.rng ~mean:(1.0 /. rate) in
        if dt <= t.dwell_left then begin
          t.dwell_left <- t.dwell_left -. dt;
          acc +. dt
        end
        else begin
          let acc = acc +. t.dwell_left in
          t.state <- 1 - t.state;
          t.dwell_left <-
            Sim.Rng.exponential t.rng ~mean:(if t.state = 0 then dwell0 else dwell1);
          go acc
        end
      in
      go 0.0

let spec_help =
  "poisson:RATE | mmpp:RATE0,DWELL0,RATE1,DWELL1 (rates in req/s, dwells in s)"

(** [of_spec s] — parse an arrival spec, e.g. ["poisson:50000"] or
    ["mmpp:10000,0.01,200000,0.002"]. *)
let of_spec s =
  let fail () = invalid_arg (Printf.sprintf "Arrival.of_spec %S; expected %s" s spec_help) in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let floats () =
        try List.map float_of_string (String.split_on_char ',' rest) with _ -> fail ()
      in
      match kind with
      | "poisson" -> (
          match floats () with
          | [ rate ] ->
              let p = Poisson { rate } in
              validate p;
              p
          | _ -> fail ())
      | "mmpp" -> (
          match floats () with
          | [ rate0; dwell0; rate1; dwell1 ] ->
              let p = Mmpp { rate0; dwell0; rate1; dwell1 } in
              validate p;
              p
          | _ -> fail ())
      | _ -> fail ())

let to_spec = function
  | Poisson { rate } -> Printf.sprintf "poisson:%g" rate
  | Mmpp { rate0; dwell0; rate1; dwell1 } ->
      Printf.sprintf "mmpp:%g,%g,%g,%g" rate0 dwell0 rate1 dwell1
