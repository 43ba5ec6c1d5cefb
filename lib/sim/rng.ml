(** Deterministic splittable pseudo-random numbers (splitmix64).

    The simulator never uses [Random] from the standard library so that
    every run is reproducible from a single seed, and independent streams
    (one per simulated process, workload, etc.) can be split off without
    coupling their sequences. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [split t] is a new generator whose stream is independent of [t]'s. *)
let split t = { state = next_int64 t }

(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)
let int t bound =
  assert (bound > 0);
  (* Mask to OCaml's 63-bit non-negative range: a logical shift of the
     int64 still leaves bit 62 set sometimes, which is the native sign
     bit after [to_int]. *)
  let v = Int64.to_int (next_int64 t) land max_int in
  v mod bound

(** [float t bound] is uniform in [\[0, bound)]. *)
let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

(** [exponential t ~mean] samples an exponential inter-arrival time. *)
let exponential t ~mean =
  let u = ref (float t 1.0) in
  if !u = 0.0 then u := 1e-12;
  -.mean *. log !u

(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
