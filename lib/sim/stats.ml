(** Online statistics: counters, mean/variance accumulators, log-spaced
    histograms.

    Used by the protocol and the benchmark harness to report message
    counts, miss latencies and time breakdowns. *)

type counter = { mutable count : int }

let counter () = { count = 0 }
let incr_counter c = c.count <- c.count + 1
let counter_value c = c.count

(** Welford's online mean/variance, plus min/max. *)
type summary = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let summary () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

let observe s x =
  s.n <- s.n + 1;
  let delta = x -. s.mean in
  s.mean <- s.mean +. (delta /. float_of_int s.n);
  s.m2 <- s.m2 +. (delta *. (x -. s.mean));
  if x < s.min then s.min <- x;
  if x > s.max then s.max <- x

let count s = s.n
let mean s = if s.n = 0 then 0.0 else s.mean
let variance s = if s.n < 2 then 0.0 else s.m2 /. float_of_int (s.n - 1)
let stddev s = sqrt (variance s)
let minimum s = s.min
let maximum s = s.max
let total s = s.mean *. float_of_int s.n

(** Log-spaced (HDR-style) histogram: bucket boundaries grow
    geometrically, so relative resolution is constant across the whole
    range and tail quantiles (p99, p999) stay accurate however long the
    tail.

    [per_decade] buckets cover each factor of ten, so the relative width
    of one bucket is [10^(1/per_decade) - 1] (about 4.7% at the default
    50/decade).  Exact minimum and maximum are tracked so the extreme
    quantiles (p0, p100) are exact and every estimate is clamped into
    the observed range. *)
type log_histogram = {
  l_lo : float;  (** smallest resolvable value; smaller ones count in [l_under] *)
  l_per_decade : float;
  l_bins : int array;
  mutable l_under : int;
  mutable l_over : int;
  mutable l_count : int;
  mutable l_sum : float;
  mutable l_min : float;
  mutable l_max : float;
}

let log_histogram ?(per_decade = 50) ~lo ~hi () =
  if lo <= 0.0 || hi <= lo || per_decade <= 0 then invalid_arg "Stats.log_histogram";
  let nbins = int_of_float (ceil (log10 (hi /. lo) *. float_of_int per_decade)) in
  {
    l_lo = lo;
    l_per_decade = float_of_int per_decade;
    l_bins = Array.make (max nbins 1) 0;
    l_under = 0;
    l_over = 0;
    l_count = 0;
    l_sum = 0.0;
    l_min = infinity;
    l_max = neg_infinity;
  }

let log_index h x = int_of_float (Float.log10 (x /. h.l_lo) *. h.l_per_decade)

let log_record h x =
  h.l_count <- h.l_count + 1;
  h.l_sum <- h.l_sum +. x;
  if x < h.l_min then h.l_min <- x;
  if x > h.l_max then h.l_max <- x;
  if x < h.l_lo then h.l_under <- h.l_under + 1
  else
    let i = log_index h x in
    if i >= Array.length h.l_bins then h.l_over <- h.l_over + 1
    else h.l_bins.(i) <- h.l_bins.(i) + 1

let log_observations h = h.l_count
let log_mean h = if h.l_count = 0 then 0.0 else h.l_sum /. float_of_int h.l_count
let log_min h = h.l_min
let log_max h = h.l_max

(* Geometric midpoint of bucket [i]: sqrt(lower * upper) in log space. *)
let log_bucket_mid h i = h.l_lo *. (10.0 ** ((float_of_int i +. 0.5) /. h.l_per_decade))

(** [log_percentile h p] — the [p]-th percentile (0-100).  Estimates are
    bucket midpoints clamped to the exact observed [min, max], so p0 and
    p100 are exact and every estimate is within one bucket's relative
    width of the true sample quantile. *)
let log_percentile h p =
  if h.l_count = 0 then 0.0
  else if p <= 0.0 then h.l_min
  else if p >= 100.0 then h.l_max
  else begin
    let clamp v = Float.min h.l_max (Float.max h.l_min v) in
    let target = int_of_float (ceil (float_of_int h.l_count *. p /. 100.0)) in
    let target = if target < 1 then 1 else target in
    let acc = ref h.l_under in
    if !acc >= target then h.l_min
    else begin
      let result = ref h.l_max in
      (try
         Array.iteri
           (fun i n ->
             acc := !acc + n;
             if !acc >= target then begin
               result := clamp (log_bucket_mid h i);
               raise Exit
             end)
           h.l_bins
       with Exit -> ());
      !result
    end
  end

(** [log_merge dst src] — add [src]'s counts into [dst]; both must have
    been created with the same [lo]/[hi]/[per_decade]. *)
let log_merge dst src =
  if
    dst.l_lo <> src.l_lo
    || dst.l_per_decade <> src.l_per_decade
    || Array.length dst.l_bins <> Array.length src.l_bins
  then invalid_arg "Stats.log_merge: shape mismatch";
  Array.iteri (fun i n -> dst.l_bins.(i) <- dst.l_bins.(i) + n) src.l_bins;
  dst.l_under <- dst.l_under + src.l_under;
  dst.l_over <- dst.l_over + src.l_over;
  dst.l_count <- dst.l_count + src.l_count;
  dst.l_sum <- dst.l_sum +. src.l_sum;
  if src.l_min < dst.l_min then dst.l_min <- src.l_min;
  if src.l_max > dst.l_max then dst.l_max <- src.l_max

(** [log_nonzero h] — the sparse bucket contents as [(index, count)]
    pairs (index -1 is the underflow bin, [Array.length] the overflow
    bin), for serialisation and bit-identical comparison of runs. *)
let log_nonzero h =
  let acc = ref [] in
  if h.l_over > 0 then acc := (Array.length h.l_bins, h.l_over) :: !acc;
  for i = Array.length h.l_bins - 1 downto 0 do
    if h.l_bins.(i) > 0 then acc := (i, h.l_bins.(i)) :: !acc
  done;
  if h.l_under > 0 then acc := (-1, h.l_under) :: !acc;
  !acc

(* --- host GC accounting (for the speed benches and --gc-stats) --- *)

(** Host-side allocation between two marks: how much real memory churn a
    simulation run cost, reported alongside events/sec so allocation
    regressions in the event core are visible. *)
type gc_delta = {
  gc_minor_words : float;
  gc_major_words : float;
  gc_promoted_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
  gc_compactions : int;
}

let gc_mark () = Gc.quick_stat ()

let gc_delta (a : Gc.stat) =
  let b = Gc.quick_stat () in
  {
    gc_minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    gc_major_words = b.Gc.major_words -. a.Gc.major_words;
    gc_promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
    gc_minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
    gc_major_collections = b.Gc.major_collections - a.Gc.major_collections;
    gc_compactions = b.Gc.compactions - a.Gc.compactions;
  }

let pp_gc_delta ppf d =
  Format.fprintf ppf
    "minor %.1f Mw, major %.1f Mw, promoted %.1f Mw, collections %d minor / %d major, %d compactions"
    (d.gc_minor_words /. 1e6) (d.gc_major_words /. 1e6) (d.gc_promoted_words /. 1e6)
    d.gc_minor_collections d.gc_major_collections d.gc_compactions
