(** Online statistics: log-spaced histograms, host GC deltas, and the
    report table every layer's metrics leave the library through.

    Used by the load recorder for per-request latency percentiles, by
    the benchmark harnesses to report host allocation, and by the CLIs'
    [--metrics] reports. *)

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

(* --- host GC accounting (for the speed benches and --metrics) --- *)

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

(* [Gc.quick_stat]'s [minor_words] leaves out the current minor heap
   (OCaml 5.1); [Gc.minor_words] counts it. *)
let gc_mark () = { (Gc.quick_stat ()) with Gc.minor_words = Gc.minor_words () }

let gc_delta (a : Gc.stat) =
  let b = gc_mark () in
  {
    gc_minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    gc_major_words = b.Gc.major_words -. a.Gc.major_words;
    gc_promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
    gc_minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
    gc_major_collections = b.Gc.major_collections - a.Gc.major_collections;
    gc_compactions = b.Gc.compactions - a.Gc.compactions;
  }

(* --- report tables --- *)

type cell = Int of int | Float of float | Str of string

(** A report table.  Counters live in each layer's typed records; a
    layer builds its tables from them at report time, and one printer
    ({!pp_table}) and one JSON encoder ([Load.Json.of_table]) show every
    table.  [columns] names the key column, then each cell, with units
    in the name ([task_ms], [data_bytes]); a row is its key (a node,
    link, region, pid or rate) and one cell per remaining column. *)
type table = { title : string; columns : string list; rows : (string * cell list) list }

let ints = List.map (fun n -> Int n)

(** [pp_table ppf t] — the title (when not empty), then a fixed-width
    aligned text table: key column left-aligned, cells right-aligned,
    floats to three decimals. *)
let pp_table ppf t =
  let text = function Int n -> string_of_int n | Float x -> Printf.sprintf "%.3f" x | Str s -> s in
  let lines = t.columns :: List.map (fun (key, cells) -> key :: List.map text cells) t.rows in
  let widths = Array.make (List.length t.columns) 0 in
  List.iter (List.iteri (fun i s -> widths.(i) <- max widths.(i) (String.length s))) lines;
  let print_line line =
    let cell i s = Format.fprintf ppf (if i = 0 then "%-*s" else "  %*s") widths.(i) s in
    List.iteri cell line;
    Format.fprintf ppf "@."
  in
  if t.title <> "" then Format.fprintf ppf "%s@." t.title;
  print_line t.columns;
  let rule = Array.fold_left ( + ) (2 * (Array.length widths - 1)) widths in
  Format.fprintf ppf "%s@." (String.make rule '-');
  List.iter print_line (List.tl lines)
