(** Ocean: red-black Gauss-Seidel relaxation over an n x n grid.

    Rows are partitioned contiguously across processors; each half-sweep
    ends with a barrier, so Ocean executes barriers at a high rate — the
    reason its transparent (LL/SC-based) runs slow down markedly in
    Figure 3: every barrier atomically increments a shared counter. *)

open Harness

let iterations = 8
let omega = 0.8

let init_value n i j =
  if i = 0 || j = 0 || i = n - 1 || j = n - 1 then 10.0
  else float_of_int ((i * 7) + (j * 3) mod 11) /. 11.0

let reference n =
  let g = Array.init n (fun i -> Array.init n (fun j -> init_value n i j)) in
  for _ = 1 to iterations do
    for color = 0 to 1 do
      for i = 1 to n - 2 do
        for j = 1 to n - 2 do
          if (i + j) land 1 = color then
            g.(i).(j) <-
              ((1.0 -. omega) *. g.(i).(j))
              +. (omega *. 0.25 *. (g.(i - 1).(j) +. g.(i + 1).(j) +. g.(i).(j - 1) +. g.(i).(j + 1)))
        done
      done
    done
  done;
  g

let make t ~size:n =
  if n < 2 then invalid_arg "Ocean: size must be at least 2";
  (* Pad rows to a whole number of coherence lines (as SPLASH-2 does), so
     that neighbouring processors' rows never share a line: the remaining
     communication is the true boundary-row sharing. *)
  let stride = (n + 7) / 8 * 8 in
  let g = alloc_farray ~granularity:512 t (stride * n) in
  let bar = make_barrier t in
  let idx i j = (i * stride) + j in
  (* Home placement: each processor's rows live at its own domain. *)
  for p = 0 to t.nprocs - 1 do
    let lo, hi = chunk ~n:(n - 2) ~nprocs:t.nprocs p in
    if hi > lo then
      place_home t
        ~addr:(g.base + (8 * idx (lo + 1) 0))
        ~len:(8 * (hi - lo) * stride)
        ~owner:p
  done;
  let body p h =
    if p = 0 then
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          fset h g (idx i j) (init_value n i j)
        done
      done;
    barrier t h bar;
    start_timing t;
    let lo, hi = chunk ~n:(n - 2) ~nprocs:t.nprocs p in
    let lo = lo + 1 and hi = hi + 1 in
    for _ = 1 to iterations do
      for color = 0 to 1 do
        (* The neighbours' boundary rows were invalidated by their last
           sweep; fetch them as one batched sequence rather than a chain
           of serial misses. *)
        if lo > 1 then batch_read h g (idx (lo - 1) 0) (idx (lo - 1) (n - 1));
        if hi < n - 1 then batch_read h g (idx hi 0) (idx hi (n - 1));
        for i = lo to hi - 1 do
          for j = 1 to n - 2 do
            if (i + j) land 1 = color then begin
              let v =
                ((1.0 -. omega) *. fget h g (idx i j))
                +. omega *. 0.25
                   *. (fget h g (idx (i - 1) j)
                      +. fget h g (idx (i + 1) j)
                      +. fget h g (idx i (j - 1))
                      +. fget h g (idx i (j + 1)))
              in
              fset h g (idx i j) v;
              (* The real Ocean's per-point work spans several grids of
                 the multigrid solver; ~60 cycles/point is its scale. *)
              R.work_cycles h 60
            end
          done
        done;
        barrier t h bar
      done
    done
  in
  let validate () =
    let r = reference n in
    let probes = [ (1, 1); (n / 2, n / 2); (n - 2, n - 2); (1, n - 2) ] in
    List.for_all
      (fun (i, j) ->
        match read_valid t.cluster (g.base + (8 * idx i j)) with
        | Some bits -> Float.abs (Int64.float_of_bits bits -. r.(i).(j)) < 1e-9
        | None -> false)
      probes
  in
  (body, validate)

let spec =
  {
    name = "Ocean";
    paper_seq = 4.29;
    paper_overhead = 0.23;
    paper_growth = 0.58;
    default_size = 66;
    make;
  }
