(* Shared command-line plumbing for the executables in this directory. *)

(** [usage_error flag msg] reports a bad option value the way [Arg]
    reports a bad option, ["<exe>: <flag>: <msg>"] on stderr, and exits
    with status 2. *)
let usage_error flag msg =
  Printf.eprintf "%s: %s: %s\n" (Filename.basename Sys.argv.(0)) flag msg;
  exit 2

(** [spec flag parse s] runs a spec parser on the value of [flag],
    turning its [Invalid_argument] into a {!usage_error}. *)
let spec flag parse s = try parse s with Invalid_argument msg -> usage_error flag msg

(** [faults ~nodes s] — the [--faults] plan of spec [s] (none for [""])
    for a cluster of [nodes] nodes, or a {!usage_error}. *)
let faults ~nodes s =
  if s = "" then Fault.Plan.empty
  else
    spec "--faults"
      (fun s ->
        let plan = Fault.Plan.of_spec s in
        Fault.Plan.check_nodes plan ~nodes;
        plan)
      s

(** [at_least flag lo v] is [v], or a {!usage_error} when [v < lo]. *)
let at_least flag lo v =
  if v < lo then usage_error flag (Printf.sprintf "must be at least %d, got %d" lo v) else v

(** [positive flag v] is the float [v], or a {!usage_error} unless it is
    finite and above 0. *)
let positive flag v =
  if Float.is_finite v && v > 0.0 then v
  else usage_error flag (Printf.sprintf "must be a finite number above 0, got %g" v)

(** [in_range flag lo hi v] is [v], or a {!usage_error} outside
    [\[lo, hi\]]. *)
let in_range flag lo hi v =
  if v < lo || v > hi then
    usage_error flag (Printf.sprintf "must be in [%d, %d], got %d" lo hi v)
  else v

(** [choice flag options s] is the value [options] pairs with [s], or a
    {!usage_error} naming the accepted values. *)
let choice flag options s =
  match List.assoc_opt s options with
  | Some v -> v
  | None ->
      usage_error flag
        (Printf.sprintf "unknown value %S (expected %s)" s
           (String.concat " | " (List.map fst options)))

(** [writable flag path] checks, before anything runs, that [path] can
    be opened for writing, or makes a {!usage_error} of the reason.  An
    existing file is left as it was; one the check creates is removed. *)
let writable flag path =
  let existed = Sys.file_exists path in
  (try close_out (open_out_gen [ Open_append; Open_creat ] 0o644 path)
   with Sys_error msg -> usage_error flag msg);
  if not existed then Sys.remove path

(** [print t] — one report table on stdout after a blank line: the
    {!Sim.Stats.pp_table} layout every tool prints. *)
let print t = Format.printf "@.%a" Sim.Stats.pp_table t
