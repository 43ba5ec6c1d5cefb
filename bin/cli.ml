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
