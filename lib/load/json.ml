(** Minimal JSON values and a deterministic printer.

    The load subsystem, the serve CLI and the benchmark harness all emit
    machine-readable results (the [BENCH_*.json] trajectory files); this
    keeps them dependency-free and byte-reproducible: the same value
    always prints to the same string, so a fixed seed yields a
    bit-identical report. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* %.12g keeps latencies in microseconds exact to well below a cycle
   while printing identically across runs; non-finite floats have no
   JSON spelling and become null. *)
let float_str x =
  if Float.is_nan x || x = infinity || x = neg_infinity then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.12g" x

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float x -> Buffer.add_string b (float_str x)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          emit b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          emit b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  emit b v;
  Buffer.contents b

let write_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc

(** [of_table t] — a {!Sim.Stats.table} as [{"title", "rows"}], one
    object per row keyed by the table's column names. *)
let of_table (t : Sim.Stats.table) =
  let cell : Sim.Stats.cell -> t = function Int n -> Int n | Float x -> Float x | Str s -> Str s in
  let row (key, cells) = Obj (List.combine t.columns (Str key :: List.map cell cells)) in
  Obj [ ("title", Str t.title); ("rows", List (List.map row t.rows)) ]

(** [tables ts] — the ["tables"] field of a report: each table through
    {!of_table}. *)
let tables ts = ("tables", List (List.map of_table ts))

(** [emit ~file ~bench ?commit ?meta fields] — the shared report
    envelope: a deterministic JSON document tagged with the producing
    bench/tool name and its provenance (host core count, OCaml version,
    and the source commit when the caller names one), so every
    machine-readable artifact (BENCH_*.json trajectory files, serve
    reports, lint reports) is self-describing and has the same
    top-level shape. *)
let emit ~file ~bench ?commit ?(meta = []) fields =
  let cores = Domain.recommended_domain_count () in
  let commit = match commit with Some c -> [ ("commit", Str c) ] | None -> [] in
  write_file file
    (Obj
       ((("bench", Str bench) :: ("host_cores", Int cores) :: ("ocaml", Str Sys.ocaml_version)
        :: commit)
       @ meta @ fields));
  Printf.printf "wrote %s\n" file
