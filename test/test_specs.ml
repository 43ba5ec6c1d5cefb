(* Fuzzing of the command-line spec parsers.  On any input string each
   parser either returns or raises [Invalid_argument] with a message
   naming the parser (the executables print it as a usage error), never
   another exception or a bare stdlib [Invalid_argument]; and
   every arrival process [Arrival.of_spec] accepts draws finite,
   positive inter-arrival gaps, so the arrival pump always advances
   simulated time. *)

(* Fragments of the three spec grammars plus edge-case numbers, so that
   concatenations reach past the first syntax check. *)
let tokens =
  [ "poisson"; "mmpp"; ":"; ","; "="; "@"; "-"; ";"; "*"; "k"; "m"; " "; "seed"; "drop";
    "dup"; "corrupt"; "delay"; "stall"; "crash"; "link"; "fine"; "0"; "1"; "2"; "64";
    "512"; "1m"; "0.05"; "1e-3"; "2e4"; "1e9"; "1e400"; "-1"; "inf"; "nan"; "-inf";
    "1e-400"; "0x10" ]

let number =
  QCheck.Gen.(
    oneof
      [
        oneofl [ "0"; "1"; "0.01"; "0.002"; "20000"; "1e9"; "1e10"; "1e-9"; "1e400"; "-1";
                 "inf"; "-inf"; "nan"; "1e-400"; "" ];
        map (Printf.sprintf "%.17g") float;
        map string_of_int small_signed_int;
      ])

let spec_gen =
  QCheck.Gen.(
    oneof
      [
        string;
        string_printable;
        map (String.concat "") (list_size (int_range 0 12) (oneofl tokens));
        map (( ^ ) "poisson:") number;
        map (fun ns -> "mmpp:" ^ String.concat "," ns) (list_size (int_range 3 5) number);
      ])

let arb_spec = QCheck.make ~print:(Printf.sprintf "%S") spec_gen

let own_error ~prefix msg = String.starts_with ~prefix msg

let returns_or_invalid_argument name ~prefix parse =
  QCheck.Test.make ~name ~count:2000 arb_spec (fun s ->
      match parse s with _ -> true | exception Invalid_argument msg -> own_error ~prefix msg)

let qcheck_fault_spec =
  returns_or_invalid_argument "fault plan spec parser raises only Invalid_argument"
    ~prefix:"Plan." Fault.Plan.of_spec

let qcheck_layout_spec =
  returns_or_invalid_argument "layout spec parser raises only Invalid_argument"
    ~prefix:"Layout" (Protocol.Layout.specs_of_spec ~size:(8 * 1024 * 1024))

let qcheck_arrival_spec =
  QCheck.Test.make ~name:"accepted arrival specs draw finite positive gaps" ~count:2000
    arb_spec (fun s ->
      match Load.Arrival.of_spec s with
      | exception Invalid_argument msg -> own_error ~prefix:"Arrival" msg
      | p ->
          let a = Load.Arrival.create ~seed:7 p in
          List.for_all
            (fun _ ->
              let gap = Load.Arrival.next a in
              Float.is_finite gap && gap > 0.0)
            (List.init 16 Fun.id))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ qcheck_fault_spec; qcheck_layout_spec; qcheck_arrival_spec ]
