(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- paper   -- all of Section 6, into BENCH_paper.json
     dune exec bench/main.exe -- table1  -- one experiment
     dune exec bench/main.exe -- --commit ID paper
                                         -- records ID in every BENCH_*.json

   Experiments: paper table1 table2 table3 figure3 figure4 table4 figure5
   mb rewrite_time ablation micro faults checker granularity
   granularity_smoke rce serve serve_smoke scale scale_smoke speed
   speed_smoke lint lint_smoke *)

let paper_experiments =
  [
    ("table1", Experiments.table1);
    ("table2", Experiments.table2);
    ("table3", Experiments.table3);
    ("figure3", Experiments.figure3);
    ("figure4", Experiments.figure4);
    ("table4", Experiments.table4);
    ("figure5", Experiments.figure5);
    ("mb", Experiments.mb_bench);
    ("rewrite_time", Experiments.rewrite_time);
    ("ablation", Experiments.ablation);
  ]

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "[%s: %.1f s host time]\n" name (Unix.gettimeofday () -. t0);
  r

let printed f () =
  let tables = f () in
  List.iter Support.print tables;
  tables

(* A run that failed its own validation fails the target. *)
let check tables =
  match Support.failures tables with
  | [] -> ()
  | failed ->
      List.iter (Printf.printf "FAIL %s failed validation\n") failed;
      exit 1

(* Every Section 6 table once: printed, then written as BENCH_paper.json.
   Its cells are simulated, so a fresh run reproduces the committed file
   exactly. *)
let paper () =
  let tables = List.concat_map (fun (name, f) -> timed name (printed f)) paper_experiments in
  Support.emit ~file:"BENCH_paper.json" ~bench:"paper" [ Load.Json.tables tables ];
  check tables

let experiments =
  List.map (fun (name, f) -> (name, fun () -> check (printed f ()))) paper_experiments
  @ [
      ("paper", paper);
      ("micro", Micro.run_micro);
      ("faults", Faults.run_faults);
      ("checker", Checker.run_checker);
      ("granularity", Granularity.run_granularity);
      ("granularity_smoke", Granularity.run_granularity_smoke);
      ("rce", Rce.run_rce);
      ("serve", Serve.run_serve);
      ("serve_smoke", Serve.run_serve_smoke);
      ("scale", Scale.run_scale);
      ("scale_smoke", Scale.run_scale_smoke);
      ("speed", Speed.run_speed);
      ("speed_smoke", Speed.run_speed_smoke);
      ("lint", Lint.run_lint);
      ("lint_smoke", Lint.run_lint_smoke);
    ]

(* [--commit ID] anywhere among the experiment names. *)
let rec take_commit = function
  | "--commit" :: id :: rest when id <> "" && id.[0] <> '-' ->
      Support.commit := Some id;
      take_commit rest
  | "--commit" :: _ ->
      prerr_endline "main.exe: --commit: expects a commit id";
      exit 2
  | a :: rest -> a :: take_commit rest
  | [] -> []

let () =
  let args =
    match Array.to_list Sys.argv with
    | _ :: rest -> take_commit (List.filter (fun a -> a <> "--") rest)
    | [] -> []
  in
  let to_run =
    match args with
    | [] ->
        (* [paper] runs each Section 6 experiment; no experiment twice. *)
        List.filter (fun (n, _) -> not (List.mem_assoc n paper_experiments)) experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %S; known: %s\n" n
                  (String.concat " " (List.map fst experiments));
                exit 1)
          names
  in
  Printf.printf "Shasta reproduction benchmarks (simulated 4x4-processor Memory Channel cluster)\n";
  List.iter (fun (name, f) -> timed name f) to_run
