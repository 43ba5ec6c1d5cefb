(* Static affinity hints vs dynamic per-region counters (DESIGN §17).

   The affinity lint claims it can predict, before any run, which
   regions false-share and which data is migratory.  This bench holds
   it to that:

   - fs-twin (the granularity micro's IR twin): the static report under
     a coarse 512B hot region says "false sharing, use 64B"; the kernel
     then runs under both layouts on a 4-node cluster, and the hot
     region's invalidation counter must collapse under the suggested
     blocks — the dynamic verdict the static one is checked against.

   - mdb-sync (the migratory app): the static report says "Migratory
     homing"; the kernel then runs under Static and Migratory homing,
     and the migratory run must actually engage (home transfers > 0),
     confirming the record really is handed around the cluster.

   Each cross-check is one table row: the static hint, the dynamic
   counters under both configurations, the dynamic verdict and their
   agreement.  Both tables are printed and land in BENCH_lint.json
   under "tables". *)

module I = Apps.Ircorpus
module L = Protocol.Layout

let instrument prog = fst (Rewrite.Instrument.instrument prog)

(* Two-region layouts covering the runner's 1 MiB shared segment: the
   hot region under test plus a coarse bulk region for the rest,
   distinct block sizes so the runner's granularity hints keep hot and
   bulk allocations (and so their counters) apart. *)
let shared = 1 lsl 20

let layout ~hot_block =
  [
    { L.rs_name = "hot"; rs_size = 64 * 1024; rs_block = hot_block };
    { L.rs_name = "bulk"; rs_size = shared - (64 * 1024); rs_block = 1024 };
  ]

let region_stat (r : I.spmd_result) name =
  try List.assoc name r.I.s_regions
  with Not_found -> failwith ("lint bench: no region " ^ name)

let static_hints ~nprocs ~hot_block (e : I.entry) =
  let r = Rewrite.Races.analyze ~nprocs e.I.e_program in
  Rewrite.Affinity.report
    ~bindings:
      [
        { Rewrite.Affinity.bd_arg = 0; bd_region = "hot"; bd_block = hot_block; bd_size = 64 * 1024 };
        { Rewrite.Affinity.bd_arg = 1; bd_region = "bulk"; bd_block = 1024; bd_size = 64 * 1024 };
      ]
    r

let hot_hint hints = List.find (fun h -> h.Rewrite.Affinity.h_region = "hot") hints

let run_lint_with ~iters ~out_file () =
  let nodes = 4 and cpus_per_node = 2 in
  let nprocs = nodes * cpus_per_node in

  (* --- fs-twin: false sharing --- *)
  let fs = I.find_sync "fs-twin" in
  let hint = hot_hint (static_hints ~nprocs ~hot_block:512 fs) in
  let static_fs = hint.Rewrite.Affinity.h_kind = Rewrite.Affinity.False_sharing in
  let suggested = hint.Rewrite.Affinity.h_suggest in
  let prog = instrument fs.I.e_program in
  let coarse = I.run_spmd ~nodes ~cpus_per_node ~nprocs ~iters ~regions:(layout ~hot_block:512) prog fs in
  let fine =
    I.run_spmd ~nodes ~cpus_per_node ~nprocs ~iters ~regions:(layout ~hot_block:suggested) prog fs
  in
  let inv_coarse = (region_stat coarse "hot").Protocol.Engine.r_invals in
  let inv_fine = (region_stat fine "hot").Protocol.Engine.r_invals in
  let st_coarse = (region_stat coarse "hot").Protocol.Engine.r_store_misses in
  let st_fine = (region_stat fine "hot").Protocol.Engine.r_store_misses in
  (* The dynamic verdict: under coarse blocks every writer's private
     slot shares an ownership unit with its neighbours, so exclusive
     ownership ping-pongs and the hot region's store misses explode;
     the suggested blocks must kill most of them. *)
  let dynamic_fs = st_coarse > 2 * st_fine in
  let fs_agree = static_fs && dynamic_fs in
  let rd_coarse = (region_stat coarse "hot").Protocol.Engine.r_read_misses in
  let rd_fine = (region_stat fine "hot").Protocol.Engine.r_read_misses in
  let fs_table =
    {
      Sim.Stats.title = "Affinity lint: fs-twin false-sharing cross-check";
      columns =
        [ "kernel"; "static_kind"; "static_suggest"; "store_misses_coarse"; "store_misses_fine";
          "invals_coarse"; "invals_fine"; "read_misses_coarse"; "read_misses_fine";
          "elapsed_coarse_ms"; "elapsed_fine_ms"; "dynamic"; "agree" ];
      rows =
        [
          ( "fs-twin",
            Sim.Stats.(
              Str (Rewrite.Affinity.kind_name hint.Rewrite.Affinity.h_kind)
              :: ints [ suggested; st_coarse; st_fine; inv_coarse; inv_fine; rd_coarse; rd_fine ]
              @ [
                  Float (1000.0 *. coarse.I.s_elapsed); Float (1000.0 *. fine.I.s_elapsed);
                  Str (if dynamic_fs then "false-sharing" else "none");
                  Str (string_of_bool fs_agree);
                ]) );
        ];
    }
  in

  (* --- mdb-sync: migratory homing --- *)
  let mdb = I.find_sync "mdb-sync" in
  let mhint = hot_hint (static_hints ~nprocs ~hot_block:64 mdb) in
  let static_mig = mhint.Rewrite.Affinity.h_homing = Some Protocol.Config.Migratory in
  let mprog = instrument mdb.I.e_program in
  (* Threshold 1 = "home follows the current exclusive owner".  The
     lock hands the record to a different domain every critical
     section, so no domain ever issues two consecutive exclusive
     requests and any streak threshold above 1 is structurally unable
     to fire on genuinely migratory data. *)
  let run_homing homing =
    I.run_spmd ~nodes ~cpus_per_node ~nprocs ~iters ~regions:(layout ~hot_block:64) ~homing
      ~migration_threshold:1 mprog mdb
  in
  let hstatic = run_homing Protocol.Config.Static in
  let hmig = run_homing Protocol.Config.Migratory in
  let dynamic_mig = hmig.I.s_migrations > 0 in
  let mdb_agree = static_mig && dynamic_mig in
  let mdb_table =
    {
      Sim.Stats.title = "Affinity lint: mdb-sync migratory cross-check";
      columns =
        [ "kernel"; "static_homing"; "migrations_static"; "migrations_migratory";
          "invals_static"; "invals_migratory"; "elapsed_static_ms"; "elapsed_migratory_ms";
          "dynamic"; "agree" ];
      rows =
        [
          ( "mdb-sync",
            Sim.Stats.(
              Str
                (match mhint.Rewrite.Affinity.h_homing with
                | Some h -> Rewrite.Affinity.homing_name h
                | None -> "none")
              :: ints
                   [ hstatic.I.s_migrations; hmig.I.s_migrations;
                     (region_stat hstatic "hot").Protocol.Engine.r_invals;
                     (region_stat hmig "hot").Protocol.Engine.r_invals ]
              @ [
                  Float (1000.0 *. hstatic.I.s_elapsed); Float (1000.0 *. hmig.I.s_elapsed);
                  Str (if dynamic_mig then "migratory" else "none");
                  Str (string_of_bool mdb_agree);
                ]) );
        ];
    }
  in
  let tables = [ fs_table; mdb_table ] in
  List.iter Support.print tables;
  Support.emit ~file:out_file ~bench:"lint"
    ~meta:[ ("nodes", Load.Json.Int nodes); ("nprocs", Load.Json.Int nprocs); ("iters", Load.Json.Int iters) ]
    [ Load.Json.tables tables ];
  if not (fs_agree && mdb_agree) then failwith "lint bench: static and dynamic verdicts disagree"

let run_lint () = run_lint_with ~iters:200 ~out_file:"BENCH_lint.json" ()
let run_lint_smoke () = run_lint_with ~iters:25 ~out_file:"BENCH_lint_smoke.json" ()
