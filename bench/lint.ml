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

   Both comparisons, with the agreement verdicts, land in
   BENCH_lint.json via the shared envelope. *)

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
  Support.print
    {
      Sim.Stats.title = "Affinity lint: fs-twin false-sharing cross-check";
      columns =
        [ "hot_block_bytes"; "elapsed_ms"; "hot_invals"; "hot_read_misses"; "hot_store_misses" ];
      rows =
        List.map
          (fun (label, (r : I.spmd_result)) ->
            let st = region_stat r "hot" in
            ( label,
              Sim.Stats.Float (1000.0 *. r.I.s_elapsed)
              :: Sim.Stats.ints
                   Protocol.Engine.[ st.r_invals; st.r_read_misses; st.r_store_misses ] ))
          [ ("512", coarse); (string_of_int suggested, fine) ];
    };
  Printf.printf "static: %s (suggest %dB)   dynamic: %s (%d -> %d store misses)   %s\n"
    (Rewrite.Affinity.kind_name hint.Rewrite.Affinity.h_kind)
    suggested
    (if dynamic_fs then "false sharing confirmed" else "no false sharing seen")
    st_coarse st_fine
    (if fs_agree then "AGREE" else "DISAGREE");

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
  Support.print
    {
      Sim.Stats.title = "Affinity lint: mdb-sync migratory cross-check";
      columns = [ "homing"; "elapsed_ms"; "migrations"; "hot_invals" ];
      rows =
        List.map
          (fun (label, (r : I.spmd_result)) ->
            ( label,
              Sim.Stats.
                [
                  Float (1000.0 *. r.I.s_elapsed); Int r.I.s_migrations;
                  Int (region_stat r "hot").Protocol.Engine.r_invals;
                ] ))
          [ ("static", hstatic); ("migratory", hmig) ];
    };
  Printf.printf "static: %s   dynamic: %d migrations, %.2f -> %.2f ms   %s\n"
    (match mhint.Rewrite.Affinity.h_homing with
    | Some h -> "homing=" ^ Rewrite.Affinity.homing_name h
    | None -> "no homing hint")
    hmig.I.s_migrations (1000.0 *. hstatic.I.s_elapsed) (1000.0 *. hmig.I.s_elapsed)
    (if mdb_agree then "AGREE" else "DISAGREE");

  Load.Json.emit ~file:out_file ~bench:"lint"
    ~meta:[ ("nodes", Load.Json.Int nodes); ("nprocs", Load.Json.Int nprocs); ("iters", Load.Json.Int iters) ]
    [
      ( "fs_twin",
        Load.Json.Obj
          [
            ("static_kind", Load.Json.Str (Rewrite.Affinity.kind_name hint.Rewrite.Affinity.h_kind));
            ("static_suggest", Load.Json.Int suggested);
            ("store_misses_coarse", Load.Json.Int st_coarse);
            ("store_misses_fine", Load.Json.Int st_fine);
            ("invals_coarse", Load.Json.Int inv_coarse);
            ("invals_fine", Load.Json.Int inv_fine);
            ("elapsed_coarse_ms", Load.Json.Float (1000.0 *. coarse.I.s_elapsed));
            ("elapsed_fine_ms", Load.Json.Float (1000.0 *. fine.I.s_elapsed));
            ("agree", Load.Json.Bool fs_agree);
          ] );
      ( "mdb_sync",
        Load.Json.Obj
          [
            ( "static_homing",
              match mhint.Rewrite.Affinity.h_homing with
              | None -> Load.Json.Null
              | Some h -> Load.Json.Str (Rewrite.Affinity.homing_name h) );
            ("migrations_static", Load.Json.Int hstatic.I.s_migrations);
            ("migrations_migratory", Load.Json.Int hmig.I.s_migrations);
            ("elapsed_static_ms", Load.Json.Float (1000.0 *. hstatic.I.s_elapsed));
            ("elapsed_migratory_ms", Load.Json.Float (1000.0 *. hmig.I.s_elapsed));
            ("agree", Load.Json.Bool mdb_agree);
          ] );
    ];
  if not (fs_agree && mdb_agree) then failwith "lint bench: static and dynamic verdicts disagree"

let run_lint () = run_lint_with ~iters:200 ~out_file:"BENCH_lint.json" ()
let run_lint_smoke () = run_lint_with ~iters:25 ~out_file:"BENCH_lint_smoke.json" ()
