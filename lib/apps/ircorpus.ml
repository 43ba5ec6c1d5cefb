(** An IR corpus: one representative Alpha kernel per SPLASH-2 registry
    application plus minidb, for exercising the rewriter end to end.

    The registry apps ({!Registry}) drive the protocol through the
    runtime API; these kernels express the same access shapes as real
    instruction streams so the static passes ({!Rewrite.Verify},
    {!Rewrite.Optimize}) have something faithful to chew on: pointer
    chases through shared memory, procedure calls inside loops,
    branch diamonds that re-touch the same lines (inter-block
    redundancy), float sweeps, LL/SC locks with MBs, and private stack
    traffic that the dataflow analysis must leave unchecked.

    Every kernel is deterministic and self-contained: called as
    [main(a0 = shared array, a1 = shared aux/lock, a2 = iterations)],
    it initialises its own memory, loops [a2] times, and leaves a
    checksum in [r0] — so an instrumented and an optimized run can be
    compared bit for bit over [r0] and the final memory image. *)

module C = Shasta.Cluster
module R = Shasta.Runtime

type entry = {
  e_name : string;
  e_descr : string;
  e_program : Alpha.Program.t;  (** uninstrumented *)
  e_mem_words : int;  (** 8-byte words of [a0] the kernel uses *)
  e_iters : int;  (** default [a2] *)
}

let k name descr ~mem ~iters procs =
  { e_name = name; e_descr = descr; e_program = Alpha.Asm.program procs; e_mem_words = mem; e_iters = iters }

(* Float "registers" by number; the Asm DSL takes plain ints. *)
let f0 = 0
let f1 = 1
let f2 = 2
let f3 = 3
let f4 = 4

let all =
  [
    (* Pointer chase with a helper call in the loop: the call clobbers
       register classes, so the chased pointer is re-checked each
       iteration. *)
    k "barnes" "pointer chase through a shared node array, helper call per step" ~mem:10 ~iters:40
      Alpha.Asm.(
        [
          proc "main"
            [
              mov a0 s0;
              li s1 0L;
              label "init";
              slli s1 3 t0;
              add s0 t0 t0;
              muli s1 3 t1;
              addi t1 1 t1;
              stq t1 0 t0;
              addi s1 1 s1;
              cmplti s1 8 t2;
              bne t2 "init";
              stq s0 64 s0 (* arr[8] = &arr: a pointer living in shared memory *);
              li v0 0L;
              label "outer";
              ldq t3 64 s0 (* reload the chased pointer *);
              ldq t4 0 t3;
              add v0 t4 v0;
              call "accum";
              subi a2 1 a2;
              bgt a2 "outer";
              stq v0 72 s0;
              halt;
            ];
          proc "accum" [ ldq t6 8 a0; add v0 t6 v0; ret ];
        ]);
    (* Float sweep with a threshold diamond; the in-block load+store of
       the same cell is a batch-dedup opportunity. *)
    k "fmm" "float sweep, per-cell load+store, threshold diamond" ~mem:10 ~iters:30
      Alpha.Asm.(
        [
          proc "main"
            [
              mov a0 s0;
              li s1 0L;
              label "init";
              slli s1 3 t0;
              add s0 t0 t0;
              cvt_if s1 f0;
              lif f1 1.5;
              fmul f0 f1 f2;
              stt f2 0 t0;
              addi s1 1 s1;
              cmplti s1 8 t1;
              bne t1 "init";
              li v0 0L;
              label "sweep";
              andi a2 7 t2;
              slli t2 3 t2;
              add s0 t2 t2;
              ldt f0 0 t2;
              lif f1 1.125;
              fmul f0 f1 f3;
              stt f3 0 t2 (* same cell as the load: dedups in the batch *);
              lif f4 40.0;
              fcmp Gt f3 f4 t3;
              beq t3 "small";
              ldq t4 0 t2 (* covered by the store fact above *);
              add v0 t4 v0;
              label "small";
              subi a2 1 a2;
              bgt a2 "sweep";
              stq v0 72 s0;
              halt;
            ];
        ]);
    (* Row elimination over a 4x4 matrix: nested loops, row pointers by
       arithmetic off the shared base. *)
    k "lu" "4x4 row elimination, nested loops" ~mem:16 ~iters:3
      Alpha.Asm.(
        [
          proc "main"
            [
              mov a0 s0;
              li s1 0L;
              label "init";
              slli s1 3 t0;
              add s0 t0 t0;
              addi s1 1 t1;
              stq t1 0 t0;
              addi s1 1 s1;
              cmplti s1 16 t2;
              bne t2 "init";
              label "pass";
              li s2 1L (* row i *);
              label "rows";
              slli s2 5 t0;
              add s0 t0 s3 (* s3 = &a[i][0] *);
              li s4 0L (* col j *);
              label "cols";
              slli s4 3 t1;
              add s0 t1 t2 (* &a[0][j] *);
              ldq t3 0 t2;
              add s3 t1 t4 (* &a[i][j] *);
              ldq t5 0 t4;
              add t5 t3 t5;
              stq t5 0 t4;
              addi s4 1 s4;
              cmplti s4 4 t6;
              bne t6 "cols";
              addi s2 1 s2;
              cmplti s2 4 t6;
              bne t6 "rows";
              subi a2 1 a2;
              bgt a2 "pass";
              ldq v0 120 s0;
              halt;
            ];
        ]);
    (* Streaming over a fixed window: long in-block runs that batch,
       with a load and store to the same slot (dedup) and consecutive
       slots (one batch, many entries). *)
    k "lu-contig" "streaming window: one batch covers a run of slots" ~mem:8 ~iters:50
      Alpha.Asm.(
        [
          proc "main"
            [
              mov a0 s0;
              li t0 3L;
              stq t0 0 s0;
              li t0 5L;
              stq t0 8 s0;
              li t0 7L;
              stq t0 16 s0;
              li v0 0L;
              label "loop";
              ldq t0 0 s0;
              ldq t1 8 s0;
              ldq t2 16 s0;
              add t0 t1 t3;
              add t3 t2 t3;
              stq t3 24 s0;
              stq t3 0 s0 (* same slot as the first load: dedups *);
              add v0 t3 v0;
              subi a2 1 a2;
              bgt a2 "loop";
              halt;
            ];
        ]);
    (* Red-black relaxation: a parity diamond whose both arms store the
       same centre cell, so the fact survives the join — inter-block
       elimination territory. *)
    k "ocean" "red-black parity diamond over a small grid" ~mem:8 ~iters:40
      Alpha.Asm.(
        [
          proc "main"
            [
              mov a0 s0;
              li s1 0L;
              label "init";
              slli s1 3 t0;
              add s0 t0 t0;
              addi s1 2 t1;
              stq t1 0 t0;
              addi s1 1 s1;
              cmplti s1 8 t2;
              bne t2 "init";
              li v0 0L;
              label "step";
              andi a2 1 t0;
              beq t0 "red";
              ldq t1 8 s0;
              ldq t2 24 s0;
              add t1 t2 t3;
              stq t3 40 s0;
              br "join";
              label "red";
              ldq t1 0 s0;
              ldq t2 16 s0;
              add t1 t2 t3;
              stq t3 40 s0;
              label "join";
              ldq t4 40 s0 (* both arms proved the store: check is redundant *);
              add v0 t4 v0;
              subi a2 1 a2;
              bgt a2 "step";
              stq v0 56 s0;
              halt;
            ];
        ]);
    (* The designed inter-block redundancy case: an entry-block batch
       establishes load+store facts, both diamond arms and the join
       re-touch the same slots. *)
    k "raytrace" "diamond whose arms and join re-touch pre-checked slots" ~mem:4 ~iters:60
      Alpha.Asm.(
        [
          proc "main"
            [
              mov a0 s0;
              li t0 9L;
              stq t0 0 s0;
              li v0 0L;
              label "loop";
              ldq t0 0 s0;
              stq t0 8 s0;
              andi t0 1 t1;
              bne t1 "bright";
              stq v0 8 s0 (* redundant: store fact from the batch above *);
              br "join";
              label "bright";
              addi t0 1 t2;
              stq t2 8 s0 (* redundant on this arm too *);
              label "join";
              ldq t3 8 s0 (* redundant at the join *);
              add v0 t3 v0;
              addi t3 1 t3;
              stq t3 0 s0;
              subi a2 1 a2;
              bgt a2 "loop";
              halt;
            ];
        ]);
    (* A pointer laundered through the float file: Cvt_if/Fmov/Cvt_fi
       must preserve its shared class, and the W32 accesses through it
       must be checked. *)
    k "volrend" "address round-trip through float registers, 32-bit cells" ~mem:4 ~iters:30
      Alpha.Asm.(
        [
          proc "main"
            [
              mov a0 s0;
              li t0 11L;
              stl t0 0 s0;
              li t0 13L;
              stl t0 4 s0;
              li v0 0L;
              label "loop";
              cvt_if s0 f0;
              fmov f0 f1;
              cvt_fi f1 t0 (* t0 is still a shared pointer *);
              ldl t1 0 t0;
              ldl t2 4 t0;
              add t1 t2 t3;
              stl t3 4 t0;
              add v0 t3 v0;
              subi a2 1 a2;
              bgt a2 "loop";
              stl v0 8 s0;
              halt;
            ];
        ]);
    (* The paper's Figure 1 shape: LL/SC lock, MBs around a critical
       section that bumps a shared counter. *)
    k "water-nsq" "LL/SC lock acquire around a counter update" ~mem:2 ~iters:25
      Alpha.Asm.(
        [
          proc "main"
            [
              mov a0 s0;
              stq zero 0 s0;
              li v0 0L;
              label "outer";
              label "try";
              ll W32 t0 0 a1;
              bne t0 "try";
              li t0 1L;
              sc W32 t0 0 a1;
              beq t0 "try";
              mb;
              ldq t1 0 s0;
              addi t1 5 t1;
              stq t1 0 s0;
              mb;
              stl zero 0 a1;
              subi a2 1 a2;
              bgt a2 "outer";
              ldq v0 0 s0;
              halt;
            ];
        ]);
    (* Mixed private/shared traffic with a helper call: stack slots stay
       unchecked, the shared cell is re-checked after every call. *)
    k "water-sp" "helper call per iteration, private stack spills" ~mem:2 ~iters:35
      Alpha.Asm.(
        [
          proc "main"
            [
              mov a0 s0;
              li t0 1L;
              stq t0 0 s0;
              li v0 0L;
              label "loop";
              stq v0 0 sp (* private: never checked *);
              call "cell";
              ldq t0 0 s0 (* the call may have moved the line *);
              add v0 t0 v0;
              ldq t1 0 sp;
              add v0 t1 v0;
              subi a2 1 a2;
              bgt a2 "loop";
              stq v0 8 s0;
              halt;
            ];
          proc "cell" [ ldq t6 0 a0; addi t6 2 t6; stq t6 0 a0; ret ];
        ]);
    (* minidb's shape: lock-protected record update through a pointer
       read from a shared directory slot. *)
    k "minidb" "lock-protected record update via a shared directory" ~mem:6 ~iters:25
      Alpha.Asm.(
        [
          proc "main"
            [
              mov a0 s0;
              li t0 100L;
              stq t0 0 s0;
              li t0 200L;
              stq t0 8 s0;
              stq s0 32 s0 (* directory slot points at record 0 *);
              li v0 0L;
              label "outer";
              label "try";
              ll W32 t0 0 a1;
              bne t0 "try";
              li t0 1L;
              sc W32 t0 0 a1;
              beq t0 "try";
              mb;
              ldq t3 32 s0 (* record pointer *);
              ldq t4 0 t3;
              addi t4 1 t4;
              stq t4 0 t3 (* same slot: dedups *);
              add v0 t4 v0;
              mb;
              stl zero 0 a1;
              subi a2 1 a2;
              bgt a2 "outer";
              stq v0 40 s0;
              halt;
            ];
        ]);
  ]

(* --- SPMD sync corpus --- *)

(** Kernels in {!sync} are SPMD: every thread runs [main(a0 = shared
    array, a1 = shared aux, a2 = iterations, a3 = tid, a4 = nprocs)]
    and synchronises through the [sync_lock]/[sync_unlock]/
    [sync_barrier] system procedures ({!Alpha.Runtime}).  They are the
    ground truth for the static race detector: correctly synchronised
    as written (zero races at any [nprocs]), racy under every seeded
    sync mutation ({!Check.Mutation}).  They live in a separate list
    because [all]'s kernels back bit-exact goldens keyed by name.

    By convention [a0] points at a fine-grained region (per-thread hot
    slots) and [a1] at a bulk region (read-mostly data), mirroring the
    two-region layout {!run_spmd} allocates from. *)
let sync =
  [
    (* False-sharing twin of the granularity micro: tid 0 initialises a
       64-word bulk array and publishes a flag, one barrier, then every
       thread hammers its own hot slot (stride 64) and sums the bulk
       data plus its own slot.  The single barrier separates the
       tid-0 writes from everyone's reads; the hot slots are disjoint
       by tid arithmetic.  r0 = 2081 + iters on every thread. *)
    k "fs-twin" "tid-0 publish + barrier, then per-thread hot slots at stride 64" ~mem:64
      ~iters:40
      Alpha.Asm.(
        [
          proc "main"
            [
              mov a0 s0;
              mov a1 s1;
              mov a2 s2;
              mov a3 s3;
              mov a4 s4;
              li v0 0L;
              bne s3 "wait" (* only tid 0 initialises *);
              li s5 0L;
              label "init";
              slli s5 3 t0;
              add s1 t0 t0;
              addi s5 1 t1;
              stq t1 0 t0 (* bulk[i] = i + 1 *);
              addi s5 1 s5;
              cmplti s5 64 t2;
              bne t2 "init";
              li t3 1L;
              stq t3 512 s1 (* publish flag *);
              label "wait";
              li a0 10L;
              mov s4 a1;
              call "sync_barrier";
              muli s3 64 t0;
              add s0 t0 s5 (* s5 = &hot[tid], stride 64 bytes *);
              label "loop";
              ldq t1 0 s5;
              addi t1 1 t1;
              stq t1 0 s5;
              subi s2 1 s2;
              bgt s2 "loop";
              li t4 0L;
              label "rd";
              slli t4 3 t5;
              add s1 t5 t5;
              ldq t6 0 t5;
              add v0 t6 v0;
              addi t4 1 t4;
              cmplti t4 64 t7;
              bne t7 "rd";
              ldq t5 512 s1;
              add v0 t5 v0 (* + flag *);
              ldq t6 0 s5;
              add v0 t6 v0 (* + own hot slot = iters *);
              halt;
            ];
        ]);
    (* Nearest-neighbour relaxation: each round every thread bumps its
       own strip word, barriers, reads its right neighbour's word,
       barriers again.  Writes land in even barrier phases, reads in
       odd ones — the congruence part of the phase lattice is what
       proves this race-free.  r0 = iters*(iters+1)/2, except 0 on the
       last thread (its neighbour is the untouched guard word). *)
    k "stencil-sync" "strip writes and neighbour reads split by two barriers per round"
      ~mem:16 ~iters:12
      Alpha.Asm.(
        [
          proc "main"
            [
              mov a0 s0;
              mov a2 s2;
              mov a3 s3;
              mov a4 s4;
              slli s3 3 t0;
              add s0 t0 s5 (* own strip word *);
              addi s5 8 s1 (* right neighbour *);
              li v0 0L;
              label "round";
              ldq t1 0 s5;
              addi t1 1 t1;
              stq t1 0 s5;
              li a0 20L;
              mov s4 a1;
              call "sync_barrier";
              ldq t2 0 s1;
              add v0 t2 v0;
              li a0 21L;
              mov s4 a1;
              call "sync_barrier";
              subi s2 1 s2;
              bgt s2 "round";
              halt;
            ];
        ]);
    (* minidb's SPMD shape: a lock-protected record bumped through a
       helper procedure (the lockset must survive the call edge), plus
       a locked read-back, bracketed by barriers around the tid-0
       initialisation and the final read.  r0 = 100 + nprocs*iters on
       every thread, deterministically. *)
    k "mdb-sync" "lock-protected record update via a helper call, barriers around init/readout"
      ~mem:2 ~iters:10
      Alpha.Asm.(
        [
          proc "main"
            [
              mov a0 s0;
              mov a2 s2;
              mov a3 s3;
              mov a4 s4;
              li s5 0L;
              bne s3 "start";
              li t0 100L;
              stq t0 0 s0 (* record := 100 *);
              label "start";
              li a0 30L;
              mov s4 a1;
              call "sync_barrier";
              label "outer";
              li a0 1L;
              call "sync_lock";
              call "bump";
              li a0 1L;
              call "sync_unlock";
              li a0 1L;
              call "sync_lock";
              ldq t2 0 s0;
              add s5 t2 s5;
              li a0 1L;
              call "sync_unlock";
              subi s2 1 s2;
              bgt s2 "outer";
              li a0 31L;
              mov s4 a1;
              call "sync_barrier";
              ldq v0 0 s0;
              halt;
            ];
          proc "bump" [ ldq t6 0 s0; addi t6 1 t6; stq t6 0 s0; ret ];
        ]);
  ]

let find_sync name = List.find (fun e -> e.e_name = name) sync

(* --- deterministic single-process runner --- *)

type run_result = {
  r0 : int64;
  image : int64 array;  (** final contents of the [e_mem_words] shared words *)
  steps : int;
  check_slots : int;  (** executed miss-check slots ({!Alpha.Interp.stats}) *)
  elapsed : float;  (** simulated seconds *)
  events : int;  (** engine events fired *)
  proc_times : (float * float) array;  (** per process, in spawn order: (work, msg) seconds *)
}

let proc_times cl =
  Array.of_list
    (List.map
       (fun h ->
         let p = h.R.proc in
         (p.Sim.Proc.times.Sim.Proc.work_time, p.Sim.Proc.times.Sim.Proc.msg_time))
       (C.runtimes cl))

(** [run instrumented entry] — execute an instrumented version of
    [entry]'s program on a 1-node, 1-processor cluster and capture
    [r0], the final shared image, and the executed-check-slot count.
    Deterministic, so two instrumentations of the same kernel must
    produce bit-identical [r0]/[image]. *)
let run ?(max_steps = 20_000_000) ?iters (instrumented : Alpha.Program.t) (e : entry) =
  let cl =
    C.create
      {
        Shasta.Config.default with
        Shasta.Config.net =
          { Mchan.Net.default_config with Mchan.Net.nodes = 1; cpus_per_node = 1 };
        protocol = { Protocol.Config.default with Protocol.Config.shared_size = 1 lsl 20 };
      }
  in
  let arr = C.alloc cl (8 * e.e_mem_words) in
  let aux = C.alloc cl 64 in
  let iters = Option.value iters ~default:e.e_iters in
  let result = ref None in
  ignore
    (C.spawn cl ~cpu:0 e.e_name (fun h ->
         let o =
           R.run_program ~max_steps h instrumented ~entry:"main"
             ~args:[ Int64.of_int arr; Int64.of_int aux; Int64.of_int iters ]
             ()
         in
         let image =
           Array.init e.e_mem_words (fun i ->
               Protocol.Engine.raw_read h.R.pcb (arr + (8 * i)) Alpha.Insn.W64)
         in
         result := Some (o, image)));
  ignore (C.run cl);
  match !result with
  | None -> failwith (e.e_name ^ ": kernel did not complete")
  | Some (o, image) ->
      {
        r0 = o.Alpha.Interp.r0;
        image;
        steps = o.Alpha.Interp.stats.Alpha.Interp.steps;
        check_slots = o.Alpha.Interp.stats.Alpha.Interp.check_slots;
        elapsed = C.now cl;
        events = Sim.Engine.events_fired (C.sim cl);
        proc_times = proc_times cl;
      }

(* --- SPMD multi-thread runner --- *)

type spmd_result = {
  s_r0s : int64 array;  (** per-thread final [r0], indexed by tid *)
  s_elapsed : float;  (** simulated seconds *)
  s_regions : (string * Protocol.Engine.rstat) list;
      (** cluster-wide per-region coherence counters, in layout order *)
  s_migrations : int;  (** home-map entries migrated (0 under [Static]) *)
  s_events : int;  (** engine events fired *)
  s_proc_times : (float * float) array;  (** per thread, by tid: (work, msg) seconds *)
}

(** [run_spmd instrumented entry] — execute an instrumented sync-corpus
    kernel on [nprocs] Shasta processes (thread [tid] on global
    processor [tid]), with [a0] pointing at a fine "hot" allocation of
    [8 * e_mem_words] bytes and [a1] at a coarse "bulk" allocation just
    past it.  [regions]/[homing] parameterise the layout under test —
    the affinity lint's suggestions are fed back through exactly these
    two knobs — and the granularity hints place hot/bulk into the
    finest/coarsest region the layout offers.  Deterministic for a
    fixed configuration, so per-thread [r0]s double as a correctness
    oracle for the sync kernels. *)
let run_spmd ?(max_steps = 20_000_000) ?(nodes = 1) ?(cpus_per_node = 8) ?(nprocs = 4)
    ?iters ?(regions = []) ?(homing = Protocol.Config.Static) ?migration_threshold
    ?(check_invariants = false) (instrumented : Alpha.Program.t) (e : entry) =
  if nprocs > nodes * cpus_per_node then
    invalid_arg "run_spmd: nprocs exceeds the cluster's processors";
  let cl =
    C.create
      {
        Shasta.Config.default with
        Shasta.Config.net =
          { Mchan.Net.default_config with Mchan.Net.nodes; cpus_per_node };
        protocol =
          {
            Protocol.Config.default with
            Protocol.Config.regions;
            homing;
            check_invariants;
            shared_size = 1 lsl 20;
            migration_threshold =
              Option.value migration_threshold
                ~default:Protocol.Config.default.Protocol.Config.migration_threshold;
          };
      }
  in
  let block_hints =
    match regions with
    | [] -> (64, 64)
    | rs ->
        let blocks = List.map (fun r -> r.Protocol.Layout.rs_block) rs in
        (List.fold_left min max_int blocks, List.fold_left max 0 blocks)
  in
  let hot = C.alloc ~granularity:(fst block_hints) cl (8 * e.e_mem_words) in
  let bulk = C.alloc ~granularity:(snd block_hints) cl ((8 * e.e_mem_words) + 64) in
  let iters = Option.value iters ~default:e.e_iters in
  let r0s = Array.make nprocs None in
  for tid = 0 to nprocs - 1 do
    ignore
      (C.spawn cl ~cpu:tid (Printf.sprintf "%s.%d" e.e_name tid) (fun h ->
           let o =
             R.run_program ~max_steps h instrumented ~entry:"main"
               ~args:
                 [
                   Int64.of_int hot;
                   Int64.of_int bulk;
                   Int64.of_int iters;
                   Int64.of_int tid;
                   Int64.of_int nprocs;
                 ]
               ()
           in
           r0s.(tid) <- Some o.Alpha.Interp.r0))
  done;
  let elapsed = C.run cl in
  let r0s =
    Array.mapi
      (fun tid r ->
        match r with
        | Some v -> v
        | None -> failwith (Printf.sprintf "%s: thread %d did not complete" e.e_name tid))
      r0s
  in
  let peng = C.protocol_engine cl in
  let layout = Protocol.Engine.layout peng in
  let regions =
    Array.to_list
      (Array.mapi
         (fun ri st -> (Protocol.Layout.region_name layout ri, st))
         (Protocol.Engine.region_stats peng))
  in
  let migrations, _, _ = C.migration_stats cl in
  {
    s_r0s = r0s;
    s_elapsed = elapsed;
    s_regions = regions;
    s_migrations = migrations;
    s_events = Sim.Engine.events_fired (C.sim cl);
    s_proc_times = proc_times cl;
  }
