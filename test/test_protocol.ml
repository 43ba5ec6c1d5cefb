(* Protocol tests: coherence, invalidation, recalls, SMP sharing,
   downgrades, LL/SC, false misses, the memory-model litmus test. *)

module P = Protocol
module E = Protocol.Engine

let base = P.Config.default.P.Config.shared_base
let flag64 = 0xDEADBEEFDEADBEEFL

type world = {
  net : Mchan.Net.t;
  eng : E.t;
  sim : Sim.Engine.t;
  mutable n_workers : int;
  done_count : int ref;
  mutable procs : Sim.Proc.t list;
}

let setup ?(variant = P.Config.Smp) ?(model = P.Config.Rc) ?(direct_downgrade = true)
    ?(nodes = 2) ?(cpus = 2) ?(regions = []) ?mutation
    ?(homing = P.Config.Static) ?(migration_threshold = 1) () =
  let netcfg = { Mchan.Net.default_config with Mchan.Net.nodes; cpus_per_node = cpus } in
  let net = Mchan.Net.create netcfg in
  let cfg =
    {
      P.Config.default with
      P.Config.variant;
      model;
      direct_downgrade;
      regions;
      homing;
      migration_threshold;
      check_invariants = homing <> P.Config.Static;
      shared_size = 64 * 1024;
    }
  in
  let eng = E.create ~cfg ~net in
  Option.iter (E.seed_mutation eng) mutation;
  { net; eng; sim = Mchan.Net.engine net; n_workers = 0; done_count = ref 0; procs = [] }

let pulse_all_nodes w =
  let nodes = (Mchan.Net.config w.net).Mchan.Net.nodes in
  for n = 0 to nodes - 1 do
    Sim.Signal.pulse (Mchan.Net.node_signal w.net n)
  done

(* Spawn a worker process running [body pcb].  After its body completes,
   the worker keeps serving protocol requests until every worker is done
   — like a real Shasta process, which stays alive to serve its protocol
   and application data after the application code exits (Section 4.3.3). *)
let worker w ~cpu_i body =
  let cpu = Mchan.Net.nth_cpu w.net cpu_i in
  let pcb_ref = ref None in
  w.n_workers <- w.n_workers + 1;
  let proc =
    Sim.Proc.spawn ~name:(Printf.sprintf "w%d" cpu_i) cpu (fun () ->
        let pcb = Option.get !pcb_ref in
        body pcb;
        (* Drain outstanding non-blocking stores before counting done. *)
        E.mb pcb;
        incr w.done_count;
        pulse_all_nodes w;
        Sim.Proc.stall (fun () -> !(w.done_count) >= w.n_workers))
  in
  let pcb = E.attach w.eng proc in
  proc.Sim.Proc.on_poll <- (fun _ -> E.service pcb);
  pcb_ref := Some pcb;
  w.procs <- proc :: w.procs;
  (proc, pcb)

let run w =
  ignore (Sim.Engine.run ~until:60.0 w.sim);
  (* Surface any exception raised inside a worker fiber. *)
  List.iter
    (fun p ->
      match p.Sim.Proc.failure with
      | Some e ->
          Alcotest.failf "worker %s failed: %s" p.Sim.Proc.name (Printexc.to_string e)
      | None -> ())
    w.procs

(* Emulate the inline check paths (what lib/shasta's runtime does). *)
let sload pcb addr =
  let v = E.raw_read pcb addr Alpha.Insn.W64 in
  if v = flag64 then E.load_miss pcb addr Alpha.Insn.W64 else v

let sstore pcb addr v =
  (match E.block_state pcb addr with
  | P.Ptypes.Exclusive, _ -> ()
  | (P.Ptypes.Invalid | P.Ptypes.Shared | P.Ptypes.Pending), _ -> E.store_miss pcb addr);
  E.raw_write pcb addr Alpha.Insn.W64 v

let test_read_migration () =
  let w = setup () in
  let a = base + 4096 in
  let got = ref 0L in
  let _, _ = worker w ~cpu_i:0 (fun pcb -> sstore pcb a 42L) in
  let _ =
    worker w ~cpu_i:2 (* node 1 *) (fun pcb ->
        Sim.Proc.sleep 0.001;
        got := sload pcb a)
  in
  E.init w.eng;
  run w;
  Alcotest.(check int64) "remote read sees the write" 42L !got

let test_write_invalidates_readers () =
  let w = setup ~model:P.Config.Sc () in
  let a = base + 8192 in
  let r1 = ref 0L and r2 = ref 0L in
  let _ =
    worker w ~cpu_i:0 (fun pcb ->
        sstore pcb a 1L;
        (* Keep working (and therefore polling) so P1's read is served. *)
        Sim.Proc.work 0.005;
        sstore pcb a 2L)
  in
  let _ =
    worker w ~cpu_i:2 (fun pcb ->
        Sim.Proc.sleep 0.002;
        r1 := sload pcb a;
        Sim.Proc.sleep 0.006;
        Sim.Proc.work 1e-5;
        r2 := sload pcb a)
  in
  E.init w.eng;
  run w;
  Alcotest.(check int64) "first read" 1L !r1;
  Alcotest.(check int64) "read after invalidation" 2L !r2

let test_false_miss () =
  let w = setup () in
  let a = base + 1024 in
  let reader_pcb = ref None in
  let got = ref 0L in
  let _ = worker w ~cpu_i:0 (fun pcb -> sstore pcb a flag64) in
  let _ =
    worker w ~cpu_i:2 (fun pcb ->
        reader_pcb := Some pcb;
        Sim.Proc.sleep 0.002;
        got := sload pcb a;
        (* The line is now valid but contains the flag: a second load is
           a false miss. *)
        got := sload pcb a)
  in
  E.init w.eng;
  run w;
  Alcotest.(check int64) "flag data readable" flag64 !got;
  let st = E.stats (Option.get !reader_pcb) in
  Alcotest.(check bool) "false miss recorded" true (st.E.false_misses >= 1)

let test_recall_to_shared () =
  (* P0 holds the block exclusive; P1's read downgrades it; both end up
     with shared readable copies. *)
  let w = setup () in
  let a = base + 2048 in
  let p0 = ref None and p1 = ref None in
  let r0 = ref 0L and r1 = ref 0L in
  let _ =
    worker w ~cpu_i:0 (fun pcb ->
        p0 := Some pcb;
        sstore pcb a 7L;
        Sim.Proc.sleep 0.01;
        r0 := sload pcb a)
  in
  let _ =
    worker w ~cpu_i:2 (fun pcb ->
        p1 := Some pcb;
        Sim.Proc.sleep 0.003;
        r1 := sload pcb a)
  in
  E.init w.eng;
  run w;
  Alcotest.(check int64) "owner still reads" 7L !r0;
  Alcotest.(check int64) "reader got dirty data" 7L !r1;
  let s0, _ = E.block_state (Option.get !p0) a in
  let s1, _ = E.block_state (Option.get !p1) a in
  let shared_or_better = function
    | P.Ptypes.Shared | P.Ptypes.Exclusive -> true
    | P.Ptypes.Invalid | P.Ptypes.Pending -> false
  in
  Alcotest.(check bool) "p0 readable" true (shared_or_better s0);
  Alcotest.(check bool) "p1 readable" true (shared_or_better s1)

let test_smp_intra_node_no_messages () =
  (* SMP-Shasta: two processes of one node share memory at hardware
     speed; the second process's read causes no protocol traffic. *)
  let w = setup ~variant:P.Config.Smp () in
  let a = base + 512 in
  let got = ref 0L in
  let reader = ref None in
  let _ = worker w ~cpu_i:0 (fun pcb -> sstore pcb a 9L) in
  let _ =
    worker w ~cpu_i:1 (* same node *) (fun pcb ->
        reader := Some pcb;
        Sim.Proc.sleep 0.002;
        got := sload pcb a)
  in
  E.init w.eng ~homes:[ 0 ];
  run w;
  Alcotest.(check int64) "intra-node read" 9L !got;
  Alcotest.(check int) "no remote messages" 0 (Mchan.Net.remote_messages w.net);
  let st = E.stats (Option.get !reader) in
  Alcotest.(check int) "no read misses for the reader" 0 st.E.read_misses

let test_base_variant_needs_messages () =
  (* Base-Shasta: the same placement exchanges messages because each
     process has a private copy. *)
  let w = setup ~variant:P.Config.Base () in
  let a = base + 512 in
  let got = ref 0L in
  let reader = ref None in
  let _, writer_pcb = worker w ~cpu_i:0 (fun pcb -> sstore pcb a 9L) in
  let _ =
    worker w ~cpu_i:1 (fun pcb ->
        reader := Some pcb;
        Sim.Proc.sleep 0.002;
        got := sload pcb a)
  in
  E.init w.eng ~homes:[ writer_pcb.E.dom.E.dom_id ];
  run w;
  Alcotest.(check int64) "read works" 9L !got;
  let st = E.stats (Option.get !reader) in
  Alcotest.(check bool) "reader really missed" true (st.E.read_misses >= 1);
  Alcotest.(check bool) "messages were exchanged" true (Mchan.Net.local_messages w.net > 0)

let test_direct_downgrade_latency () =
  (* P0 takes the block exclusive and then blocks (not in application
     code) for 50 ms.  P1's read at ~1 ms must complete quickly with
     direct downgrade, and only after P0 wakes without it. *)
  let scenario ~direct =
    let w = setup ~direct_downgrade:direct () in
    let a = base + 4096 in
    let read_done = ref infinity in
    (* A helper on P0's node plays the role of the always-available
       serving process (Section 4.3.2); it can recall the block but only
       P0 itself may downgrade its private state table. *)
    let _helper = worker w ~cpu_i:1 (fun _ -> ()) in
    let _ =
      worker w ~cpu_i:0 (fun pcb ->
          sstore pcb a 5L;
          E.mb pcb;
          pcb.E.in_app := false;
          Sim.Proc.sleep 0.050;
          pcb.E.in_app := true;
          (* Wake up and poll. *)
          Sim.Proc.work 0.001)
    in
    let _ =
      worker w ~cpu_i:2 (fun pcb ->
          Sim.Proc.sleep 0.001;
          ignore (sload pcb a);
          read_done := Sim.Engine.now w.sim)
    in
    E.init w.eng ~homes:[ 0 ];
    run w;
    !read_done
  in
  let fast = scenario ~direct:true in
  let slow = scenario ~direct:false in
  Alcotest.(check bool)
    (Printf.sprintf "direct downgrade fast (%.4fs)" fast)
    true (fast < 0.010);
  Alcotest.(check bool)
    (Printf.sprintf "without it the read waits for the sleeper (%.4fs)" slow)
    true (slow > 0.045)

let test_sc_hardware_path_when_exclusive () =
  let w = setup () in
  let a = base + 64 in
  let outcome = ref (Alpha.Runtime.Handled false) in
  let _server = worker w ~cpu_i:2 (fun _ -> ()) in
  let _ =
    worker w ~cpu_i:0 (fun pcb ->
        sstore pcb a 0L;
        E.ll_ensure pcb a;
        outcome := E.sc_check pcb a Alpha.Insn.W64 1L)
  in
  E.init w.eng;
  run w;
  match !outcome with
  | Alpha.Runtime.Run_in_hardware -> ()
  | Alpha.Runtime.Handled _ -> Alcotest.fail "expected hardware path for exclusive line"

let test_sc_protocol_path_when_shared () =
  (* P1 reads the line (so both domains share it); P0's SC then goes
     through the Sc_upgrade protocol and succeeds, invalidating P1. *)
  let w = setup () in
  let a = base + 64 in
  let sc_ok = ref false in
  let p1_after = ref 0L in
  let _ =
    worker w ~cpu_i:0 (fun pcb ->
        sstore pcb a 0L;
        Sim.Proc.sleep 0.005;
        (* By now P1 downgraded us to shared. *)
        E.ll_ensure pcb a;
        match E.sc_check pcb a Alpha.Insn.W64 1L with
        | Alpha.Runtime.Handled ok -> sc_ok := ok
        | Alpha.Runtime.Run_in_hardware ->
            (* Still exclusive (P1 was slow): the hardware path performs
               the conditional store itself. *)
            sc_ok := E.raw_read pcb a Alpha.Insn.W64 = 0L;
            E.raw_write pcb a Alpha.Insn.W64 1L)
  in
  let _ =
    worker w ~cpu_i:2 (fun pcb ->
        Sim.Proc.sleep 0.002;
        ignore (sload pcb a);
        Sim.Proc.sleep 0.010;
        (* Work a little so pending invalidations get polled and applied
           before the read (mere sleep never polls). *)
        Sim.Proc.work 1e-5;
        p1_after := sload pcb a)
  in
  E.init w.eng;
  run w;
  Alcotest.(check bool) "SC succeeded" true !sc_ok;
  Alcotest.(check int64) "P1 sees the SC's store" 1L !p1_after

let test_sc_fails_when_invalidated () =
  (* P0 LLs a shared line; P1 takes it exclusive before P0's SC: the SC
     must fail without fetching the line. *)
  let w = setup ~model:P.Config.Sc () in
  let a = base + 128 in
  let sc_result = ref None in
  let _ =
    worker w ~cpu_i:0 (fun pcb ->
        ignore (sload pcb a);
        E.ll_ensure pcb a;
        (* Wait long enough for P1's write to invalidate us. *)
        Sim.Proc.sleep 0.010;
        match E.sc_check pcb a Alpha.Insn.W64 99L with
        | Alpha.Runtime.Handled ok -> sc_result := Some ok
        | Alpha.Runtime.Run_in_hardware -> sc_result := Some true)
  in
  let _ =
    worker w ~cpu_i:2 (fun pcb ->
        Sim.Proc.sleep 0.003;
        sstore pcb a 7L)
  in
  E.init w.eng ~homes:[ 0 ];
  run w;
  Alcotest.(check (option bool)) "SC failed" (Some false) !sc_result

let test_mb_drains_stores () =
  (* Non-blocking stores: after MB the store must be globally visible. *)
  let w = setup ~model:P.Config.Rc () in
  let a = base + 256 in
  let seen = ref 0L in
  let _ =
    worker w ~cpu_i:2 (fun pcb ->
        (* Take the block so that P0's store actually misses. *)
        sstore pcb a 1L)
  in
  let _ =
    worker w ~cpu_i:0 (fun pcb ->
        Sim.Proc.sleep 0.005;
        sstore pcb a 2L;
        E.mb pcb;
        (* After the MB, every domain either has an invalid copy or the
           new value. *)
        seen := sload pcb a)
  in
  E.init w.eng ~homes:[ 1 ];
  run w;
  Alcotest.(check int64) "own store visible after MB" 2L !seen

let test_batch_fetches_lines_in_parallel () =
  let w = setup () in
  let line = P.Config.default.P.Config.line_size in
  let addrs = List.init 8 (fun i -> base + 16384 + (i * line)) in
  let batch_time = ref 0.0 and serial_time = ref 0.0 in
  (* Two separate clusters to compare independent timings; each needs a
     serving process on the home node. *)
  let _server = worker w ~cpu_i:2 (fun _ -> ()) in
  let _ =
    worker w ~cpu_i:0 (fun pcb ->
        let t0 = Sim.Engine.now w.sim in
        E.batch pcb (List.map (fun a -> (a, Alpha.Insn.W64, Alpha.Insn.Load_acc)) addrs);
        batch_time := Sim.Engine.now w.sim -. t0)
  in
  E.init w.eng ~homes:[ 1 ];
  run w;
  let w2 = setup () in
  let _server2 = worker w2 ~cpu_i:2 (fun _ -> ()) in
  let _ =
    worker w2 ~cpu_i:0 (fun pcb ->
        let t0 = Sim.Engine.now w2.sim in
        List.iter (fun a -> ignore (sload pcb a)) addrs;
        serial_time := Sim.Engine.now w2.sim -. t0)
  in
  E.init w2.eng ~homes:[ 1 ];
  run w2;
  Alcotest.(check bool)
    (Printf.sprintf "batch (%.1fus) beats serial (%.1fus)"
       (Sim.Units.to_us !batch_time) (Sim.Units.to_us !serial_time))
    true
    (!batch_time < !serial_time *. 0.7)

(* A mixed layout for the granularity tests: the lower half of the 64 KB
   segment stays at 64-byte blocks, the upper half uses 256-byte blocks. *)
let mixed_regions =
  [
    { P.Layout.rs_name = "fine"; rs_size = 32 * 1024; rs_block = 64 };
    { P.Layout.rs_name = "coarse"; rs_size = 32 * 1024; rs_block = 256 };
  ]

let test_block_size_granularity () =
  (* In the 256-byte region, fetching one word brings the whole block. *)
  let w = setup ~regions:mixed_regions () in
  let line = P.Config.default.P.Config.line_size in
  let a = base + 32768 (* first block of the coarse region *) in
  let got = ref 0L in
  let misses = ref 0 in
  let reader = ref None in
  let _ =
    worker w ~cpu_i:0 (fun pcb ->
        sstore pcb a 1L;
        sstore pcb (a + (3 * line)) 4L)
  in
  let _ =
    worker w ~cpu_i:2 (fun pcb ->
        reader := Some pcb;
        Sim.Proc.sleep 0.005;
        ignore (sload pcb a);
        got := sload pcb (a + (3 * line));
        misses := (E.stats pcb).E.read_misses)
  in
  E.init w.eng ~homes:[ 0 ];
  run w;
  Alcotest.(check int64) "whole block transferred" 4L !got;
  Alcotest.(check int) "single miss for a 256-byte block" 1 !misses;
  (* The same span in the fine region is four separate blocks. *)
  let b0 = E.block_of_addr w.eng base in
  Alcotest.(check int) "fine region: 64-byte extents" 64 (E.block_bytes w.eng b0);
  let bc = E.block_of_addr w.eng a in
  Alcotest.(check int) "coarse region: 256-byte extents" 256 (E.block_bytes w.eng bc);
  Alcotest.(check int) "one block covers the four lines" bc
    (E.block_of_addr w.eng (a + (3 * line)))

let test_directory_sharer_bitmask () =
  let d = P.Directory.create ~home_domain:2 in
  let e = P.Directory.entry d 0 in
  Alcotest.(check (list int)) "born with the home" [ 2 ] (P.Directory.sharers_list e);
  P.Directory.add_sharer e 5;
  P.Directory.add_sharer e 0;
  P.Directory.add_sharer e 5;
  Alcotest.(check (list int)) "insertion order, no duplicates" [ 0; 5; 2 ]
    (P.Directory.sharers_list e);
  Alcotest.(check bool) "is_sharer hit" true (P.Directory.is_sharer e 5);
  Alcotest.(check bool) "is_sharer miss" false (P.Directory.is_sharer e 3);
  P.Directory.remove_sharer e 2;
  Alcotest.(check (list int)) "removal" [ 0; 5 ] (P.Directory.sharers_list e);
  Alcotest.(check bool) "mask tracks removal" false (P.Directory.is_sharer e 2);
  P.Directory.clear_sharers e;
  Alcotest.(check bool) "cleared" true (P.Directory.no_sharers e);
  (* The bitset grows: domain ids beyond one word are fine now (64+-node
     clusters), only the sanity cap rejects. *)
  P.Directory.add_sharer e 307;
  Alcotest.(check bool) "word-boundary-crossing id accepted" true (P.Directory.is_sharer e 307);
  Alcotest.(check bool) "large id miss" false (P.Directory.is_sharer e 306);
  Alcotest.check_raises "domain id too large for the mask"
    (Invalid_argument
       (Printf.sprintf "Directory: domain id %d outside 0..%d" P.Directory.max_domains
          (P.Directory.max_domains - 1)))
    (fun () -> P.Directory.add_sharer e P.Directory.max_domains)

let test_wrong_block_extent_mutation_caught () =
  (* The seeded bug writes flag words one chunk past the invalidated
     block, corrupting the reader's Shared copy of the *next* block; the
     per-block-extent invariants (family 4) must flag the divergence. *)
  let w = setup ~mutation:E.Wrong_block_extent () in
  let a = base + 4096 in
  let _ =
    worker w ~cpu_i:2 (fun pcb ->
        (* Hold both a's block and the next one Shared. *)
        ignore (sload pcb a);
        ignore (sload pcb (a + 64));
        Sim.Proc.sleep 0.050)
  in
  let _ =
    worker w ~cpu_i:0 (fun pcb ->
        (* Keep polling (the home must serve the reader's fetches) until
           they have long completed, so the spilled flags are not
           overwritten by an in-flight data reply. *)
        Sim.Proc.work 0.020;
        (* Invalidates the reader's copy of a's block — and, through the
           mutation, clobbers its copy of the next block too. *)
        sstore pcb a 1L)
  in
  E.init w.eng ~homes:[ 0 ];
  run w;
  Alcotest.(check bool) "mutation fired" true (E.mutation_fires w.eng > 0);
  let violations = E.check_quiescent w.eng in
  Alcotest.(check bool)
    (Printf.sprintf "extent violation detected (%s)" (String.concat "; " violations))
    true
    (List.exists
       (fun v ->
         (* The corrupted neighbour shows up as Shared-replica disagreement. *)
         let has s sub =
           let n = String.length sub in
           let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         has v "disagree on Shared block")
       violations)

(* The Figure 2 litmus test: under the Alpha memory model the only
   allowed outcomes are (r1,r2) = (1,1) or (2,2): writes to A must be
   serialised and eventually propagated. *)
let litmus_figure2 w =
  let a = base + 40960 in
  let flag1 = base + 41024 and flag2 = base + 41088 in
  let flag3 = base + 41152 and flag4 = base + 41216 in
  let r1 = ref 0L and r2 = ref 0L in
  let spin pcb addr =
    let rec go () =
      if sload pcb addr <> 1L then begin
        Sim.Proc.work 1e-7;
        go ()
      end
    in
    go ()
  in
  let _ =
    worker w ~cpu_i:0 (fun pcb ->
        sstore pcb a 1L;
        E.mb pcb;
        sstore pcb flag1 1L;
        E.mb pcb;
        sstore pcb flag2 1L)
  in
  let _ =
    worker w ~cpu_i:1 (fun pcb ->
        sstore pcb a 2L;
        E.mb pcb;
        sstore pcb flag3 1L;
        E.mb pcb;
        sstore pcb flag4 1L)
  in
  let _ =
    worker w ~cpu_i:2 (fun pcb ->
        spin pcb flag1;
        spin pcb flag3;
        r1 := sload pcb a)
  in
  let _ =
    worker w ~cpu_i:3 (fun pcb ->
        spin pcb flag2;
        spin pcb flag4;
        r2 := sload pcb a)
  in
  E.init w.eng;
  run w;
  (!r1, !r2)

let test_litmus_write_serialization () =
  (* cpu 0,1 are node 0; cpu 2,3 are node 1 — the two readers sit on a
     different node from each other only in larger setups; still a valid
     test of write serialisation. *)
  let ok = ref true in
  for _ = 1 to 5 do
    let w = setup ~nodes:4 ~cpus:1 () in
    let r1, r2 = litmus_figure2 w in
    if not ((r1 = 1L && r2 = 1L) || (r1 = 2L && r2 = 2L)) then ok := false
  done;
  Alcotest.(check bool) "only (1,1) or (2,2) observed" true !ok

(* Randomised coherence stress: several processes hammer a small region
   with tagged writes; afterwards every readable copy agrees. *)
let test_random_stress_convergence () =
  let w = setup ~nodes:2 ~cpus:2 () in
  let nwords = 16 in
  let line = P.Config.default.P.Config.line_size in
  let addr i = base + 49152 + (i * line) in
  let pcbs = ref [] in
  for c = 0 to 3 do
    let rng = Sim.Rng.create (1000 + c) in
    let _ =
      worker w ~cpu_i:c (fun pcb ->
          pcbs := pcb :: !pcbs;
          for op = 1 to 200 do
            let i = Sim.Rng.int rng nwords in
            if Sim.Rng.bool rng then
              sstore pcb (addr i) (Int64.of_int ((c * 1_000_000) + op))
            else ignore (sload pcb (addr i));
            Sim.Proc.work 1e-6
          done;
          E.mb pcb)
    in
    ()
  done;
  E.init w.eng;
  run w;
  (* After quiescence: for every word, all domains holding a valid copy
     agree on the value. *)
  let ok = ref true in
  for i = 0 to nwords - 1 do
    let values =
      List.filter_map
        (fun pcb ->
          match E.block_state pcb (addr i) with
          | _, (P.Ptypes.Shared | P.Ptypes.Exclusive) ->
              Some (E.raw_read pcb (addr i) Alpha.Insn.W64)
          | _, (P.Ptypes.Invalid | P.Ptypes.Pending) -> None)
        !pcbs
    in
    match values with
    | [] -> ()
    | v :: rest -> if not (List.for_all (fun x -> x = v) rest) then ok := false
  done;
  Alcotest.(check bool) "all valid copies agree" true !ok

let test_home_placement_routes () =
  (* A range homed at domain 1: a domain-1 process's first touch is
     local (no remote messages at all). *)
  let w = setup () in
  let a = base + 8192 in
  let got = ref 0L in
  let _ = worker w ~cpu_i:2 (* node 1 *) (fun pcb -> got := sload pcb a) in
  E.set_home w.eng ~addr:a ~len:64 ~domain:1;
  E.init w.eng ~homes:[ 0 ];
  run w;
  Alcotest.(check int64) "read works" 0L !got;
  Alcotest.(check int) "no remote messages" 0 (Mchan.Net.remote_messages w.net)

let test_batch_defers_invalidation_flags () =
  (* Section 4.1: an invalidation arriving while the batch miss handler's
     caller is mid-batch must not write the flag values yet — the batched
     loads still need the old contents — but the line goes invalid and
     the flags land at the next protocol entry. *)
  let w = setup () in
  let a = base + 16384 in
  let block = ref 0 in
  let value_mid = ref 0L and flag_mid = ref true in
  let flag_after = ref false in
  let _ =
    worker w ~cpu_i:0 (fun pcb ->
        ignore (sload pcb a);
        block := E.block_of_addr w.eng a;
        (* Enter a batch over this block (white-box). *)
        pcb.E.in_batch <- true;
        pcb.E.batch_blocks <- [ !block ];
        (* Wait for the remote write to invalidate us. *)
        Sim.Proc.stall (fun () ->
            match E.block_state pcb a with _, P.Ptypes.Invalid -> true | _ -> false);
        value_mid := E.raw_read pcb a Alpha.Insn.W64;
        flag_mid := E.word_is_flag pcb a;
        pcb.E.in_batch <- false;
        pcb.E.batch_blocks <- [];
        E.poll pcb;
        flag_after := E.word_is_flag pcb a)
  in
  let _ =
    worker w ~cpu_i:2 (fun pcb ->
        Sim.Proc.sleep 0.002;
        sstore pcb a 5L)
  in
  E.init w.eng ~homes:[ 1 ];
  run w;
  Alcotest.(check bool) "flags deferred during the batch" false !flag_mid;
  Alcotest.(check int64) "old contents still readable mid-batch" 0L !value_mid;
  Alcotest.(check bool) "flags written at the next protocol entry" true !flag_after

let test_batch_store_reissue () =
  (* Section 4.1: a store executed after the batch check, to a line that
     was downgraded in between, is reissued at the next protocol entry. *)
  let w = setup () in
  let a = base + 24576 in
  let reissues = ref 0 in
  (* A server on the home node so the batch completes before the remote
     write starts (deterministic ordering). *)
  let _, server_pcb = worker w ~cpu_i:3 (fun _ -> ()) in
  let _, p0_pcb =
    worker w ~cpu_i:0 (fun pcb ->
        (* Batch with a store entry: fetches the line exclusive and arms
           the post-batch watch. *)
        E.batch pcb [ (a, Alpha.Insn.W64, Alpha.Insn.Store_acc) ];
        (* Polling (without a protocol entry) lets the remote write's
           invalidation land before our batched store executes. *)
        Sim.Proc.work 0.004;
        E.raw_write pcb a Alpha.Insn.W64 42L;
        E.poll pcb;
        reissues := (E.stats pcb).E.reissued_stores)
  in
  let _, p1_pcb =
    worker w ~cpu_i:2 (fun pcb ->
        Sim.Proc.sleep 0.001;
        sstore pcb a 7L)
  in
  E.init w.eng ~homes:[ 1 ];
  run w;
  Alcotest.(check int) "store was reissued" 1 !reissues;
  (* Home-serialised order: P1's store, then P0's reissue; after
     quiescence every valid copy holds 42. *)
  let final =
    List.filter_map
      (fun pcb ->
        match E.block_state pcb a with
        | _, (P.Ptypes.Shared | P.Ptypes.Exclusive) ->
            Some (E.raw_read pcb a Alpha.Insn.W64)
        | _, (P.Ptypes.Invalid | P.Ptypes.Pending) -> None)
      [ server_pcb; p0_pcb; p1_pcb ]
  in
  (match final with
  | v :: rest ->
      Alcotest.(check bool) "valid copies agree" true (List.for_all (fun x -> x = v) rest);
      Alcotest.(check int64) "reissued store wins (home-serialised last)" 42L v
  | [] -> Alcotest.fail "no valid copy after quiescence")

(* --- sharded home map: placement edge cases and migration --- *)

let test_set_home_overlap_later_wins () =
  (* Overlapping override ranges: the later call wins on the overlap,
     the earlier call keeps the rest of its range. *)
  let w = setup () in
  let a = base + 32768 in
  let _ = worker w ~cpu_i:0 (fun _ -> ()) in
  let _ = worker w ~cpu_i:2 (fun _ -> ()) in
  E.set_home w.eng ~addr:a ~len:(4 * 64) ~domain:1;
  E.set_home w.eng ~addr:(a + 64) ~len:64 ~domain:0;
  E.init w.eng;
  run w;
  let home off = E.home_domain_of_block w.eng (E.block_of_addr w.eng (a + off)) in
  Alcotest.(check int) "start of first range" 1 (home 0);
  Alcotest.(check int) "overlap: later range wins" 0 (home 64);
  Alcotest.(check int) "past the overlap" 1 (home 128);
  Alcotest.(check int) "end of first range" 1 (home 192)

let test_set_home_after_init_raises () =
  let w = setup () in
  let _ = worker w ~cpu_i:0 (fun _ -> ()) in
  E.init w.eng;
  Alcotest.check_raises "set_home after init" (Invalid_argument "set_home after init")
    (fun () -> E.set_home w.eng ~addr:base ~len:64 ~domain:0);
  Alcotest.check_raises "seed_mutation after init"
    (Invalid_argument "seed_mutation after init") (fun () ->
      E.seed_mutation w.eng E.Skip_invalidate);
  run w

let test_set_home_domain_out_of_range () =
  let w = setup () in
  let max = P.Directory.max_domains in
  let msg d = Printf.sprintf "set_home: domain %d outside 0..%d" d (max - 1) in
  Alcotest.check_raises "negative domain" (Invalid_argument (msg (-1))) (fun () ->
      E.set_home w.eng ~addr:base ~len:64 ~domain:(-1));
  Alcotest.check_raises "domain past max" (Invalid_argument (msg max)) (fun () ->
      E.set_home w.eng ~addr:base ~len:64 ~domain:max)

let test_migratory_home_transfer () =
  (* One exclusive request from a remote domain (threshold 1) moves the
     directory entry to the requester; at quiescence nothing is in
     flight and the generalized invariants hold. *)
  let w = setup ~homing:P.Config.Migratory ~nodes:2 ~cpus:1 () in
  let a = base + 4096 in
  let _ = worker w ~cpu_i:0 (fun _ -> ()) in
  let _ = worker w ~cpu_i:1 (fun pcb -> sstore pcb a 9L) in
  E.set_home w.eng ~addr:a ~len:64 ~domain:0;
  E.init w.eng;
  run w;
  let migrations, _, in_flight = E.migration_stats w.eng in
  Alcotest.(check bool) "home transferred" true (migrations >= 1);
  Alcotest.(check int) "no transfer in flight" 0 in_flight;
  Alcotest.(check int) "home followed the writer" 1
    (E.home_domain_of_block w.eng (E.block_of_addr w.eng a));
  Alcotest.(check (list string)) "quiescent invariants" [] (E.check_quiescent w.eng)

let test_migratory_transfer_carries_data () =
  (* Requests deferred behind a migratory write keep the entry busy past
     the writer's grant, so its verdict is consumed only when the
     entry's last owner has been recalled to Shared.  Then the home's
     copy is the only authoritative data, and it travels with the entry
     to the writer, which by then holds the block Invalid and must
     install the carried copy to serve from it.  Home 0; a reader on
     node 3 makes the writer's grant wait for a remote invalidation; the
     home's own store and a read from node 2 queue behind it. *)
  let w = setup ~homing:P.Config.Migratory ~nodes:4 ~cpus:1 () in
  let a = base + 4096 in
  let b = E.block_of_addr w.eng a in
  let entry () = P.Directory.find (E.domain_by_id w.eng 0).E.dir b in
  let busy () = match entry () with Some e -> e.P.Directory.busy <> None | None -> false in
  let deferred () =
    match entry () with Some e -> not (Queue.is_empty e.P.Directory.deferred) | None -> false
  in
  let migrated () =
    let migrations, _, _ = E.migration_stats w.eng in
    migrations > 0
  in
  (* Poll (serving protocol messages) until [cond] holds. *)
  let wait_until cond = while not (cond ()) do Sim.Proc.work 1e-7 done in
  let shared_at_3 = ref false in
  let got_reader = ref 0L and got_writer = ref 0L in
  let _ = worker w ~cpu_i:0 (fun pcb -> wait_until busy; sstore pcb a 5L) in
  let _, writer =
    worker w ~cpu_i:1 (fun pcb ->
        wait_until (fun () -> !shared_at_3);
        sstore pcb a 9L;
        wait_until migrated;
        got_writer := sload pcb a)
  in
  let _ = worker w ~cpu_i:2 (fun pcb -> wait_until deferred; got_reader := sload pcb a) in
  let _ =
    worker w ~cpu_i:3 (fun pcb ->
        ignore (sload pcb a);
        shared_at_3 := true)
  in
  E.set_home w.eng ~addr:a ~len:64 ~domain:0;
  E.init w.eng;
  run w;
  let migrations, _, in_flight = E.migration_stats w.eng in
  Alcotest.(check int64) "deferred read sees the home's write" 5L !got_reader;
  Alcotest.(check int) "one home transfer" 1 migrations;
  Alcotest.(check int) "no transfer in flight" 0 in_flight;
  Alcotest.(check int) "home followed the writer" 1 (E.home_domain_of_block w.eng b);
  Alcotest.(check int64) "new home reads the carried copy" 5L !got_writer;
  Alcotest.(check int) "without a read miss" 0 (E.stats writer).E.read_misses;
  Alcotest.(check bool) "new home holds the block Shared" true
    (snd (E.block_state writer a) = P.Ptypes.Shared);
  Alcotest.(check (list string)) "quiescent invariants" [] (E.check_quiescent w.eng)

let test_stale_home_bounce () =
  (* After a migration, a third domain still routes to the static home;
     the stale home bounces the request with a forwarding hint, the
     retry lands at the new home, and the data is correct. *)
  let w = setup ~homing:P.Config.Migratory ~nodes:3 ~cpus:1 () in
  let a = base + 4096 in
  let got = ref 0L in
  let bounced = ref 0 in
  let _ = worker w ~cpu_i:0 (fun _ -> ()) in
  let _ = worker w ~cpu_i:1 (fun pcb -> sstore pcb a 77L; E.mb pcb) in
  let _ =
    worker w ~cpu_i:2 (fun pcb ->
        Sim.Proc.sleep 0.005;
        got := sload pcb a;
        bounced := (E.stats pcb).E.bounces)
  in
  E.set_home w.eng ~addr:a ~len:64 ~domain:0;
  E.init w.eng;
  run w;
  Alcotest.(check int64) "bounced read still returns the data" 77L !got;
  Alcotest.(check bool) "request bounced off the stale home" true (!bounced >= 1);
  Alcotest.(check (list string)) "quiescent invariants" [] (E.check_quiescent w.eng)

let suite =
  [
    Alcotest.test_case "read migration" `Quick test_read_migration;
    Alcotest.test_case "write invalidates readers" `Quick test_write_invalidates_readers;
    Alcotest.test_case "false miss" `Quick test_false_miss;
    Alcotest.test_case "recall to shared" `Quick test_recall_to_shared;
    Alcotest.test_case "SMP intra-node sharing" `Quick test_smp_intra_node_no_messages;
    Alcotest.test_case "Base variant messages" `Quick test_base_variant_needs_messages;
    Alcotest.test_case "direct downgrade latency" `Quick test_direct_downgrade_latency;
    Alcotest.test_case "SC hardware path" `Quick test_sc_hardware_path_when_exclusive;
    Alcotest.test_case "SC protocol path" `Quick test_sc_protocol_path_when_shared;
    Alcotest.test_case "SC fails when invalidated" `Quick test_sc_fails_when_invalidated;
    Alcotest.test_case "MB drains stores" `Quick test_mb_drains_stores;
    Alcotest.test_case "batch parallel fetch" `Quick test_batch_fetches_lines_in_parallel;
    Alcotest.test_case "variable block size" `Quick test_block_size_granularity;
    Alcotest.test_case "directory sharer bitmask" `Quick test_directory_sharer_bitmask;
    Alcotest.test_case "wrong-block-extent mutation caught" `Quick
      test_wrong_block_extent_mutation_caught;
    Alcotest.test_case "litmus: write serialization" `Quick test_litmus_write_serialization;
    Alcotest.test_case "random stress convergence" `Quick test_random_stress_convergence;
    Alcotest.test_case "home placement routes" `Quick test_home_placement_routes;
    Alcotest.test_case "batch defers invalidation flags" `Quick
      test_batch_defers_invalidation_flags;
    Alcotest.test_case "batch store reissue" `Quick test_batch_store_reissue;
    Alcotest.test_case "set_home overlap: later wins" `Quick test_set_home_overlap_later_wins;
    Alcotest.test_case "set_home after init raises" `Quick test_set_home_after_init_raises;
    Alcotest.test_case "set_home rejects bad domain" `Quick test_set_home_domain_out_of_range;
    Alcotest.test_case "migratory home transfer" `Quick test_migratory_home_transfer;
    Alcotest.test_case "migratory transfer carries data" `Quick
      test_migratory_transfer_carries_data;
    Alcotest.test_case "stale home bounce" `Quick test_stale_home_bounce;
  ]
