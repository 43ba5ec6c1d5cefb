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
  E.init w.eng ~homes:[ writer_pcb.E.st.E.dom.E.dom_id ];
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
          pcb.E.st.E.in_app := false;
          Sim.Proc.sleep 0.050;
          pcb.E.st.E.in_app := true;
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
  let b0 = E.block_of_addr w.eng.E.core base in
  Alcotest.(check int) "fine region: 64-byte extents" 64 (P.Layout.block_len (E.layout w.eng) b0);
  let bc = E.block_of_addr w.eng.E.core a in
  Alcotest.(check int) "coarse region: 256-byte extents" 256 (P.Layout.block_len (E.layout w.eng) bc);
  Alcotest.(check int) "one block covers the four lines" bc
    (E.block_of_addr w.eng.E.core (a + (3 * line)))

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
            if Sim.Rng.int rng 2 = 1 then
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
  let flag = P.Config.flag_value Alpha.Insn.W32 in
  let _ =
    worker w ~cpu_i:0 (fun pcb ->
        ignore (sload pcb a);
        block := E.block_of_addr w.eng.E.core a;
        (* Enter a batch over this block (white-box). *)
        pcb.E.st.E.in_batch <- true;
        pcb.E.st.E.batch_blocks <- [ !block ];
        (* Wait for the remote write to invalidate us. *)
        Sim.Proc.stall (fun () ->
            match E.block_state pcb a with _, P.Ptypes.Invalid -> true | _ -> false);
        value_mid := E.raw_read pcb a Alpha.Insn.W64;
        flag_mid := E.raw_read pcb a Alpha.Insn.W32 = flag;
        pcb.E.st.E.in_batch <- false;
        pcb.E.st.E.batch_blocks <- [];
        E.poll pcb;
        flag_after := E.raw_read pcb a Alpha.Insn.W32 = flag)
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
  let home off = E.home_domain_of_block w.eng.E.core (E.block_of_addr w.eng.E.core (a + off)) in
  Alcotest.(check int) "start of first range" 1 (home 0);
  Alcotest.(check int) "overlap: later range wins" 0 (home 64);
  Alcotest.(check int) "past the overlap" 1 (home 128);
  Alcotest.(check int) "end of first range" 1 (home 192)

(* The home rule against the per-block placement it replaced: an array
   written range by range in call order, the uncovered blocks then
   striped.  Random ranges overlap, nest and touch; a lookup between
   calls folds the ranges made so far, so later ones merge into sorted
   ranges already built. *)
let qcheck_home_rule_matches_placement =
  let n = 200 in
  let range = QCheck.Gen.(map3 (fun a len d -> (a, min (n - 1) (a + len), d))
      (int_range 0 (n - 1)) (int_range 0 60) (int_range 0 4)) in
  QCheck.Test.make ~name:"home rule matches a per-block placement" ~count:300
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 0 20) range) (int_range 0 20)))
    (fun (ranges, probe_at) ->
      let h = P.Homes.create () and placed = Array.make n (-1) in
      List.iteri
        (fun i (first, last, domain) ->
          if i = probe_at then ignore (P.Homes.static_home h 0);
          P.Homes.set h ~first ~last ~domain;
          for b = first to last do
            placed.(b) <- domain
          done)
        ranges;
      let stripe = [| 2; 0; 3 |] in
      let before = Array.init n (P.Homes.static_home h) in
      P.Homes.place h stripe;
      let want b = if placed.(b) >= 0 then placed.(b) else stripe.(b mod 3) in
      let homed dom lo hi =
        let acc = ref [] in
        P.Homes.iter_homed h ~dom ~lo ~hi (fun b -> acc := b :: !acc);
        List.rev !acc
      in
      Array.for_all2 ( = ) before placed
      && List.for_all (fun b -> P.Homes.static_home h b = want b) (List.init n Fun.id)
      && List.for_all
           (fun (dom, lo, hi) ->
             homed dom lo hi = List.filter (fun b -> want b = dom) (List.init (hi - lo) (( + ) lo)))
           [ (0, 0, n); (2, 17, 150); (3, 99, 100); (4, 5, n) ])

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
    (E.home_domain_of_block w.eng.E.core (E.block_of_addr w.eng.E.core a));
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
  let b = E.block_of_addr w.eng.E.core a in
  let entry () = P.Directory.find (E.domain_by_id w.eng.E.core 0).E.dir b in
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
  Alcotest.(check int) "home followed the writer" 1 (E.home_domain_of_block w.eng.E.core b);
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

(* --- Core alone: no cluster, no simulator --- *)

module Core = P.Core

(* Three SMP domains (one process each), every block homed at domain 0. *)
let core_setup ?(homing = P.Config.Static) () =
  let cfg =
    { P.Config.default with P.Config.homing; migration_threshold = 1; shared_size = 64 * 1024 }
  in
  let c = Core.create ~cfg ~nodes:3 in
  let ps = Array.init 3 (fun i -> Core.attach c ~pid:i ~node:i ~app:true) in
  Core.init c ~homes:[ 0 ];
  (c, ps, Core.domain_by_id c 0)

(* Take a domain's outbox: what the step just taken there emitted. *)
let take d =
  let out = List.of_seq (Queue.to_seq d.Core.outbox) in
  Queue.clear d.Core.outbox;
  out

let costs out = List.filter_map (function Core.Cost c -> Some c | Core.Send _ -> None) out
let sends out = List.filter_map (function Core.Send (d, m) -> Some (d, m) | Core.Cost _ -> None) out
let only_send d = match sends (take d) with [ s ] -> s | _ -> Alcotest.fail "expected one send"

let test_core_read_ex_two_sharers () =
  let c, ps, home = core_setup () in
  let k = P.Config.default_costs in
  let b = Core.block_of_addr c base in
  let serve (d : Core.domain) msg = Core.handle c ps.(d.Core.dom_id) msg in
  (* Processes 1 and 2 read the block: two remote sharers. *)
  List.iter
    (fun p ->
      ignore (Core.issue c p b P.Ptypes.Read Core.MRead None);
      serve home (snd (only_send p.Core.dom));
      Core.handle c p (snd (only_send home));
      ignore (take p.Core.dom))
    [ ps.(1); ps.(2) ];
  ignore (Core.issue c ps.(0) b P.Ptypes.Read_ex Core.MStore None);
  serve home (snd (only_send home));
  let out = take home in
  Alcotest.(check (list (float 0.0))) "request: one handler cost" [ k.P.Config.handler ] (costs out);
  let invals = sends out in
  Alcotest.(check (list int)) "two Invalidates, newest sharer first" [ 2; 1 ]
    (List.map
       (function
         | Core.To_domain d, P.Ptypes.Invalidate _ -> d
         | _ -> Alcotest.fail "expected an Invalidate to a domain")
       invals);
  let acks =
    List.map
      (fun (dst, inv) ->
        let d = Core.domain_by_id c (match dst with Core.To_domain d -> d | _ -> -1) in
        serve d inv;
        let out = take d in
        Alcotest.(check (list (float 0.0))) "invalidate cost" [ k.P.Config.inval_apply ] (costs out);
        match sends out with [ (Core.To_domain 0, ack) ] -> ack | _ -> Alcotest.fail "no ack")
      invals
  in
  serve home (List.hd acks);
  let out = take home in
  Alcotest.(check int) "no grant before the second ack" 0 (List.length (sends out));
  Alcotest.(check (list (float 0.0))) "first ack cost" [ k.P.Config.reply_process ] (costs out);
  serve home (List.nth acks 1);
  let out = take home in
  Alcotest.(check (list (float 0.0))) "second ack cost" [ k.P.Config.reply_process ] (costs out);
  (match sends out with
  | [ (Core.To_pid 0, (P.Ptypes.Data_reply { exclusive = true; _ } as reply)) ] ->
      Core.handle c ps.(0) reply
  | _ -> Alcotest.fail "expected one exclusive Data_reply to pid 0");
  Alcotest.(check (list (float 0.0))) "reply cost" [ k.P.Config.reply_process ] (costs (take home));
  Alcotest.(check (list string)) "coherent without a simulator" []
    (P.Invariants.check_quiescent c ~dom_backlog:(fun _ -> 0) ~pid_backlog:(fun _ -> 0))

let test_core_stale_home_hint () =
  let c, ps, home = core_setup ~homing:P.Config.Migratory () in
  let b = Core.block_of_addr c base in
  let serve (d : Core.domain) msg = Core.handle c ps.(d.Core.dom_id) msg in
  (* One exclusive request from domain 1 moves the home there (threshold
     1): the home invalidates its own copy through its own mailbox,
     grants, then hands the entry to domain 1. *)
  ignore (Core.issue c ps.(1) b P.Ptypes.Read_ex Core.MStore None);
  serve home (snd (only_send ps.(1).Core.dom));
  serve home (match only_send home with Core.Self 0, inv -> inv | _ -> Alcotest.fail "self");
  serve home (snd (only_send home));
  (match sends (take home) with
  | [ (Core.To_pid 1, _); (Core.To_nic 1, transfer) ] -> Core.apply_transport c transfer
  | _ -> Alcotest.fail "expected a grant, then the entry's transfer to domain 1");
  Alcotest.(check int) "home moved" 1 (Core.home_domain_of_block c b);
  ignore (take ps.(1).Core.dom);
  (* Domain 2 still believes in the static home. *)
  ignore (Core.issue c ps.(2) b P.Ptypes.Read Core.MRead None);
  (match only_send ps.(2).Core.dom with
  | Core.To_domain 0, req -> serve home req
  | _ -> Alcotest.fail "request not routed to the static home");
  match sends (take home) with
  | [ (Core.To_nic 2, P.Ptypes.Home_hint { home = 1; to_pid = 2; _ }) ] -> ()
  | _ -> Alcotest.fail "expected a Home_hint naming domain 1"

(* --- init's memory state, read back directly --- *)

(* After [init], every word of every image holds the invalid flag except
   in that domain's own home blocks, which are zero; [Core.shared_state]
   reads Shared exactly at each block's home and Invalid elsewhere, both
   past the end of the (empty) table and once the table has grown over
   every block; no LL/SC monitor is armed.  [expect_home] pins the
   placement itself.  Every word is read through [Memimg.read], which
   materializes the image, so it spans the layout once all are read. *)
let check_init_memory (c : Core.t) ~expect_home =
  let layout = c.Core.layout in
  let last = P.Layout.n_blocks layout - 1 in
  List.iter
    (fun (d : Core.domain) ->
      let img = d.Core.img in
      let id = d.Core.dom_id in
      Alcotest.(check int) "no monitor armed" 0 img.P.Memimg.armed;
      let check_states when_ =
        for b = 0 to last do
          let h = Core.home_domain_of_block c b in
          if h <> expect_home b then
            Alcotest.failf "block %d homed at %d, expected %d" b h (expect_home b);
          let st = Core.shared_state d b in
          if st <> if h = id then P.Ptypes.Shared else P.Ptypes.Invalid then
            Alcotest.failf "domain %d block %d %s: shared state %c" id b when_ (Core.st_char st)
        done
      in
      check_states "past the table";
      Core.set_shared d last (Core.shared_state d last);
      Alcotest.(check int) "the table spans the layout" (last + 1) (Bytes.length d.Core.shared_tab);
      check_states "in the grown table";
      for b = 0 to last do
        let want = if Core.home_domain_of_block c b = id then 0l else P.Memimg.flag32 in
        let addr = P.Layout.block_base layout b in
        for w = 0 to (P.Layout.block_len layout b / 4) - 1 do
          let v = Int64.to_int32 (P.Memimg.read img (addr + (4 * w)) Alpha.Insn.W32) in
          if v <> want then
            Alcotest.failf "domain %d block %d word %d: 0x%lx, expected 0x%lx" id b w v want
        done
      done;
      Alcotest.(check int) "image spans the layout" (P.Layout.size layout)
        (Bytes.length img.P.Memimg.data))
    c.Core.domains

(* Three nodes; [attach] one application process per node (SMP: node
   domains 0..2; Base: per-process domains 10..12, so a domain id is not
   a node id), plus a protocol-only process on node 0. *)
let init_case ~variant ~regions ?homes ?override ~expect_home () =
  let cfg = { P.Config.default with P.Config.variant; regions; shared_size = 64 * 1024 } in
  let c = Core.create ~cfg ~nodes:3 in
  for i = 0 to 2 do
    ignore (Core.attach c ~pid:(10 + i) ~node:i ~app:true)
  done;
  ignore (Core.attach c ~pid:20 ~node:0 ~app:false);
  Option.iter (fun (off, len, domain) -> Core.set_home c ~addr:(base + off) ~len ~domain) override;
  Core.init c ?homes;
  check_init_memory c ~expect_home:(expect_home c)

let test_init_memory_state () =
  let block_at c off = Core.block_of_addr c (base + off) in
  (* Default striping over the inhabited domains, in creation order. *)
  init_case ~variant:P.Config.Smp ~regions:[] ~expect_home:(fun _ b -> b mod 3) ();
  init_case ~variant:P.Config.Base ~regions:[] ~expect_home:(fun _ b -> 10 + (b mod 3)) ();
  (* Mixed granularity, an explicit stripe and a set_home override that
     straddles the region boundary. *)
  let override = (30 * 1024, 4 * 1024, 2) in
  let in_override c b = b >= block_at c (30 * 1024) && b <= block_at c ((34 * 1024) - 1) in
  init_case ~variant:P.Config.Smp ~regions:mixed_regions ~homes:[ 1; 0 ] ~override
    ~expect_home:(fun c b -> if in_override c b then 2 else if b mod 2 = 0 then 1 else 0)
    ();
  let override = (30 * 1024, 4 * 1024, 12) in
  init_case ~variant:P.Config.Base ~regions:mixed_regions ~homes:[ 11 ] ~override
    ~expect_home:(fun c b -> if in_override c b then 12 else 11)
    ();
  (* Base with a protocol-only domain in the stripe. *)
  init_case ~variant:P.Config.Base ~regions:[] ~homes:[ 20; 10 ]
    ~expect_home:(fun _ b -> if b mod 2 = 0 then 20 else 10)
    ()

let test_attach_after_init_raises () =
  let c, _, home = core_setup () in
  Alcotest.check_raises "attach after init" (Invalid_argument "attach after init") (fun () ->
      ignore (Core.attach c ~pid:3 ~node:0 ~app:true));
  (* The bulk flag fill breaks no monitor, so it refuses an armed one. *)
  ignore (P.Memimg.ll home.Core.img ~pid:0 base Alpha.Insn.W64);
  Alcotest.check_raises "fill_flags with a monitor armed"
    (Invalid_argument "Memimg.fill_flags: a monitor is armed") (fun () ->
      P.Memimg.fill_flags home.Core.img)

(* [Protocol.Core.t] holds no closures, so a whole protocol state can
   be copied with [Marshal], which raises on a functional value.  After
   a full LU run on 2x2 the state marshals, and its copy marshals to
   the same bytes. *)
let test_core_marshals_after_run () =
  let cl =
    Shasta.Cluster.create
      {
        Shasta.Config.default with
        Shasta.Config.net = { Mchan.Net.default_config with Mchan.Net.nodes = 2; cpus_per_node = 2 };
      }
  in
  let _, ok = Apps.Harness.run_spec cl Apps.Lu.spec ~nprocs:4 ~sync:Apps.Harness.Mp ~size:16 () in
  Alcotest.(check bool) "LU validates" true ok;
  let core = (Shasta.Cluster.protocol_engine cl).E.core in
  let bytes = Marshal.to_string core [] in
  let copy : P.Core.t = Marshal.from_string bytes 0 in
  Alcotest.(check bool) "the copy marshals to the same bytes" true
    (String.equal bytes (Marshal.to_string copy []))

(* --- images materialize on first touch --- *)

(* Where an operation lands, resolved against the grown image's
   capacity when it runs: astride the capacity edge, in the segment's
   last block, anywhere, or past the segment's end. *)
type at = Edge of int | Last of int | Any of int | Past of int

type img_op =
  | Read of Alpha.Insn.width * at
  | Write of int * Alpha.Insn.width * at * int64
  | Read_block of at
  | Write_block of at * char
  | Flags of at * int
  | Blit_in of at * int * char
  | Blit_out of at * int
  | Ll of int * Alpha.Insn.width * at
  | Sc of int * Alpha.Insn.width * at * int64

let gen_img_op =
  let open QCheck.Gen in
  let width = oneofl [ Alpha.Insn.W32; Alpha.Insn.W64 ] in
  let pid = int_range 0 2 in
  let at =
    frequency
      [ (4, map (fun k -> Edge k) (int_range (-24) 24)); (2, map (fun k -> Last k) (int_range 1 80));
        (3, map (fun k -> Any k) (int_range 0 ((64 * 1024 / 4) - 1)));
        (1, map (fun k -> Past k) (int_range 0 4)) ]
  in
  let fill = oneofl [ '\000'; '\xef'; 'a' ] in
  frequency
    [ (3, map2 (fun w a -> Read (w, a)) width at);
      (3, map3 (fun (p, w) a v -> Write (p, w, a, v)) (pair pid width) at (map Int64.of_int nat));
      (1, map (fun a -> Read_block a) at); (1, map2 (fun a c -> Write_block (a, c)) at fill);
      (1, map2 (fun a n -> Flags (a, 4 * n)) at (int_range 0 160));
      (1, map3 (fun a n c -> Blit_in (a, n, c)) at (int_range 0 600) fill);
      (1, map2 (fun a n -> Blit_out (a, n)) at (int_range 0 600));
      (2, map3 (fun p w a -> Ll (p, w, a)) pid width at);
      (2, map3 (fun (p, w) a v -> Sc (p, w, a, v)) (pair pid width) at (map Int64.of_int nat)) ]

type img_case = {
  ic_variant : P.Config.variant;
  ic_layout : int;  (** index into [img_layouts] *)
  ic_domain : int;  (** index into the core's domains *)
  ic_ops : img_op list;
}

(* Uniform 64-byte blocks; fine and coarse halves; and a last region of
   4 KB blocks, so the segment's last block dwarfs a doubling step. *)
let img_layouts =
  [| []; mixed_regions;
     [ { P.Layout.rs_name = "fine"; rs_size = 48 * 1024; rs_block = 64 };
       { P.Layout.rs_name = "big"; rs_size = 16 * 1024; rs_block = 4096 } ] |]

let img_case_print c =
  Printf.sprintf "%s layout %d domain %d, %d ops"
    (match c.ic_variant with P.Config.Smp -> "Smp" | P.Config.Base -> "Base")
    c.ic_layout c.ic_domain (List.length c.ic_ops)

(* The image of [img]'s domain laid out in full by hand: the invalid flag
   in every word, zeros in the blocks homed there.  Shares no code with
   the growth it checks. *)
let eager_image c (img : P.Memimg.t) =
  let layout = img.P.Memimg.layout in
  let data = Bytes.create (P.Layout.size layout) in
  for w = 0 to (Bytes.length data / 4) - 1 do
    Bytes.set_int32_le data (4 * w) P.Memimg.flag32
  done;
  for b = 0 to P.Layout.n_blocks layout - 1 do
    if P.Core.home_domain_of_block c b = img.P.Memimg.dom then
      Bytes.fill data (P.Layout.block_base layout b - base) (P.Layout.block_len layout b) '\000'
  done;
  let r = P.Memimg.create ~layout ~homes:img.P.Memimg.homes ~dom:img.P.Memimg.dom in
  r.P.Memimg.data <- data;
  r

type img_result = V of int64 | B of string | Sc_ok of bool | Unit | Err of string

(* Run [op] on one image; [cap] and [size] place its address. *)
let run_img_op ~cap ~size img op =
  let addr = function
    | Edge k -> base + max 0 (cap + (4 * k))
    | Last k -> base + size - (4 * k)
    | Any k -> base + (4 * k)
    | Past k -> base + size + (4 * k)
  in
  let block a =
    P.Layout.block_of_addr img.P.Memimg.layout (base + min (size - 1) (addr a - base))
  in
  try
    match op with
    | Read (w, a) -> V (P.Memimg.read img (addr a) w)
    | Write (pid, w, a, v) -> P.Memimg.write ~pid img (addr a) w v; Unit
    | Read_block a -> B (Bytes.to_string (P.Memimg.read_block img ~block:(block a)))
    | Write_block (a, ch) ->
        let b = block a in
        P.Memimg.write_block img ~block:b (Bytes.make (P.Layout.block_len img.P.Memimg.layout b) ch);
        Unit
    | Flags (a, len) -> P.Memimg.write_flags_range img ~addr:(addr a) ~len; Unit
    | Blit_in (a, n, ch) -> P.Memimg.blit_in img ~addr:(addr a) (Bytes.make n ch) 0 n; Unit
    | Blit_out (a, n) ->
        let buf = Bytes.create n in
        P.Memimg.blit_out img ~addr:(addr a) ~len:n buf 0;
        B (Bytes.to_string buf)
    | Ll (pid, w, a) -> V (P.Memimg.ll img ~pid (addr a) w)
    | Sc (pid, w, a, v) -> Sc_ok (P.Memimg.sc img ~pid (addr a) w v)
  with Invalid_argument m -> Err m

let qcheck_lazy_image_matches_eager =
  let gen =
    QCheck.Gen.(
      map
        (fun (((v, l), d), ops) -> { ic_variant = v; ic_layout = l; ic_domain = d; ic_ops = ops })
        (pair
           (pair (pair (oneofl [ P.Config.Smp; P.Config.Base ]) (int_range 0 2)) (int_range 0 3))
           (list_size (int_range 1 40) gen_img_op)))
  in
  QCheck.Test.make ~name:"a lazily grown image matches an eager one" ~count:300
    (QCheck.make ~print:img_case_print gen) (fun case ->
      let cfg =
        { P.Config.default with P.Config.variant = case.ic_variant;
          regions = img_layouts.(case.ic_layout); shared_size = 64 * 1024 }
      in
      let c = P.Core.create ~cfg ~nodes:3 in
      for i = 0 to 2 do
        ignore (P.Core.attach c ~pid:(10 + i) ~node:i ~app:true)
      done;
      ignore (P.Core.attach c ~pid:20 ~node:0 ~app:false);
      P.Core.init c;
      let domains = List.rev c.P.Core.domains in
      let img = (List.nth domains (case.ic_domain mod List.length domains)).P.Core.img in
      let reference = eager_image c img in
      let size = P.Layout.size c.P.Core.layout in
      List.iteri
        (fun i op ->
          let cap = Bytes.length img.P.Memimg.data in
          let got = run_img_op ~cap ~size img op in
          let want = run_img_op ~cap ~size reference op in
          if got <> want then QCheck.Test.fail_reportf "op %d: the results differ" i;
          let cap = Bytes.length img.P.Memimg.data in
          let layout = c.P.Core.layout in
          if cap > size
             || (cap < size
                && P.Layout.block_base layout (P.Layout.block_of_addr layout (base + cap)) <> base + cap)
          then QCheck.Test.fail_reportf "op %d: capacity %d is not a block end" i cap;
          if img.P.Memimg.armed <> reference.P.Memimg.armed
             || img.P.Memimg.breaks <> reference.P.Memimg.breaks
          then QCheck.Test.fail_reportf "op %d: the monitors differ" i)
        case.ic_ops;
      for w = 0 to (size / 4) - 1 do
        let a = base + (4 * w) in
        if P.Memimg.read img a Alpha.Insn.W32 <> P.Memimg.read reference a Alpha.Insn.W32 then
          QCheck.Test.fail_reportf "word at 0x%x differs" a
      done;
      true)

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
    QCheck_alcotest.to_alcotest qcheck_home_rule_matches_placement;
    Alcotest.test_case "set_home after init raises" `Quick test_set_home_after_init_raises;
    Alcotest.test_case "set_home rejects bad domain" `Quick test_set_home_domain_out_of_range;
    Alcotest.test_case "migratory home transfer" `Quick test_migratory_home_transfer;
    Alcotest.test_case "migratory transfer carries data" `Quick
      test_migratory_transfer_carries_data;
    Alcotest.test_case "stale home bounce" `Quick test_stale_home_bounce;
    Alcotest.test_case "core: read-exclusive over two sharers" `Quick
      test_core_read_ex_two_sharers;
    Alcotest.test_case "core: stale home hints" `Quick test_core_stale_home_hint;
    Alcotest.test_case "core: init lays out every image" `Quick test_init_memory_state;
    Alcotest.test_case "core: attach after init raises" `Quick test_attach_after_init_raises;
    Alcotest.test_case "core: marshals after a run" `Quick test_core_marshals_after_run;
    QCheck_alcotest.to_alcotest qcheck_lazy_image_matches_eager;
  ]
