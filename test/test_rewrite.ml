(* Tests for the binary rewriter: check insertion, batching, polls,
   LL/SC transformation, and semantic preservation. *)

open Alpha

let shared_base = Protocol.Config.default.Protocol.Config.shared_base

let instrument ?options prog = Rewrite.Instrument.instrument ?options prog

let code_of prog name = (Program.find prog name).Program.code

let count pred code = Array.fold_left (fun n i -> if pred i then n + 1 else n) 0 code

let is_load_check = function Insn.Load_check _ -> true | _ -> false
let is_store_check = function Insn.Store_check _ -> true | _ -> false
let is_batch_check = function Insn.Batch_check _ -> true | _ -> false
let is_poll = function Insn.Poll -> true | _ -> false
let is_prefetch = function Insn.Prefetch_excl _ -> true | _ -> false
let is_mb_check = function Insn.Mb_check -> true | _ -> false
let is_ll_check = function Insn.Ll_check _ -> true | _ -> false
let is_sc_check = function Insn.Sc_check _ -> true | _ -> false

let test_private_not_checked () =
  (* Stack (sp) and static (gp) accesses must not receive checks. *)
  let prog =
    Asm.(
      program
        [
          proc "main"
            [ ldq t0 0 sp; stq t0 8 sp; ldq t1 0 29 (* gp *); stq t1 16 29; halt ];
        ])
  in
  let prog', stats = instrument prog in
  let code = code_of prog' "main" in
  Alcotest.(check int) "no load checks" 0 (count is_load_check code);
  Alcotest.(check int) "no store checks" 0 (count is_store_check code);
  Alcotest.(check int) "no batch checks" 0 (count is_batch_check code);
  Alcotest.(check int) "private accesses counted" 4
    stats.Rewrite.Instrument.accesses_private

let test_shared_load_checked () =
  let prog =
    Asm.(
      program
        [ proc "main" [ li t0 (Int64.of_int shared_base); ldq v0 0 t0; halt ] ])
  in
  let prog', stats = instrument prog in
  let code = code_of prog' "main" in
  Alcotest.(check int) "one load check" 1 (count is_load_check code);
  Alcotest.(check int) "loads_checked" 1 stats.Rewrite.Instrument.loads_checked;
  (* Flag-technique check goes after the load. *)
  let rec find i = if is_load_check code.(i) then i else find (i + 1) in
  let ci = find 0 in
  (match code.(ci - 1) with
  | Insn.Ld _ -> ()
  | _ -> Alcotest.fail "load check must directly follow the load")

let test_load_into_base_uses_state_check () =
  (* ldq t0, 0(t0) clobbers its base: flag technique impossible. *)
  let prog =
    Asm.(
      program
        [ proc "main" [ li t0 (Int64.of_int shared_base); ldq t0 0 t0; halt ] ])
  in
  let prog', _ = instrument prog in
  let code = code_of prog' "main" in
  Alcotest.(check int) "no flag check" 0 (count is_load_check code);
  Alcotest.(check int) "one state-table check" 1 (count is_batch_check code)

let test_store_checked_before () =
  let prog =
    Asm.(
      program
        [ proc "main" [ li t0 (Int64.of_int shared_base); stq zero 0 t0; halt ] ])
  in
  let prog', stats = instrument prog in
  let code = code_of prog' "main" in
  Alcotest.(check int) "one store check" 1 (count is_store_check code);
  Alcotest.(check int) "stores_checked" 1 stats.Rewrite.Instrument.stores_checked;
  let rec find i = if is_store_check code.(i) then i else find (i + 1) in
  let ci = find 0 in
  (match code.(ci + 1) with
  | Insn.St _ -> ()
  | _ -> Alcotest.fail "store check must directly precede the store")

let test_batching_merges_checks () =
  (* Four nearby accesses through one base: a single batch check. *)
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              li t0 (Int64.of_int shared_base);
              ldq t1 0 t0;
              ldq t2 8 t0;
              stq t1 16 t0;
              stq t2 24 t0;
              halt;
            ];
        ])
  in
  let prog', stats = instrument prog in
  let code = code_of prog' "main" in
  Alcotest.(check int) "one batch" 1 stats.Rewrite.Instrument.batches;
  Alcotest.(check int) "four accesses batched" 4 stats.Rewrite.Instrument.batched_accesses;
  Alcotest.(check int) "one batch check in code" 1 (count is_batch_check code);
  Alcotest.(check int) "no individual load checks" 0 (count is_load_check code);
  Alcotest.(check int) "no individual store checks" 0 (count is_store_check code)

let test_batching_respects_clobbered_base () =
  (* The base register is recomputed between accesses: the run must split
     and the second access cannot join the first batch. *)
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              li t0 (Int64.of_int shared_base);
              ldq t1 0 t0;
              ldq t2 8 t0;
              addi t0 64 t0;
              ldq t3 0 t0;
              ldq t4 8 t0;
              halt;
            ];
        ])
  in
  let _, stats = instrument prog in
  Alcotest.(check int) "two batches" 2 stats.Rewrite.Instrument.batches

let test_no_batch_option () =
  let options = { Rewrite.Instrument.default_options with Rewrite.Instrument.batching = false } in
  let prog =
    Asm.(
      program
        [
          proc "main"
            [ li t0 (Int64.of_int shared_base); ldq t1 0 t0; ldq t2 8 t0; halt ];
        ])
  in
  let prog', stats = instrument ~options prog in
  let code = code_of prog' "main" in
  Alcotest.(check int) "no batches" 0 stats.Rewrite.Instrument.batches;
  Alcotest.(check int) "two load checks" 2 (count is_load_check code)

let test_poll_at_backedge () =
  let prog =
    Asm.(
      program
        [
          proc "main"
            [ li t0 100L; label "loop"; subi t0 1 t0; bgt t0 "loop"; halt ];
        ])
  in
  let prog', stats = instrument prog in
  let code = code_of prog' "main" in
  Alcotest.(check int) "one poll" 1 (count is_poll code);
  Alcotest.(check int) "stat" 1 stats.Rewrite.Instrument.polls_inserted;
  (* The poll sits before the backedge so it runs on every iteration. *)
  let rec find i = if is_poll code.(i) then i else find (i + 1) in
  let pi = find 0 in
  (match code.(pi + 1) with
  | Insn.Bcond _ -> ()
  | _ -> Alcotest.fail "poll must precede the backedge branch")

let test_llsc_transform () =
  (* The paper's Figure 1 lock-acquire loop. *)
  let prog =
    Asm.(
      program
        [
          proc "acquire"
            [
              label "try_again";
              ll W32 t0 0 a0;
              bne t0 "try_again";
              li t0 1L;
              sc W32 t0 0 a0;
              beq t0 "try_again";
              mb;
              ret;
            ];
        ])
  in
  let prog', stats = instrument prog in
  let code = code_of prog' "acquire" in
  Alcotest.(check int) "pair found" 1 stats.Rewrite.Instrument.llsc_pairs;
  Alcotest.(check int) "ll_check" 1 (count is_ll_check code);
  Alcotest.(check int) "sc_check" 1 (count is_sc_check code);
  Alcotest.(check int) "prefetch hoisted" 1 (count is_prefetch code);
  Alcotest.(check int) "mb check" 1 (count is_mb_check code);
  (* No poll between LL and SC; the backedges are poll-free because they
     lie inside the LL/SC range... except branches after the SC. *)
  let ll_i = ref (-1) and sc_i = ref (-1) in
  Array.iteri
    (fun i insn ->
      match insn with
      | Insn.Ll _ -> ll_i := i
      | Insn.Sc _ -> sc_i := i
      | _ -> ())
    code;
  for i = !ll_i to !sc_i do
    if is_poll code.(i) then Alcotest.fail "poll inside LL/SC success path"
  done;
  (* Prefetch must be outside the loop: before the "try_again" label. *)
  let header = Program.label_index (Program.find prog' "acquire") "try_again" in
  let found_before = ref false in
  for i = 0 to header - 1 do
    if is_prefetch code.(i) then found_before := true
  done;
  Alcotest.(check bool) "prefetch before loop header" true !found_before

let test_mb_check_inserted () =
  let prog = Asm.(program [ proc "main" [ mb; mb; halt ] ]) in
  let prog', stats = instrument prog in
  let code = code_of prog' "main" in
  Alcotest.(check int) "two mb checks" 2 (count is_mb_check code);
  Alcotest.(check int) "stat" 2 stats.Rewrite.Instrument.mb_checks_inserted

let test_code_growth () =
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              li t0 (Int64.of_int shared_base);
              label "loop";
              ldq t1 0 t0;
              stq t1 8 t0;
              subi t2 1 t2;
              bgt t2 "loop";
              halt;
            ];
        ])
  in
  let _, stats = instrument prog in
  let growth = Rewrite.Instrument.code_growth stats in
  Alcotest.(check bool) "code grows" true (growth > 0.1);
  Alcotest.(check bool) "but not absurdly" true (growth < 3.0)

let run_flat ?args prog entry =
  let rt = Runtime.flat ~size:(1 lsl 16) () in
  Interp.run prog rt ~entry ?args ()

(* Semantic preservation: on a flat (hardware-like) runtime, where checks
   are no-ops, the instrumented program computes the same result. *)
let test_semantics_preserved_lock_program () =
  let body =
    Asm.
      [
        li a0 0x100L;
        label "try_again";
        ll W32 t0 0 a0;
        bne t0 "try_again";
        li t0 1L;
        sc W32 t0 0 a0;
        beq t0 "try_again";
        mb;
        ldl v0 0 a0;
        halt;
      ]
  in
  let prog = Asm.(program [ proc "main" body ]) in
  let prog', _ = instrument prog in
  Alcotest.(check int64) "same result" (run_flat prog "main").Interp.r0
    (run_flat prog' "main").Interp.r0

let qcheck_semantics_preserved =
  (* Random straight-line programs over private and shared addresses give
     identical results with and without instrumentation on a flat
     runtime. *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 30)
        (oneof
           [
             map2 (fun r v -> Asm.li (1 + (r mod 8)) (Int64.of_int v)) (int_range 0 7) (int_range 0 1000);
             map3
               (fun a b d -> Asm.add (1 + (a mod 8)) (1 + (b mod 8)) (1 + (d mod 8)))
               (int_range 0 7) (int_range 0 7) (int_range 0 7)
             (* loads/stores via a shared pointer in t8 and private in sp *);
             map2
               (fun off r -> Asm.stq (1 + (r mod 8)) (8 * (off mod 16)) Asm.t8)
               (int_range 0 15) (int_range 0 7);
             map2
               (fun off d -> Asm.ldq (1 + (d mod 8)) (8 * (off mod 16)) Asm.t8)
               (int_range 0 15) (int_range 0 7);
             map2
               (fun off r -> Asm.stq (1 + (r mod 8)) (8 * (off mod 16)) Asm.sp)
               (int_range 0 15) (int_range 0 7);
           ]))
  in
  QCheck.Test.make ~name:"instrumentation preserves straight-line semantics" ~count:100
    (QCheck.make gen) (fun body ->
      (* t8 points at offset 0x2000; sp at 0x4000; sum all registers into
         v0 at the end to observe the whole state. *)
      let prologue = Asm.[ li t8 0x2000L; li sp 0x4000L ] in
      let epilogue =
        Asm.(
          [ li v0 0L ]
          @ List.concat_map (fun r -> [ add v0 r v0 ]) [ t0; t1; t2; t3; t4; t5; t6; t7 ]
          @ [ halt ])
      in
      let full = prologue @ body @ epilogue in
      let prog = Asm.(program [ proc "main" full ]) in
      let prog', _ = instrument prog in
      (run_flat prog "main").Interp.r0 = (run_flat prog' "main").Interp.r0)

let test_modification_time_model () =
  let splash = Rewrite.Instrument.modification_time_model ~procedures:370 ~slots:200_000 in
  let oracle = Rewrite.Instrument.modification_time_model ~procedures:12_000 ~slots:3_000_000 in
  Alcotest.(check bool) "SPLASH ~4-8s" true (splash > 3.0 && splash < 9.0);
  Alcotest.(check bool) "Oracle ~180-220s" true (oracle > 150.0 && oracle < 260.0)

let test_poll_precedes_pending_checks () =
  (* Regression for the pass-3 ordering bug: when a poll and checks land
     in front of the same instruction, the poll must come first — a
     check issued before a protocol entry point is dead (the validator's
     poll-kill rule convicts the swapped order; see the
     check-after-poll mutation). *)
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              label "outer";
              label "try_again";
              ll W32 t0 0 a0;
              bne t0 "try_again";
              li t0 1L;
              sc W32 t0 0 a0;
              beq t0 "try_again";
              mb;
              ldq t1 0 a1;
              addi t1 1 t1;
              stq t1 0 a1;
              mb;
              stl zero 0 a0;
              subi a2 1 a2;
              bgt a2 "outer";
              halt;
            ];
        ])
  in
  let prog', _ = instrument prog in
  let code = code_of prog' "main" in
  let is_check i =
    is_load_check i || is_store_check i || is_batch_check i || is_ll_check i || is_sc_check i
  in
  let poll_then_check = ref false in
  Array.iteri
    (fun i insn ->
      if is_poll insn then begin
        if i > 0 && is_check code.(i - 1) then
          Alcotest.fail "check emitted before a poll at the same site";
        if i + 1 < Array.length code && is_check code.(i + 1) then poll_then_check := true
      end)
    code;
  Alcotest.(check bool) "poll precedes its pending check" true !poll_then_check;
  Alcotest.(check bool) "validator-clean" true (Rewrite.Verify.ok (Rewrite.Verify.verify prog'))

let test_pointer_reloaded_after_call_rechecked () =
  (* v0 is provably private before the call; the call may redefine it
     (return-register convention), so the reload through it must be
     re-checked. *)
  let prog =
    Asm.(
      program
        [
          proc "main" [ li v0 0x100L; ldq t0 0 v0; call "f"; ldq t1 0 v0; halt ];
          proc "f" [ ret ];
        ])
  in
  let prog', stats = instrument prog in
  let code = code_of prog' "main" in
  Alcotest.(check int) "pre-call load private" 1 stats.Rewrite.Instrument.accesses_private;
  Alcotest.(check int) "post-call load checked" 1 (count is_load_check code);
  let idx pred =
    let r = ref (-1) in
    Array.iteri (fun i insn -> if !r < 0 && pred insn then r := i) code;
    !r
  in
  let call_i = idx (function Insn.Call _ -> true | _ -> false) in
  Alcotest.(check bool) "the check is after the call" true (idx is_load_check > call_i)

let test_float_laundered_pointer_still_checked () =
  (* A shared pointer converted to float, moved, and converted back must
     keep its class: the access through the laundered register is
     checked. *)
  let prog =
    Asm.(
      program
        [ proc "main" [ cvt_if a0 0; fmov 0 1; cvt_fi 1 t0; ldq t1 0 t0; halt ] ])
  in
  let prog', stats = instrument prog in
  let code = code_of prog' "main" in
  Alcotest.(check int) "load checked" 1 (count is_load_check code);
  Alcotest.(check int) "not treated as private" 0 stats.Rewrite.Instrument.accesses_private

let test_private_float_roundtrip_unchecked () =
  (* The same laundering of a provably private pointer stays
     unchecked — the class survives the float round trip. *)
  let prog =
    Asm.(
      program
        [ proc "main" [ li t0 0x100L; cvt_if t0 0; cvt_fi 0 t1; ldq t2 0 t1; halt ] ])
  in
  let prog', stats = instrument prog in
  let code = code_of prog' "main" in
  Alcotest.(check int) "no checks" 0 (count is_load_check code);
  Alcotest.(check int) "no batch checks" 0 (count is_batch_check code);
  Alcotest.(check int) "counted private" 1 stats.Rewrite.Instrument.accesses_private

(* --- dominator-tree properties on random CFGs ----------------------

   Random branchy procedures: a handful of labelled segments, each
   ending in an unconditional branch, a conditional branch (falls
   through), a halt, or plain fall-through, with targets drawn freely —
   so the CFGs include unreachable blocks, self loops, multiple
   backedges and irreducible shapes.  Domtree's idom and natural-loop
   answers, and the fixed points of Cfg's forward solver, are checked
   against direct-from-definition references. *)

module Cfg = Rewrite.Cfg
module Domtree = Rewrite.Domtree

let gen_branchy_proc =
  QCheck.Gen.(
    int_range 2 12 >>= fun nseg ->
    list_repeat nseg (pair (int_range 0 3) (int_range 0 (nseg - 1))) >|= fun segs ->
    let lbl k = Printf.sprintf "L%d" k in
    let body =
      List.concat
        (List.mapi
           (fun i (kind, tgt) ->
             Asm.[ label (lbl i); li t0 (Int64.of_int i) ]
             @
             match kind with
             | 0 -> [ Asm.br (lbl tgt) ]
             | 1 -> [ Asm.beq Asm.t0 (lbl tgt) ]
             | 2 -> [ Asm.halt ]
             | _ -> [])
           segs)
      @ [ Asm.halt ]
    in
    Asm.(program [ proc "main" body ]))

(* Reference dominator sets by the textbook dataflow fixpoint:
   Dom(entry) = {entry}, Dom(b) = {b} ∪ ⋂ over reachable preds. *)
let reach_and_doms cfg =
  let nb = Cfg.n_blocks cfg in
  let preds = Cfg.preds cfg in
  let reach = Array.make nb false in
  let rec dfs b =
    if not reach.(b) then begin
      reach.(b) <- true;
      List.iter dfs (Cfg.block cfg b).Cfg.succs
    end
  in
  if nb > 0 then dfs 0;
  let all = List.filter (fun b -> reach.(b)) (List.init nb Fun.id) in
  let dom = Array.init nb (fun b -> if b = 0 then [ 0 ] else all) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> 0 then begin
          let inter =
            match List.filter (fun p -> reach.(p)) preds.(b) with
            | [] -> []
            | p0 :: rest ->
                List.fold_left
                  (fun acc p -> List.filter (fun x -> List.mem x dom.(p)) acc)
                  dom.(p0) rest
          in
          let nd = List.sort_uniq compare (b :: inter) in
          if nd <> dom.(b) then begin
            dom.(b) <- nd;
            changed := true
          end
        end)
      all
  done;
  (reach, dom)

let qcheck_idom_is_dominator =
  QCheck.Test.make ~name:"idom chain reproduces the dominator-set reference" ~count:200
    (QCheck.make gen_branchy_proc) (fun prog ->
      let cfg = Cfg.build (Program.find prog "main") in
      let t = Domtree.build cfg in
      let reach, dom = reach_and_doms cfg in
      let nb = Cfg.n_blocks cfg in
      let blocks = List.init nb Fun.id in
      List.for_all
        (fun b ->
          Domtree.dominates t b b = reach.(b)
          && ((not reach.(b))
             || List.filter (fun a -> Domtree.dominates t a b) blocks = dom.(b)
                &&
                let d = t.Domtree.idom.(b) in
                if b = 0 then d = 0 else d <> b && List.mem d dom.(b)))
        blocks)

(* A trivial lattice: the solver's [Some] blocks are its reachable set. *)
let qcheck_forward_reaches =
  QCheck.Test.make ~name:"forward solver reaches exactly the DFS-reachable blocks" ~count:200
    (QCheck.make gen_branchy_proc) (fun prog ->
      let cfg = Cfg.build (Program.find prog "main") in
      let reach, _ = reach_and_doms cfg in
      let block_in =
        Cfg.forward cfg ~entry:()
          ~flow:(fun b () -> List.map (fun s -> (s, ())) (Cfg.block cfg b).Cfg.succs)
          ~merge:(fun cur () -> match cur with None -> Some () | Some () -> None)
      in
      Array.for_all2 (fun r sin -> r = Option.is_some sin) reach block_in)

(* A monotone lattice without widening — the blocks on some path into
   [b] — has one least fixed point, so the worklist must land on what
   naive round-robin iteration over every block computes. *)
module IS = Set.Make (Int)

let qcheck_forward_matches_round_robin =
  QCheck.Test.make ~name:"forward solver matches round-robin iteration" ~count:200
    (QCheck.make gen_branchy_proc) (fun prog ->
      let cfg = Cfg.build (Program.find prog "main") in
      let nb = Cfg.n_blocks cfg in
      let out b s = IS.add b s in
      let join cur s =
        match cur with
        | None -> Some s
        | Some c -> if IS.subset s c then None else Some (IS.union c s)
      in
      let solved =
        Cfg.forward cfg ~entry:IS.empty
          ~flow:(fun b s -> List.map (fun succ -> (succ, out b s)) (Cfg.block cfg b).Cfg.succs)
          ~merge:join
      in
      let naive = Array.make nb None in
      if nb > 0 then naive.(0) <- Some IS.empty;
      let changed = ref true in
      while !changed do
        changed := false;
        for b = 0 to nb - 1 do
          match naive.(b) with
          | None -> ()
          | Some s ->
              List.iter
                (fun succ ->
                  match join naive.(succ) (out b s) with
                  | Some s' ->
                      naive.(succ) <- Some s';
                      changed := true
                  | None -> ())
                (Cfg.block cfg b).Cfg.succs
        done
      done;
      Array.for_all2 (Option.equal IS.equal) naive solved)

let qcheck_loop_header_dominates =
  QCheck.Test.make ~name:"natural-loop headers dominate their bodies" ~count:200
    (QCheck.make gen_branchy_proc) (fun prog ->
      let cfg = Cfg.build (Program.find prog "main") in
      let t = Domtree.build cfg in
      List.for_all
        (fun (br_i, tgt_i) ->
          let header = cfg.Cfg.block_of.(tgt_i) and latch = cfg.Cfg.block_of.(br_i) in
          match Domtree.natural_loop t ~header ~latch with
          | None -> not (Domtree.dominates t header latch)
          | Some inloop ->
              Domtree.dominates t header latch
              && inloop.(header) && inloop.(latch)
              && Array.for_all Fun.id
                   (Array.mapi (fun b inl -> (not inl) || Domtree.dominates t header b) inloop))
        (Cfg.backedges cfg))

let suite =
  [
    Alcotest.test_case "private not checked" `Quick test_private_not_checked;
    Alcotest.test_case "shared load checked (flag)" `Quick test_shared_load_checked;
    Alcotest.test_case "load into base uses state check" `Quick test_load_into_base_uses_state_check;
    Alcotest.test_case "store checked before" `Quick test_store_checked_before;
    Alcotest.test_case "batching merges" `Quick test_batching_merges_checks;
    Alcotest.test_case "batching respects clobbered base" `Quick test_batching_respects_clobbered_base;
    Alcotest.test_case "batching can be disabled" `Quick test_no_batch_option;
    Alcotest.test_case "poll at backedge" `Quick test_poll_at_backedge;
    Alcotest.test_case "LL/SC transform" `Quick test_llsc_transform;
    Alcotest.test_case "MB check inserted" `Quick test_mb_check_inserted;
    Alcotest.test_case "code growth" `Quick test_code_growth;
    Alcotest.test_case "lock program semantics preserved" `Quick test_semantics_preserved_lock_program;
    Alcotest.test_case "modification time model" `Quick test_modification_time_model;
    Alcotest.test_case "poll precedes pending checks" `Quick test_poll_precedes_pending_checks;
    Alcotest.test_case "pointer reloaded after call re-checked" `Quick
      test_pointer_reloaded_after_call_rechecked;
    Alcotest.test_case "float-laundered pointer still checked" `Quick
      test_float_laundered_pointer_still_checked;
    Alcotest.test_case "private float roundtrip unchecked" `Quick
      test_private_float_roundtrip_unchecked;
    QCheck_alcotest.to_alcotest qcheck_semantics_preserved;
    QCheck_alcotest.to_alcotest qcheck_idom_is_dominator;
    QCheck_alcotest.to_alcotest qcheck_forward_reaches;
    QCheck_alcotest.to_alcotest qcheck_forward_matches_round_robin;
    QCheck_alcotest.to_alcotest qcheck_loop_header_dominates;
  ]
