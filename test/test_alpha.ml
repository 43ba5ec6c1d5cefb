(* Tests for the Alpha-like ISA: assembler, interpreter, LL/SC, floats. *)

open Alpha

let flat () = Runtime.flat ~size:65536 ()

let run ?args prog entry =
  let rt = flat () in
  Interp.run prog rt ~entry ?args ()

let check_r0 msg expected outcome = Alcotest.(check int64) msg expected outcome.Interp.r0

let test_arith () =
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              li t0 6L;
              li t1 7L;
              Insn.Binop (Mul, t0, Reg t1, v0);
              addi v0 100 v0;
              subi v0 2 v0;
              halt;
            ];
        ])
  in
  check_r0 "6*7+100-2" 140L (run prog "main")

let test_branches_loop () =
  (* Sum 1..10 with a loop. *)
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              li t0 10L;
              li v0 0L;
              label "loop";
              add v0 t0 v0;
              subi t0 1 t0;
              bgt t0 "loop";
              halt;
            ];
        ])
  in
  check_r0 "sum 1..10" 55L (run prog "main")

let test_memory_roundtrip () =
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              li t0 0x1000L;
              li t1 0x1122334455667788L;
              stq t1 0 t0;
              ldq v0 0 t0;
              halt;
            ];
        ])
  in
  check_r0 "store/load q" 0x1122334455667788L (run prog "main")

let test_word_access () =
  (* 32-bit store followed by 32-bit load; check truncation. *)
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              li t0 0x2000L;
              li t1 0xDEADBEEFL;
              stl t1 0 t0;
              ldl v0 0 t0;
              halt;
            ];
        ])
  in
  (* 0xDEADBEEF as a signed 32-bit value is negative. *)
  check_r0 "32-bit sign" 0xFFFFFFFFDEADBEEFL (run prog "main")

let test_calls () =
  let prog =
    Asm.(
      program
        [
          proc "double" [ add a0 a0 v0; ret ];
          proc "main" [ li a0 21L; call "double"; halt ];
        ])
  in
  check_r0 "call/ret" 42L (run prog "main")

let test_args () =
  let prog = Asm.(program [ proc "main" [ add a0 a1 v0; halt ] ]) in
  check_r0 "arguments land in a0/a1" 30L (run ~args:[ 10L; 20L ] prog "main")

let test_float_ops () =
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              lif 0 1.5;
              lif 1 2.5;
              fadd 0 1 2;
              fmul 2 2 3;
              cvt_fi 3 v0;
              halt;
            ];
        ])
  in
  check_r0 "(1.5+2.5)^2" 16L (run prog "main")

let test_float_memory () =
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              li t0 0x3000L;
              lif 0 3.25;
              stt 0 0 t0;
              ldt 1 0 t0;
              fadd 1 1 2;
              cvt_fi 2 v0;
              halt;
            ];
        ])
  in
  check_r0 "float store/load" 6L (run prog "main")


(* Every kind of write to r31 or f31 is dropped: an immediate, a load,
   an ALU result, a conversion, a float immediate and a float result. *)
let test_zero_register () =
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              li zero 99L;
              li t0 0x100L;
              li t1 77L;
              stq t1 0 t0;
              ldq zero 0 t0;
              addi t1 1 zero;
              lif 1 1.5;
              cvt_fi 1 zero;
              lif 31 2.5;
              fadd 1 1 31;
              ldt 31 0 t0;
              cvt_fi 31 t2;
              add t2 zero v0;
              halt;
            ];
        ])
  in
  check_r0 "r31 and f31 read zero" 0L (run prog "main")

(* The runtime's side of the interface, seen through a flat runtime with
   some callbacks replaced. *)

let test_syscall_sees_arguments () =
  let seen = ref [] in
  let rt =
    {
      (flat ()) with
      Runtime.syscall =
        (fun name args ->
          seen := (name, Array.to_list args) :: !seen;
          true);
    }
  in
  let prog =
    Asm.(
      program
        [
          proc "main"
            [ li a0 7L; li a1 9L; li 21 (* a5 *) 11L; call Runtime.sync_barrier_proc; li v0 1L; halt ];
        ])
  in
  check_r0 "returns after the call" 1L (Interp.run prog rt ~entry:"main" ());
  Alcotest.(check (list (pair string (list int64))))
    "a0..a5"
    [ (Runtime.sync_barrier_proc, [ 7L; 9L; 0L; 0L; 0L; 11L ]) ]
    !seen

(* A batch longer than the interpreter's first address buffer (8
   entries) resolves the same addresses, as do the short batches around
   it that reuse the grown buffer. *)
let test_batch_check_addresses () =
  let seen = ref [] in
  let rt =
    {
      (flat ()) with
      Runtime.batch_check =
        (fun entries addrs ->
          seen := List.mapi (fun i e -> (addrs.(i), e.Insn.b_kind = Insn.Load_acc)) entries :: !seen);
    }
  in
  let entry i =
    {
      Insn.b_width = Insn.W64;
      b_kind = (if i mod 2 = 0 then Insn.Load_acc else Insn.Store_acc);
      b_off = 8 * i;
      b_base = (if i < 6 then Asm.a0 else Asm.a1);
    }
  in
  let batch n = Insn.Batch_check (List.init n entry) in
  let prog =
    Asm.(program [ proc "main" [ li a0 0x1000L; li a1 0x2000L; batch 3; batch 12; batch 3; halt ] ])
  in
  ignore (Interp.run prog rt ~entry:"main" ());
  let expected n =
    List.init n (fun i -> ((if i < 6 then 0x1000 else 0x2000) + (8 * i), i mod 2 = 0))
  in
  Alcotest.(check (list (list (pair int bool))))
    "(address, is a load) per entry"
    [ expected 3; expected 12; expected 3 ]
    (List.rev !seen)

(* The flag compare is inline: [load_check] runs exactly for the loads
   that returned [miss_flag] of their width, and its answer replaces the
   register. *)
let test_load_check_on_flag_only () =
  let calls = ref [] in
  let rt =
    {
      (flat ()) with
      Runtime.miss_flag = (function Insn.W32 -> 0x77L | Insn.W64 -> 0x5A5AL);
      load_check =
        (fun v addr _ ->
          calls := (v, addr) :: !calls;
          100L);
    }
  in
  let check w r off = Insn.Load_check (w, r, off, Asm.t0) in
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              li t0 0x100L;
              li t1 0x5A5AL;
              stq t1 0 t0;
              li t1 0x77L;
              stq t1 8 t0;
              ldq t2 0 t0;
              check Insn.W64 t2 0 (* the 64-bit flag: a call *);
              ldl t3 8 t0;
              check Insn.W32 t3 8 (* the 32-bit flag: a call *);
              ldq t4 8 t0;
              check Insn.W64 t4 8 (* the 32-bit flag in a 64-bit load: none *);
              ldq t5 16 t0;
              check Insn.W64 t5 16 (* zero: none *);
              add t2 t3 v0;
              add v0 t4 v0;
              add v0 t5 v0;
              halt;
            ];
        ])
  in
  check_r0 "flagged loads replaced" (Int64.add 200L 0x77L) (Interp.run prog rt ~entry:"main" ());
  Alcotest.(check (list (pair int64 int)))
    "load_check calls"
    [ (0x5A5AL, 0x100); (0x77L, 0x108) ]
    (List.rev !calls)

let test_llsc_success () =
  (* Figure 1 of the paper: acquire a free lock with LL/SC. *)
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              li a0 0x100L;
              label "try_again";
              ll W32 t0 0 a0;
              bne t0 "got_or_fail";
              li t0 1L;
              sc W32 t0 0 a0;
              beq t0 "try_again";
              mb;
              ldl v0 0 a0;
              halt;
              label "got_or_fail";
              li v0 (-1L);
              halt;
            ];
        ])
  in
  check_r0 "lock acquired" 1L (run prog "main")

let test_llsc_fail_when_taken () =
  let prog =
    Asm.(
      program
        [
          proc "main"
            [
              li a0 0x100L;
              li t0 1L;
              stl t0 0 a0;
              (* lock already taken: LL sees 1 *)
              ll W32 t1 0 a0;
              mov t1 v0;
              halt;
            ];
        ])
  in
  check_r0 "LL observes taken lock" 1L (run prog "main")

let test_unaligned_traps () =
  let prog =
    Asm.(program [ proc "main" [ li t0 0x1001L; ldq v0 0 t0; halt ] ])
  in
  Alcotest.check_raises "unaligned" (Interp.Trap "unaligned 8-byte access at 0x1001")
    (fun () -> ignore (run prog "main"))

let test_step_budget () =
  let prog = Asm.(program [ proc "main" [ label "spin"; br "spin" ] ]) in
  let rt = flat () in
  (try
     ignore (Interp.run ~max_steps:1000 prog rt ~entry:"main" ());
     Alcotest.fail "expected trap"
   with Interp.Trap m ->
     Alcotest.(check bool) "budget message" true
       (String.length m > 0 && String.sub m 0 4 = "step"))

(* The loop reads and writes the register files unchecked, so a
   register outside 0..31 must be refused when its procedure is
   decoded: a [Trap] before the procedure's first step (its store never
   runs, no cycle is charged past the caller's), not a read past the
   register file.  In a callee, the caller's steps up to the call run. *)
let test_register_range_checked () =
  let bad =
    Insn.
      [
        Binop (Add, 32, Reg 1, 0); Binop (Add, 1, Reg (-1), 0); Li (40, 1L); Fmov (0, 32);
        Ld (W64, 1, 0, 32);
        Batch_check [ { b_width = W64; b_kind = Load_acc; b_off = 0; b_base = 33 } ];
      ]
  in
  List.iter
    (fun insn ->
      let stores = ref 0 and charged = ref 0 in
      let rt =
        {
          (Runtime.flat ~size:4096 ~charge:(fun n -> charged := !charged + n) ()) with
          Runtime.store = (fun _ _ _ _ -> incr stores);
        }
      in
      let name = Format.asprintf "%a" Insn.pp insn in
      let refused prog =
        match Interp.run prog rt ~entry:"main" () with
        | _ -> Alcotest.failf "%s ran" name
        | exception Interp.Trap _ -> ()
      in
      refused Asm.(program [ proc "main" [ li t0 0x100L; stq t0 0 t0; insn; halt ] ]);
      Alcotest.(check (pair int int)) (name ^ ": refused before the first step") (0, 0)
        (!stores, !charged);
      refused
        Asm.(
          program
            [
              proc "main" [ li t0 0x100L; stq t0 0 t0; call "helper"; halt ];
              proc "helper" [ stq t0 8 t0; insn; ret ];
            ]);
      Alcotest.(check int) (name ^ ": the callee's store never runs") 1 !stores)
    bad

let test_unknown_label_rejected () =
  (try
     ignore Asm.(program [ proc "main" [ br "nowhere" ] ]);
     Alcotest.fail "expected Unknown_label"
   with Program.Unknown_label (p, l) ->
     Alcotest.(check (pair string string)) "label" ("main", "nowhere") (p, l))

let test_duplicate_label_rejected () =
  (try
     ignore Asm.(program [ proc "main" [ label "x"; label "x"; halt ] ]);
     Alcotest.fail "expected Duplicate_label"
   with Program.Duplicate_label (p, l) ->
     Alcotest.(check (pair string string)) "label" ("main", "x") (p, l))

let test_program_size () =
  let prog =
    Asm.(program [ proc "main" [ li t0 1L; addi t0 1 t0; halt ] ])
  in
  (* li = 2 slots, addi = 1, halt = 1 *)
  Alcotest.(check int) "slots" 4 (Program.size_in_slots prog)

let test_charge_accounting () =
  (* The runtime must see exactly the cycles of the executed stream. *)
  let charged = ref 0 in
  let rt = Runtime.flat ~size:4096 ~charge:(fun n -> charged := !charged + n) () in
  let prog =
    Asm.(
      program
        [ proc "main" [ li t0 5L; addi t0 3 t0; Insn.Binop (Mul, t0, Reg t0, v0); halt ] ])
  in
  let outcome = Interp.run prog rt ~entry:"main" () in
  Alcotest.(check int64) "result" 64L outcome.Interp.r0;
  (* li 1 + addi 1 + mul 4 + halt 1 *)
  Alcotest.(check int) "cycles" 7 !charged

let test_insn_roundtrip_labels () =
  let p =
    Program.assemble_procedure ~name:"p"
      Asm.[ label "top"; addi t0 1 t0; bne t0 "top"; ret ]
  in
  let insns = Program.to_insn_list p in
  let p2 = Program.assemble_procedure ~name:"p" insns in
  Alcotest.(check int) "same code length" (Array.length p.Program.code)
    (Array.length p2.Program.code);
  Alcotest.(check int) "label index preserved" (Program.label_index p "top")
    (Program.label_index p2 "top")

let qcheck_alu_add =
  QCheck.Test.make ~name:"interpreter add matches Int64.add" ~count:200
    QCheck.(pair int64 int64)
    (fun (x, y) ->
      let prog = Asm.(program [ proc "main" [ li t0 x; li t1 y; add t0 t1 v0; halt ] ]) in
      (run prog "main").Interp.r0 = Int64.add x y)

let qcheck_memory_roundtrip =
  QCheck.Test.make ~name:"64-bit memory roundtrip" ~count:200 QCheck.int64 (fun v ->
      let prog =
        Asm.(
          program
            [ proc "main" [ li t0 0x800L; li t1 v; stq t1 0 t0; ldq v0 0 t0; halt ] ])
      in
      (run prog "main").Interp.r0 = v)

let suite =
  [
    Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "branch loop" `Quick test_branches_loop;
    Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
    Alcotest.test_case "32-bit sign extension" `Quick test_word_access;
    Alcotest.test_case "call/ret" `Quick test_calls;
    Alcotest.test_case "arguments" `Quick test_args;
    Alcotest.test_case "float ops" `Quick test_float_ops;
    Alcotest.test_case "float memory" `Quick test_float_memory;
    Alcotest.test_case "zero register" `Quick test_zero_register;
    Alcotest.test_case "syscall sees a0..a5" `Quick test_syscall_sees_arguments;
    Alcotest.test_case "batch check addresses" `Quick test_batch_check_addresses;
    Alcotest.test_case "load check on flag only" `Quick test_load_check_on_flag_only;
    Alcotest.test_case "LL/SC acquire" `Quick test_llsc_success;
    Alcotest.test_case "LL sees taken lock" `Quick test_llsc_fail_when_taken;
    Alcotest.test_case "unaligned traps" `Quick test_unaligned_traps;
    Alcotest.test_case "step budget traps" `Quick test_step_budget;
    Alcotest.test_case "register range checked at decode" `Quick test_register_range_checked;
    Alcotest.test_case "unknown label rejected" `Quick test_unknown_label_rejected;
    Alcotest.test_case "duplicate label rejected" `Quick test_duplicate_label_rejected;
    Alcotest.test_case "program size in slots" `Quick test_program_size;
    Alcotest.test_case "cycle accounting" `Quick test_charge_accounting;
    Alcotest.test_case "label roundtrip" `Quick test_insn_roundtrip_labels;
    QCheck_alcotest.to_alcotest qcheck_alu_add;
    QCheck_alcotest.to_alcotest qcheck_memory_roundtrip;
  ]
