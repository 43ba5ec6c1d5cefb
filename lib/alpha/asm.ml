(** A small assembler DSL for writing test programs and microbenchmarks.

    Example (the paper's Figure 1 — spin lock via LL/SC):
    {[
      Asm.(proc "acquire" [
        label "try_again";
        ll W32 v0 0 a0;
        bne v0 "try_again";
        li t0 1L;
        sc W32 t0 0 a0;
        beq t0 "try_again";
        mb;
        ret;
      ])
    ]} *)

open Insn

(* Register names (Alpha calling standard). *)
let v0 = 0
let t0 = 1
let t1 = 2
let t2 = 3
let t3 = 4
let t4 = 5
let t5 = 6
let t6 = 7
let t7 = 8
let s0 = 9
let s1 = 10
let s2 = 11
let s3 = 12
let s4 = 13
let s5 = 14
let a0 = 16
let a1 = 17
let a2 = 18
let a3 = 19
let a4 = 20
let t8 = 22
let t9 = 23
let sp = 30
let zero = 31

let label l = Label l
let li r v = Li (r, v)
let lif f v = Lif (f, v)
let mov src dst = Binop (Add, src, Imm 0, dst)
let add a b d = Binop (Add, a, Reg b, d)
let addi a i d = Binop (Add, a, Imm i, d)
let subi a i d = Binop (Sub, a, Imm i, d)
let muli a i d = Binop (Mul, a, Imm i, d)
let andi a i d = Binop (And, a, Imm i, d)
let slli a i d = Binop (Sll, a, Imm i, d)
let cmplti a i d = Binop (Cmplt, a, Imm i, d)
let ldl d off b = Ld (W32, d, off, b)
let ldq d off b = Ld (W64, d, off, b)
let stl s off b = St (W32, s, off, b)
let stq s off b = St (W64, s, off, b)
let ldt d off b = Ldf (d, off, b)
let stt s off b = Stf (s, off, b)
let fadd a b d = Fbinop (Fadd, a, b, d)
let fmul a b d = Fbinop (Fmul, a, b, d)
let fcmp c a b d = Fcmp (c, a, b, d)
let cvt_if r f = Cvt_if (r, f)
let cvt_fi f r = Cvt_fi (f, r)
let fmov a d = Fmov (a, d)
let ll w d off b = Ll (w, d, off, b)
let sc w s off b = Sc (w, s, off, b)
let mb = Mb
let br l = Br l
let beq r l = Bcond (Eq, r, l)
let bne r l = Bcond (Ne, r, l)
let bgt r l = Bcond (Gt, r, l)
let call p = Call p
let ret = Ret
let halt = Halt

(** [proc name insns] assembles one procedure. *)
let proc name insns = (name, insns)

(** [program procs] assembles a whole program. *)
let program procs =
  let t = Program.create () in
  List.iter (fun (name, insns) -> ignore (Program.add_procedure t ~name insns)) procs;
  t
