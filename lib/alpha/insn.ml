(** The Alpha-like instruction set.

    A compact RISC subset sufficient to express the paper's workloads:
    integer and double-float arithmetic, loads/stores with base+offset
    addressing, load-locked/store-conditional, the MB memory barrier, and
    control flow.  The "pseudo" instructions at the bottom do not exist in
    original binaries — they are inserted by the {!Rewrite} pipeline and
    give the inline Shasta code (miss checks, polls, protocol calls) an
    explicit representation whose execution cost the interpreter charges.

    Register conventions (loosely the Alpha calling standard):
    - [r0]  return value ([v0])
    - [r16]..[r21] arguments ([a0]-[a5])
    - [r26] return address (implicit; calls use a stack in the interpreter)
    - [r29] global pointer ([gp], points at private static data)
    - [r30] stack pointer ([sp], private)
    - [r31] always zero *)

type reg = int (* 0..31; r31 reads as zero and ignores writes *)
type freg = int (* 0..31; f31 reads as 0.0 *)
type label = string

type width = W32 | W64

let bytes_of_width = function W32 -> 4 | W64 -> 8

type operand = Reg of reg | Imm of int

type binop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Cmpeq
  | Cmplt
  | Cmple
  | Cmpult

type fbinop = Fadd | Fsub | Fmul | Fdiv

type cond = Eq | Ne | Lt | Le | Gt | Ge

type access_kind = Load_acc | Store_acc

(** One address range of a batched check: [(width, kind, offset, base)].
    The batch covers, for each entry, the line(s) touched by the access
    at [base + offset]. *)
type batch_entry = { b_width : width; b_kind : access_kind; b_off : int; b_base : reg }

type t =
  (* Original ISA *)
  | Binop of binop * reg * operand * reg  (** [Binop (op, src1, src2, dst)] *)
  | Li of reg * int64  (** load immediate / address *)
  | Lif of freg * float  (** load float immediate *)
  | Ld of width * reg * int * reg  (** [Ld (w, dst, off, base)] *)
  | St of width * reg * int * reg  (** [St (w, src, off, base)] *)
  | Ldf of freg * int * reg  (** 64-bit float load *)
  | Stf of freg * int * reg
  | Fbinop of fbinop * freg * freg * freg  (** [Fbinop (op, src1, src2, dst)] *)
  | Fcmp of cond * freg * freg * reg  (** integer 0/1 result *)
  | Cvt_if of reg * freg  (** int -> float *)
  | Cvt_fi of freg * reg  (** float -> int (truncate) *)
  | Fmov of freg * freg
  | Ll of width * reg * int * reg  (** load-locked *)
  | Sc of width * reg * int * reg  (** store-conditional; success flag overwrites [reg] *)
  | Mb  (** memory barrier *)
  | Br of label
  | Bcond of cond * reg * label  (** compare register against zero *)
  | Call of string
  | Ret
  | Halt
  (* Pseudo-instructions inserted by the binary rewriter *)
  | Load_check of width * reg * int * reg
      (** after a shared load: compare loaded value with the flag value *)
  | Store_check of width * int * reg
      (** before a shared store: check the private state table for exclusive *)
  | Batch_check of batch_entry list
      (** one combined check for a run of nearby loads/stores *)
  | Ll_check of int * reg  (** before LL: ensure line readable, remember its state *)
  | Sc_check of width * reg * int * reg
      (** before SC: run in hardware if exclusive, else protocol *)
  | Gran_lookup of int * reg
      (** variable-granularity block-number table lookup: shift the
          address by the chunk size, load the block id (Section 2.1);
          emitted before state-table checks when regions have mixed
          block sizes *)
  | Mb_check  (** after MB: protocol fence (wait for stores, service invals) *)
  | Poll  (** loop-backedge poll of the incoming-message flag *)
  | Prefetch_excl of int * reg  (** non-binding exclusive prefetch before LL/SC loops *)
  | Label of label  (** no-op marker; assembled away into indices *)

(** Static size of an instruction in equivalent 32-bit Alpha instruction
    slots.  Pseudo-instructions expand to the inline code sequences the
    paper describes: ~3 slots for a flag-technique load check, ~7 for a
    store check, 3 for a poll, etc.  [Label] occupies no space. *)
let size_in_slots = function
  | Label _ -> 0
  | Load_check _ -> 3
  | Store_check _ -> 7
  | Batch_check entries -> 2 + (2 * List.length entries)
  | Ll_check _ -> 3
  | Sc_check _ -> 4
  | Gran_lookup _ -> 2
  | Mb_check -> 2
  | Poll -> 3
  | Prefetch_excl _ -> 2
  | Li _ | Lif _ -> 2 (* wide immediates need two slots on a real Alpha *)
  | Binop _ | Ld _ | St _ | Ldf _ | Stf _ | Fbinop _ | Fcmp _ | Cvt_if _ | Cvt_fi _ | Fmov _
  | Ll _ | Sc _ | Mb | Br _ | Bcond _ | Call _ | Ret | Halt ->
      1

let pp_width ppf = function W32 -> Format.fprintf ppf "l" | W64 -> Format.fprintf ppf "q"

let pp_cond ppf c =
  Format.pp_print_string ppf
    (match c with Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge")

let pp_binop ppf op =
  Format.pp_print_string ppf
    (match op with
    | Add -> "add"
    | Sub -> "sub"
    | Mul -> "mul"
    | And -> "and"
    | Or -> "or"
    | Xor -> "xor"
    | Sll -> "sll"
    | Srl -> "srl"
    | Sra -> "sra"
    | Cmpeq -> "cmpeq"
    | Cmplt -> "cmplt"
    | Cmple -> "cmple"
    | Cmpult -> "cmpult")

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "r%d" r
  | Imm i -> Format.fprintf ppf "#%d" i

let pp ppf = function
  | Binop (op, a, b, d) ->
      Format.fprintf ppf "%a r%d, %a -> r%d" pp_binop op a pp_operand b d
  | Li (r, v) -> Format.fprintf ppf "li r%d, %Ld" r v
  | Lif (f, v) -> Format.fprintf ppf "lif f%d, %g" f v
  | Ld (w, d, off, b) -> Format.fprintf ppf "ld%a r%d, %d(r%d)" pp_width w d off b
  | St (w, s, off, b) -> Format.fprintf ppf "st%a r%d, %d(r%d)" pp_width w s off b
  | Ldf (d, off, b) -> Format.fprintf ppf "ldt f%d, %d(r%d)" d off b
  | Stf (s, off, b) -> Format.fprintf ppf "stt f%d, %d(r%d)" s off b
  | Fbinop (op, a, b, d) ->
      let name = match op with Fadd -> "addt" | Fsub -> "subt" | Fmul -> "mult" | Fdiv -> "divt" in
      Format.fprintf ppf "%s f%d, f%d -> f%d" name a b d
  | Fcmp (c, a, b, d) -> Format.fprintf ppf "fcmp%a f%d, f%d -> r%d" pp_cond c a b d
  | Cvt_if (r, f) -> Format.fprintf ppf "cvtqt r%d -> f%d" r f
  | Cvt_fi (f, r) -> Format.fprintf ppf "cvttq f%d -> r%d" f r
  | Fmov (a, d) -> Format.fprintf ppf "fmov f%d -> f%d" a d
  | Ll (w, d, off, b) -> Format.fprintf ppf "ld%a_l r%d, %d(r%d)" pp_width w d off b
  | Sc (w, s, off, b) -> Format.fprintf ppf "st%a_c r%d, %d(r%d)" pp_width w s off b
  | Mb -> Format.fprintf ppf "mb"
  | Br l -> Format.fprintf ppf "br %s" l
  | Bcond (c, r, l) -> Format.fprintf ppf "b%a r%d, %s" pp_cond c r l
  | Call p -> Format.fprintf ppf "jsr %s" p
  | Ret -> Format.fprintf ppf "ret"
  | Halt -> Format.fprintf ppf "halt"
  | Load_check (w, r, off, b) ->
      Format.fprintf ppf "<load_check%a r%d, %d(r%d)>" pp_width w r off b
  | Store_check (w, off, b) -> Format.fprintf ppf "<store_check%a %d(r%d)>" pp_width w off b
  | Batch_check es -> Format.fprintf ppf "<batch_check x%d>" (List.length es)
  | Ll_check (off, b) -> Format.fprintf ppf "<ll_check %d(r%d)>" off b
  | Sc_check (w, r, off, b) -> Format.fprintf ppf "<sc_check%a r%d, %d(r%d)>" pp_width w r off b
  | Gran_lookup (off, b) -> Format.fprintf ppf "<gran_lookup %d(r%d)>" off b
  | Mb_check -> Format.fprintf ppf "<mb_check>"
  | Poll -> Format.fprintf ppf "<poll>"
  | Prefetch_excl (off, b) -> Format.fprintf ppf "<prefetch_excl %d(r%d)>" off b
  | Label l -> Format.fprintf ppf "%s:" l
