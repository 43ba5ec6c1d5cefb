(** Pointer-class dataflow analysis.

    ATOM-style analysis deciding, for each load/store, whether its base
    register provably points into private memory (stack or static data) —
    in which case no miss check is inserted (Section 2.2: "Since the
    static and stack data areas are not shared, Shasta does not insert
    checks for any loads or stores that are clearly to these areas").

    Lattice per register:
    {v  Private  <  Shared  <  Top  v}
    with a pointer-arithmetic-aware join: adding a private integer offset
    to a shared pointer stays shared; any uncertainty goes to [Top], which
    (like [Shared]) receives checks.

    Float registers are tracked with the same lattice: an address can
    round-trip through the float file ([Cvt_if]/[Fmov]/[Cvt_fi]), so a
    [Cvt_fi] destination takes the class of its float source rather than
    a blanket [Private] — otherwise a shared pointer laundered through a
    float register would silently lose its check. *)

type cls = Private | Shared | Top

let join a b =
  match (a, b) with
  | Private, Private -> Private
  | Shared, Shared -> Shared
  | Private, Shared | Shared, Private -> Top
  | Top, _ | _, Top -> Top

(* Address arithmetic: base + offset.  A shared base plus a private
   (plain integer) offset is still a shared address. *)
let add_cls a b =
  match (a, b) with
  | Private, Private -> Private
  | Shared, Private | Private, Shared -> Shared
  | Shared, Shared -> Top (* adding two pointers is not address arithmetic *)
  | Top, _ | _, Top -> Top

type state = { ints : cls array; floats : cls array }
(** one class per integer and per float register *)

let sp = 30
let gp = 29
let zero = 31

let entry_state () =
  let ints = Array.make 32 Top in
  ints.(sp) <- Private;
  ints.(gp) <- Private;
  ints.(zero) <- Private;
  let floats = Array.make 32 Top in
  floats.(zero) <- Private (* f31 reads as 0.0 *);
  { ints; floats }

let bottom () = { ints = Array.make 32 Private; floats = Array.make 32 Private }
let copy s = { ints = Array.copy s.ints; floats = Array.copy s.floats }

let join_state (a : state) (b : state) =
  let changed = ref false in
  let merge xa xb =
    for i = 0 to 31 do
      let j = join xa.(i) xb.(i) in
      if j <> xa.(i) then begin
        xa.(i) <- j;
        changed := true
      end
    done
  in
  merge a.ints b.ints;
  merge a.floats b.floats;
  !changed

(** The base of the shared segment, whose addresses the protocol owns. *)
let shared_base = Protocol.Config.default.Protocol.Config.shared_base

(** Transfer function for one instruction: an [Li] of an absolute
    address classifies by which region it falls in. *)
let transfer (s : state) (insn : Alpha.Insn.t) =
  let set r c = if r <> zero then s.ints.(r) <- c in
  let fset f c = if f <> zero then s.floats.(f) <- c in
  match insn with
  | Alpha.Insn.Li (r, v) ->
      set r (if Int64.compare v (Int64.of_int shared_base) >= 0 then Shared else Private)
  | Alpha.Insn.Lif (f, v) ->
      (* A float literal can still encode an address-sized value. *)
      fset f (if v >= float_of_int shared_base then Shared else Private)
  | Alpha.Insn.Binop (op, a, b, d) -> (
      let cb = match b with Alpha.Insn.Reg r -> s.ints.(r) | Alpha.Insn.Imm _ -> Private in
      match op with
      | Alpha.Insn.Add | Alpha.Insn.Sub -> set d (add_cls s.ints.(a) cb)
      | Alpha.Insn.Mul | Alpha.Insn.And | Alpha.Insn.Or | Alpha.Insn.Xor | Alpha.Insn.Sll
      | Alpha.Insn.Srl | Alpha.Insn.Sra ->
          set d (match (s.ints.(a), cb) with Private, Private -> Private | _ -> Top)
      | Alpha.Insn.Cmpeq | Alpha.Insn.Cmplt | Alpha.Insn.Cmple | Alpha.Insn.Cmpult ->
          set d Private (* booleans are plain integers *))
  | Alpha.Insn.Ld (_, d, _, _) -> set d Top (* pointer loaded from memory: unknown *)
  | Alpha.Insn.Ll (_, d, _, _) -> set d Top
  | Alpha.Insn.Sc (_, r, _, _) -> set r Private (* success flag *)
  | Alpha.Insn.Ldf (d, _, _) -> fset d Top
  | Alpha.Insn.Fmov (a, d) -> fset d s.floats.(a)
  | Alpha.Insn.Cvt_if (r, f) -> fset f s.ints.(r)
  | Alpha.Insn.Cvt_fi (f, r) -> set r s.floats.(f) (* a laundered pointer keeps its class *)
  | Alpha.Insn.Fbinop (op, a, b, d) -> (
      match op with
      | Alpha.Insn.Fadd | Alpha.Insn.Fsub -> fset d (add_cls s.floats.(a) s.floats.(b))
      | Alpha.Insn.Fmul | Alpha.Insn.Fdiv ->
          fset d (match (s.floats.(a), s.floats.(b)) with Private, Private -> Private | _ -> Top))
  | Alpha.Insn.Fcmp (_, _, _, r) -> set r Private
  | Alpha.Insn.Call _ ->
      (* Callee may clobber any register except sp/gp by convention; the
         float file has no preserved pointer registers at all. *)
      for i = 0 to 31 do
        if i <> sp && i <> gp && i <> zero then s.ints.(i) <- Top;
        if i <> zero then s.floats.(i) <- Top
      done
  | Alpha.Insn.Stf _ | Alpha.Insn.St _ | Alpha.Insn.Mb
  | Alpha.Insn.Br _ | Alpha.Insn.Bcond _ | Alpha.Insn.Ret | Alpha.Insn.Halt
  | Alpha.Insn.Load_check _ | Alpha.Insn.Store_check _ | Alpha.Insn.Batch_check _
  | Alpha.Insn.Ll_check _ | Alpha.Insn.Sc_check _ | Alpha.Insn.Gran_lookup _
  | Alpha.Insn.Mb_check | Alpha.Insn.Poll | Alpha.Insn.Prefetch_excl _ | Alpha.Insn.Label _ ->
      ()

(** [analyze cfg] computes, for every instruction index, the
    register-class state {e before} that instruction.  Unreachable blocks
    expand from [bottom ()] (all [Private]), so dead code gets no checks. *)
let analyze (cfg : Cfg.t) =
  let code = cfg.Cfg.proc.Alpha.Program.code in
  let block_in =
    Cfg.forward cfg ~entry:(entry_state ())
      ~flow:(fun b sin ->
        let blk = Cfg.block cfg b in
        let s = copy sin in
        for i = blk.Cfg.first to blk.Cfg.last do
          transfer s code.(i)
        done;
        List.map (fun succ -> (succ, s)) blk.Cfg.succs)
      ~merge:(fun cur s ->
        match cur with
        | None -> Some (copy s)
        | Some dst -> if join_state dst s then Some dst else None)
  in
  (* Expand to per-instruction "before" states. *)
  let before = Array.make (Array.length code) (entry_state ()) in
  Array.iteri
    (fun b sin ->
      let blk = Cfg.block cfg b in
      let s = match sin with Some sin -> copy sin | None -> bottom () in
      for i = blk.Cfg.first to blk.Cfg.last do
        before.(i) <- copy s;
        transfer s code.(i)
      done)
    block_in;
  before
