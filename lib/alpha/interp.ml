(** The instruction interpreter.

    Executes an assembled {!Program} against a {!Runtime}.  The
    interpreter is deliberately ignorant of Shasta: it charges the cycle
    cost of each instruction (batched, then flushed through
    [runtime.charge] before any callback that could suspend the simulated
    process) and delegates all memory traffic to the runtime closures.

    Each procedure is decoded once per [run], on its first entry, into
    {!op}s and side tables ({!meta}); the main loop runs the decoded
    form only (DESIGN §16). *)

exception Trap of string

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt

type stats = {
  mutable steps : int;
  mutable loads : int;
  mutable stores : int;
  mutable polls : int;
  mutable mbs : int;
  mutable ll_sc : int;
  mutable check_slots : int;
      (** instruction slots spent in executed miss checks (load/store/
          batch/LL/SC checks and granularity lookups) — the dynamic
          checking-overhead axis of Tables 2/3 *)
}

type outcome = { r0 : int64; stats : stats }

(* --- the decoded form ---

   One [op] per instruction.  Register operands are register-file
   indices, checked at decode to name r0..r31 (f0..f31) in the program
   text; the loop then reads and writes the files unchecked.  A
   destination r31 (f31) decodes to [sink], a slot past the
   architectural registers that no source names, so r31 reads as zero
   and no write needs a test.  An instruction that reads and writes the
   same register ([Sc], [Load_check]) carries it twice, as a source and
   as a destination.  Branch targets, cycle costs, check-slot sizes,
   pure-run lengths and batch lengths live in the {!meta} tables. *)

let sink = 32

type op =
  | Alu of Insn.binop * int * int * int  (** [Alu (op, a, b, d)]: [d <- a op b] *)
  | Alu_imm of Insn.binop * int * int * int  (** [Alu_imm (op, a, imm, d)] *)
  | Li of int * int64
  | Lif of int * float
  | Ld of Insn.width * int * int * int  (** [Ld (w, d, off, base)] *)
  | St of Insn.width * int * int * int  (** [St (w, s, off, base)] *)
  | Ldf of int * int * int
  | Stf of int * int * int
  | Fbinop of Insn.fbinop * int * int * int
  | Fcmp of Insn.cond * int * int * int
  | Cvt_if of int * int
  | Cvt_fi of int * int
  | Fmov of int * int
  | Ll of Insn.width * int * int * int
  | Sc of Insn.width * int * int * int * int  (** [Sc (w, s, d, off, base)] *)
  | Mb
  | Br
  | Bcond of Insn.cond * int
  | Call of string
  | Ret
  | Halt
  | Load_check of Insn.width * int * int * int * int  (** [(w, r, d, off, base)] *)
  | Store_check of Insn.width * int * int
  | Batch_check of Insn.batch_entry list
  | Ll_check of int * int
  | Sc_check of Insn.width * int * int * int
  | Gran_lookup
  | Mb_check
  | Poll
  | Prefetch_excl of int * int

(* A memoized [Call] target: a procedure of the program, by its decoded
   form, or a runtime system call (a name the program does not define,
   accepted by [Runtime.syscall] on first dispatch). *)
type callee = Proc of meta | Sys

and meta = {
  m_proc : Program.procedure;
  m_ops : op array;
  m_cost : int array;
  m_slots : int array;  (** check-slot size, 0 for non-check instructions *)
  m_target : int array;  (** resolved branch target, -1 otherwise *)
  m_pure : int array;
      (** the length of the straight-line run of register-only
          instructions starting here, which the loop executes as one
          batch *)
  m_batch : int array;  (** a [Batch_check]'s entry count, 0 otherwise *)
  m_callee : callee option array;  (** memoized [Call] targets *)
}

(* Pure = touches only the register files: no memory, control, traps or
   runtime callbacks, so a run of these can execute between two dispatch
   points with the cycle charges summed (nothing can observe simulated
   time inside the run — the next runtime callback still flushes first). *)
let is_pure = function
  | Alu _ | Alu_imm _ | Li _ | Lif _ | Fbinop _ | Fcmp _ | Cvt_if _ | Cvt_fi _ | Fmov _ -> true
  | _ -> false

let decode_insn (proc : Program.procedure) i insn =
  let reg r =
    if r < 0 || r > 31 then
      trap "%s@%d: %a names register %d, outside 0..31" proc.Program.name i Insn.pp insn r;
    r
  in
  let dst r = if reg r = 31 then sink else r in
  match (insn : Insn.t) with
  | Insn.Binop (o, a, Insn.Reg b, d) -> Alu (o, reg a, reg b, dst d)
  | Insn.Binop (o, a, Insn.Imm k, d) -> Alu_imm (o, reg a, k, dst d)
  | Insn.Li (r, v) -> Li (dst r, v)
  | Insn.Lif (f, v) -> Lif (dst f, v)
  | Insn.Ld (w, d, off, b) -> Ld (w, dst d, off, reg b)
  | Insn.St (w, s, off, b) -> St (w, reg s, off, reg b)
  | Insn.Ldf (d, off, b) -> Ldf (dst d, off, reg b)
  | Insn.Stf (s, off, b) -> Stf (reg s, off, reg b)
  | Insn.Fbinop (o, a, b, d) -> Fbinop (o, reg a, reg b, dst d)
  | Insn.Fcmp (c, a, b, d) -> Fcmp (c, reg a, reg b, dst d)
  | Insn.Cvt_if (r, f) -> Cvt_if (reg r, dst f)
  | Insn.Cvt_fi (f, r) -> Cvt_fi (reg f, dst r)
  | Insn.Fmov (a, d) -> Fmov (reg a, dst d)
  | Insn.Ll (w, d, off, b) -> Ll (w, dst d, off, reg b)
  | Insn.Sc (w, s, off, b) -> Sc (w, reg s, dst s, off, reg b)
  | Insn.Mb -> Mb
  | Insn.Br _ -> Br
  | Insn.Bcond (c, r, _) -> Bcond (c, reg r)
  | Insn.Call name -> Call name
  | Insn.Ret -> Ret
  | Insn.Halt -> Halt
  | Insn.Load_check (w, r, off, b) -> Load_check (w, reg r, dst r, off, reg b)
  | Insn.Store_check (w, off, b) -> Store_check (w, off, reg b)
  | Insn.Batch_check es ->
      List.iter (fun e -> ignore (reg e.Insn.b_base)) es;
      Batch_check es
  | Insn.Ll_check (off, b) -> Ll_check (off, reg b)
  | Insn.Sc_check (w, r, off, b) -> Sc_check (w, reg r, off, reg b)
  | Insn.Gran_lookup (_, b) ->
      ignore (reg b);
      Gran_lookup
  | Insn.Mb_check -> Mb_check
  | Insn.Poll -> Poll
  | Insn.Prefetch_excl (off, b) -> Prefetch_excl (off, reg b)
  | Insn.Label _ -> trap "%s@%d: label survived assembly" proc.Program.name i

(** [decode proc] — [proc]'s decoded form and tables; raises {!Trap}
    when an instruction names a register outside 0..31. *)
let decode (proc : Program.procedure) =
  let code = proc.Program.code in
  let n = Array.length code in
  let m_ops = Array.mapi (decode_insn proc) code in
  let m_cost = Array.map Cost.cycles code in
  let m_slots = Array.make n 0 in
  let m_target = Array.make n (-1) in
  let m_pure = Array.make n 0 in
  let m_batch = Array.make n 0 in
  for i = n - 1 downto 0 do
    let insn = code.(i) in
    (match insn with
    | Insn.Load_check _ | Insn.Store_check _ | Insn.Batch_check _ | Insn.Ll_check _
    | Insn.Sc_check _ | Insn.Gran_lookup _ ->
        m_slots.(i) <- Insn.size_in_slots insn
    | _ -> ());
    (match insn with
    | Insn.Br l | Insn.Bcond (_, _, l) -> m_target.(i) <- Program.label_index proc l
    | Insn.Batch_check es -> m_batch.(i) <- List.length es
    | _ -> ());
    if is_pure m_ops.(i) then m_pure.(i) <- 1 + (if i + 1 < n then m_pure.(i + 1) else 0)
  done;
  {
    m_proc = proc;
    m_ops;
    m_cost;
    m_slots;
    m_target;
    m_pure;
    m_batch;
    m_callee = Array.make n None;
  }

(* A caller's frame, waiting for its callee to return. *)
type frame = { ret_meta : meta; ret_pc : int }

let flush_threshold = 512

let check_alignment addr w =
  let b = Insn.bytes_of_width w in
  if addr land (b - 1) <> 0 then trap "unaligned %d-byte access at 0x%x" b addr

(* The register files: integer registers in a flat [Bytes] store, 8
   bytes each in native byte order, float registers in a flat [float
   array], each with the [sink] slot after r31 (f31).  Every index comes
   from a decoded operand, so the accesses skip the bounds check; they
   are closed primitives, so a register value stays unboxed from its
   read to its write. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get_reg regs r = get64u regs (r lsl 3)
let[@inline] set_reg regs r v = set64u regs (r lsl 3) v
let[@inline] get_freg (fregs : float array) f = Array.unsafe_get fregs f
let[@inline] set_freg (fregs : float array) f v = Array.unsafe_set fregs f v
let[@inline] addr_of regs off base = Int64.to_int (get_reg regs base) + off

let[@inline] eval_binop op a b =
  let open Int64 in
  match (op : Insn.binop) with
  | Insn.Add -> add a b
  | Insn.Sub -> sub a b
  | Insn.Mul -> mul a b
  | Insn.And -> logand a b
  | Insn.Or -> logor a b
  | Insn.Xor -> logxor a b
  | Insn.Sll -> shift_left a (to_int b land 63)
  | Insn.Srl -> shift_right_logical a (to_int b land 63)
  | Insn.Sra -> shift_right a (to_int b land 63)
  | Insn.Cmpeq -> if equal a b then 1L else 0L
  | Insn.Cmplt -> if compare a b < 0 then 1L else 0L
  | Insn.Cmple -> if compare a b <= 0 then 1L else 0L
  | Insn.Cmpult -> if unsigned_compare a b < 0 then 1L else 0L

let[@inline] eval_cond c (v : int64) =
  match (c : Insn.cond) with
  | Insn.Eq -> v = 0L
  | Insn.Ne -> v <> 0L
  | Insn.Lt -> Int64.compare v 0L < 0
  | Insn.Le -> Int64.compare v 0L <= 0
  | Insn.Gt -> Int64.compare v 0L > 0
  | Insn.Ge -> Int64.compare v 0L >= 0

let[@inline] eval_fcond c (a : float) (b : float) =
  match (c : Insn.cond) with
  | Insn.Eq -> a = b
  | Insn.Ne -> a <> b
  | Insn.Lt -> a < b
  | Insn.Le -> a <= b
  | Insn.Gt -> a > b
  | Insn.Ge -> a >= b

let[@inline] eval_fbinop op x y =
  match (op : Insn.fbinop) with
  | Insn.Fadd -> x +. y
  | Insn.Fsub -> x -. y
  | Insn.Fmul -> x *. y
  | Insn.Fdiv -> x /. y

(* One pure op; the loop calls this only for ops [is_pure] accepts. *)
let[@inline] exec_pure regs fregs = function
  | Alu (o, a, b, d) -> set_reg regs d (eval_binop o (get_reg regs a) (get_reg regs b))
  | Alu_imm (o, a, k, d) -> set_reg regs d (eval_binop o (get_reg regs a) (Int64.of_int k))
  | Li (r, v) -> set_reg regs r v
  | Lif (f, v) -> set_freg fregs f v
  | Fbinop (o, a, b, d) -> set_freg fregs d (eval_fbinop o (get_freg fregs a) (get_freg fregs b))
  | Fcmp (c, a, b, d) ->
      set_reg regs d (if eval_fcond c (get_freg fregs a) (get_freg fregs b) then 1L else 0L)
  | Cvt_if (r, f) -> set_freg fregs f (Int64.to_float (get_reg regs r))
  | Cvt_fi (f, r) -> set_reg regs r (Int64.of_float (get_freg fregs f))
  | Fmov (a, d) -> set_freg fregs d (get_freg fregs a)
  | _ -> assert false

(* Resolve a batch's addresses into [addrs], in entry order. *)
let rec resolve_batch regs addrs i = function
  | [] -> ()
  | e :: rest ->
      addrs.(i) <- addr_of regs e.Insn.b_off e.Insn.b_base;
      resolve_batch regs addrs (i + 1) rest

let run ?(max_steps = 1_000_000_000) (program : Program.t) (rt : Runtime.t) ~entry
    ?(args = []) () =
  let regs = Bytes.make ((sink + 1) * 8) '\000' in
  let fregs = Array.make (sink + 1) 0.0 in
  List.iteri
    (fun i v ->
      if i > 5 then invalid_arg "Interp.run: more than 6 arguments";
      set_reg regs (16 + i) v)
    args;
  let stats =
    { steps = 0; loads = 0; stores = 0; polls = 0; mbs = 0; ll_sc = 0; check_slots = 0 }
  in
  let acc_cycles = ref 0 in
  let flush () =
    if !acc_cycles > 0 then begin
      rt.Runtime.charge !acc_cycles;
      acc_cycles := 0
    end
  in
  let metas : (string, meta) Hashtbl.t = Hashtbl.create 16 in
  let meta_of (proc : Program.procedure) =
    match Hashtbl.find_opt metas proc.Program.name with
    | Some m -> m
    | None ->
        let m = decode proc in
        Hashtbl.add metas proc.Program.name m;
        m
  in
  (* Resolved batch addresses, reused across executions; grown to the
     longest batch met. *)
  let batch_addrs = ref (Array.make 8 0) in
  let call_stack : frame list ref = ref [] in
  (* The current frame, in locals: its decoded procedure and its pc. *)
  let meta = ref (meta_of (Program.find program entry)) in
  let pc = ref 0 in
  let steps = ref 0 and slots = ref 0 in
  (* The outcome of the last [Sc_check]: -1 to run the SC in hardware,
     else the protocol's 0 (failed) or 1 (stored). *)
  let sc_override = ref (-1) in
  let running = ref true in
  while !running do
    let m = !meta and i = !pc in
    let ops = m.m_ops in
    if i < 0 || i >= Array.length ops then begin
      (* Fall off the end of a procedure, or [Ret]: return. *)
      match !call_stack with
      | [] -> running := false
      | caller :: rest ->
          call_stack := rest;
          meta := caller.ret_meta;
          pc := caller.ret_pc
    end
    else begin
      let n = Array.unsafe_get m.m_pure i in
      if n > 0 && !steps + n <= max_steps then begin
        (* Batched dispatch: a straight-line run of pure instructions
           executes back-to-back, summing its cycle charge, with one
           flush check at the end.  [steps], [check_slots] (always 0
           here) and register effects are identical to the one-at-a-time
           path. *)
        steps := !steps + n;
        let cyc = ref 0 in
        for j = i to i + n - 1 do
          cyc := !cyc + Array.unsafe_get m.m_cost j;
          exec_pure regs fregs (Array.unsafe_get ops j)
        done;
        acc_cycles := !acc_cycles + !cyc;
        if !acc_cycles >= flush_threshold then flush ();
        pc := i + n
      end
      else begin
        let op = Array.unsafe_get ops i in
        incr steps;
        if !steps > max_steps then trap "step budget exceeded (%d)" max_steps;
        acc_cycles := !acc_cycles + Array.unsafe_get m.m_cost i;
        if !acc_cycles >= flush_threshold then flush ();
        pc := i + 1;
        match op with
        | Alu _ | Alu_imm _ | Li _ | Lif _ | Fbinop _ | Fcmp _ | Cvt_if _ | Cvt_fi _ | Fmov _ ->
            exec_pure regs fregs op
        | Ld (w, d, off, b) ->
            stats.loads <- stats.loads + 1;
            let addr = addr_of regs off b in
            check_alignment addr w;
            rt.Runtime.load addr w regs (d lsl 3)
        | St (w, s, off, b) ->
            stats.stores <- stats.stores + 1;
            let addr = addr_of regs off b in
            check_alignment addr w;
            rt.Runtime.store addr w regs (s lsl 3)
        | Ldf (d, off, b) ->
            (* The bits pass through the integer sink slot. *)
            stats.loads <- stats.loads + 1;
            let addr = addr_of regs off b in
            check_alignment addr Insn.W64;
            rt.Runtime.load addr Insn.W64 regs (sink lsl 3);
            set_freg fregs d (Int64.float_of_bits (get_reg regs sink))
        | Stf (s, off, b) ->
            stats.stores <- stats.stores + 1;
            let addr = addr_of regs off b in
            check_alignment addr Insn.W64;
            set_reg regs sink (Int64.bits_of_float (get_freg fregs s));
            rt.Runtime.store addr Insn.W64 regs (sink lsl 3)
        | Ll (w, d, off, b) ->
            stats.ll_sc <- stats.ll_sc + 1;
            let addr = addr_of regs off b in
            check_alignment addr w;
            set_reg regs d (rt.Runtime.ll addr w)
        | Sc (w, s, d, off, b) ->
            stats.ll_sc <- stats.ll_sc + 1;
            let addr = addr_of regs off b in
            check_alignment addr w;
            let ok =
              if !sc_override >= 0 then begin
                let ok = !sc_override = 1 in
                sc_override := -1;
                ok
              end
              else rt.Runtime.sc addr w (get_reg regs s)
            in
            set_reg regs d (if ok then 1L else 0L)
        | Mb -> stats.mbs <- stats.mbs + 1
        | Br -> pc := Array.unsafe_get m.m_target i
        | Bcond (c, r) -> if eval_cond c (get_reg regs r) then pc := Array.unsafe_get m.m_target i
        | Call name -> (
            let callee =
              match m.m_callee.(i) with
              | Some c -> c
              | None ->
                  let c =
                    match Program.find_opt program name with
                    | Some p -> Proc (meta_of p)
                    | None -> Sys
                  in
                  m.m_callee.(i) <- Some c;
                  c
            in
            match callee with
            | Proc callee ->
                call_stack := { ret_meta = m; ret_pc = i + 1 } :: !call_stack;
                meta := callee;
                pc := 0
            | Sys ->
                (* A name the program does not define: a system call if
                   the runtime accepts it (it may suspend the process, so
                   flush accumulated cycles first), else a trap. *)
                flush ();
                if not (rt.Runtime.syscall name (Array.init 6 (fun i -> get_reg regs (16 + i))))
                then raise (Program.Unknown_procedure name))
        | Ret -> pc := Array.length ops
        | Halt -> running := false
        | Load_check (w, r, d, off, b) ->
            slots := !slots + m.m_slots.(i);
            flush ();
            (* The inserted flag compare, inline: only a load that
               returned the flag value calls into the runtime. *)
            let v = get_reg regs r in
            if Int64.equal v (rt.Runtime.miss_flag w) then
              set_reg regs d (rt.Runtime.load_check v (addr_of regs off b) w)
        | Store_check (w, off, b) ->
            slots := !slots + m.m_slots.(i);
            flush ();
            rt.Runtime.store_check (addr_of regs off b) w
        | Batch_check entries ->
            slots := !slots + m.m_slots.(i);
            flush ();
            let n = m.m_batch.(i) in
            if Array.length !batch_addrs < n then batch_addrs := Array.make n 0;
            let addrs = !batch_addrs in
            resolve_batch regs addrs 0 entries;
            rt.Runtime.batch_check entries addrs
        | Ll_check (off, b) ->
            slots := !slots + m.m_slots.(i);
            flush ();
            rt.Runtime.ll_check (addr_of regs off b)
        | Sc_check (w, r, off, b) ->
            slots := !slots + m.m_slots.(i);
            flush ();
            sc_override :=
              (match rt.Runtime.sc_check (addr_of regs off b) w (get_reg regs r) with
              | Runtime.Run_in_hardware -> -1
              | Runtime.Handled ok -> if ok then 1 else 0)
        | Gran_lookup ->
            (* Cost-only model of the block-number table load: the checks
               that follow do the real lookup through the engine's layout. *)
            slots := !slots + m.m_slots.(i);
            flush ()
        | Mb_check ->
            flush ();
            rt.Runtime.mb_check ()
        | Poll ->
            stats.polls <- stats.polls + 1;
            flush ();
            rt.Runtime.poll ()
        | Prefetch_excl (off, b) ->
            flush ();
            rt.Runtime.prefetch_excl (addr_of regs off b)
      end
    end
  done;
  flush ();
  stats.steps <- !steps;
  stats.check_slots <- !slots;
  { r0 = get_reg regs 0; stats }
