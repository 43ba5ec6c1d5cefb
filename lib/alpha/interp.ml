(** The instruction interpreter.

    Executes an assembled {!Program} against a {!Runtime}.  The
    interpreter is deliberately ignorant of Shasta: it charges the cycle
    cost of each instruction (batched, then flushed through
    [runtime.charge] before any callback that could suspend the simulated
    process) and delegates all memory traffic to the runtime closures. *)

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

(* Per-procedure dispatch metadata, built once per [run] on first entry:
   table-driven cycle costs and check-slot sizes (no per-instruction
   [Cost.cycles] re-match), branch targets resolved to indices (no label
   hashtable lookup per taken branch), call targets memoized per site,
   and [m_pure.(pc)] = the length of the straight-line run of pure
   register-only instructions starting at [pc], which the main loop
   executes as one batch without touching the dispatch machinery. *)
(* A memoized [Call] target: a procedure of the program, or a runtime
   system call (a name the program does not define, accepted by
   [Runtime.syscall] on first dispatch). *)
type callee = Proc of Program.procedure | Sys

type meta = {
  m_cost : int array;
  m_slots : int array;  (** check-slot size, 0 for non-check instructions *)
  m_target : int array;  (** resolved branch target, -1 otherwise *)
  m_pure : int array;
  m_callee : callee option array;  (** memoized [Call] targets *)
}

(* Pure = touches only the register files: no memory, control, traps or
   runtime callbacks, so a run of these can execute between two dispatch
   points with the cycle charges summed (nothing can observe simulated
   time inside the run — the next runtime callback still flushes first). *)
let is_pure = function
  | Insn.Binop _ | Insn.Li _ | Insn.Lif _ | Insn.Fbinop _ | Insn.Fcmp _
  | Insn.Cvt_if _ | Insn.Cvt_fi _ | Insn.Fmov _ ->
      true
  | _ -> false

let build_meta (proc : Program.procedure) =
  let code = proc.Program.code in
  let n = Array.length code in
  let m_cost = Array.make n 0 in
  let m_slots = Array.make n 0 in
  let m_target = Array.make n (-1) in
  let m_pure = Array.make n 0 in
  for i = n - 1 downto 0 do
    let insn = code.(i) in
    m_cost.(i) <- Cost.cycles insn;
    (match insn with
    | Insn.Load_check _ | Insn.Store_check _ | Insn.Batch_check _ | Insn.Ll_check _
    | Insn.Sc_check _ | Insn.Gran_lookup _ ->
        m_slots.(i) <- Insn.size_in_slots insn
    | _ -> ());
    (match insn with
    | Insn.Br l | Insn.Bcond (_, _, l) -> m_target.(i) <- Program.label_index proc l
    | _ -> ());
    if is_pure insn then m_pure.(i) <- 1 + (if i + 1 < n then m_pure.(i + 1) else 0)
  done;
  { m_cost; m_slots; m_target; m_pure; m_callee = Array.make n None }

type frame = { proc : Program.procedure; meta : meta; mutable pc : int }

let flush_threshold = 512

let check_alignment addr w =
  let b = Insn.bytes_of_width w in
  if addr land (b - 1) <> 0 then trap "unaligned %d-byte access at 0x%x" b addr

(* The register files.  Integer registers live in a flat [Bytes] store,
   8 bytes each, and float registers in a flat [float array]; both are
   read and written only through these closed helpers, which ocamlopt
   inlines, so a register value stays unboxed from its read to its
   write.  r31 and f31 read as zero because their slots are never
   written. *)
let[@inline] get_reg regs r = Bytes.get_int64_le regs (r lsl 3)
let[@inline] set_reg regs r v = if r <> 31 then Bytes.set_int64_le regs (r lsl 3) v
let[@inline] get_freg (fregs : float array) f = fregs.(f)
let[@inline] set_freg (fregs : float array) f v = if f <> 31 then fregs.(f) <- v
let[@inline] addr_of regs off base = Int64.to_int (get_reg regs base) + off

let[@inline] eval_operand regs = function
  | Insn.Reg r -> get_reg regs r
  | Insn.Imm i -> Int64.of_int i

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

(* Resolve a batch's addresses into [addrs], in entry order. *)
let rec resolve_batch regs addrs i = function
  | [] -> ()
  | e :: rest ->
      addrs.(i) <- addr_of regs e.Insn.b_off e.Insn.b_base;
      resolve_batch regs addrs (i + 1) rest

let run ?(max_steps = 1_000_000_000) (program : Program.t) (rt : Runtime.t) ~entry
    ?(args = []) () =
  let regs = Bytes.make (32 * 8) '\000' in
  let fregs = Array.make 32 0.0 in
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
        let m = build_meta proc in
        Hashtbl.add metas proc.Program.name m;
        m
  in
  (* Resolved batch addresses, reused across executions; grown to the
     longest batch met. *)
  let batch_addrs = ref (Array.make 8 0) in
  let entry_proc = Program.find program entry in
  let call_stack : frame list ref = ref [] in
  let frame = ref { proc = entry_proc; meta = meta_of entry_proc; pc = 0 } in
  let sc_override : bool option ref = ref None in
  let running = ref true in
  while !running do
    let f = !frame in
    let code = f.proc.Program.code in
    if f.pc < 0 || f.pc >= Array.length code then begin
      (* Fall off the end of a procedure: treat as return. *)
      match !call_stack with
      | [] -> running := false
      | caller :: rest ->
          call_stack := rest;
          frame := caller
    end
    else begin
      let pc = f.pc in
      let m = f.meta in
      let n = m.m_pure.(pc) in
      if n > 0 && stats.steps + n <= max_steps then begin
        (* Batched dispatch: a straight-line run of pure instructions
           executes back-to-back, summing its cycle charge, with one
           flush check at the end.  [steps], [check_slots] (always 0
           here) and register effects are identical to the one-at-a-time
           path. *)
        stats.steps <- stats.steps + n;
        let cyc = ref 0 in
        for i = pc to pc + n - 1 do
          cyc := !cyc + m.m_cost.(i);
          match code.(i) with
          | Insn.Binop (op, a, b, d) ->
              set_reg regs d (eval_binop op (get_reg regs a) (eval_operand regs b))
          | Insn.Li (r, v) -> set_reg regs r v
          | Insn.Lif (fr, v) -> set_freg fregs fr v
          | Insn.Fbinop (op, a, b, d) ->
              set_freg fregs d (eval_fbinop op (get_freg fregs a) (get_freg fregs b))
          | Insn.Fcmp (c, a, b, d) ->
              set_reg regs d
                (if eval_fcond c (get_freg fregs a) (get_freg fregs b) then 1L else 0L)
          | Insn.Cvt_if (r, fr) -> set_freg fregs fr (Int64.to_float (get_reg regs r))
          | Insn.Cvt_fi (fr, r) -> set_reg regs r (Int64.of_float (get_freg fregs fr))
          | Insn.Fmov (a, d) -> set_freg fregs d (get_freg fregs a)
          | _ -> assert false
        done;
        acc_cycles := !acc_cycles + !cyc;
        if !acc_cycles >= flush_threshold then flush ();
        f.pc <- pc + n
      end
      else begin
      let insn = code.(pc) in
      stats.steps <- stats.steps + 1;
      if stats.steps > max_steps then trap "step budget exceeded (%d)" max_steps;
      stats.check_slots <- stats.check_slots + m.m_slots.(pc);
      acc_cycles := !acc_cycles + m.m_cost.(pc);
      if !acc_cycles >= flush_threshold then flush ();
      f.pc <- pc + 1;
      match insn with
      | Insn.Binop (op, a, b, d) ->
          set_reg regs d (eval_binop op (get_reg regs a) (eval_operand regs b))
      | Insn.Li (r, v) -> set_reg regs r v
      | Insn.Lif (fr, v) -> set_freg fregs fr v
      | Insn.Ld (w, d, off, b) ->
          stats.loads <- stats.loads + 1;
          let addr = addr_of regs off b in
          check_alignment addr w;
          set_reg regs d (rt.Runtime.load addr w)
      | Insn.St (w, s, off, b) ->
          stats.stores <- stats.stores + 1;
          let addr = addr_of regs off b in
          check_alignment addr w;
          rt.Runtime.store addr w (get_reg regs s)
      | Insn.Ldf (d, off, b) ->
          stats.loads <- stats.loads + 1;
          let addr = addr_of regs off b in
          check_alignment addr Insn.W64;
          set_freg fregs d (Int64.float_of_bits (rt.Runtime.load addr Insn.W64))
      | Insn.Stf (s, off, b) ->
          stats.stores <- stats.stores + 1;
          let addr = addr_of regs off b in
          check_alignment addr Insn.W64;
          rt.Runtime.store addr Insn.W64 (Int64.bits_of_float (get_freg fregs s))
      | Insn.Fbinop (op, a, b, d) ->
          set_freg fregs d (eval_fbinop op (get_freg fregs a) (get_freg fregs b))
      | Insn.Fcmp (c, a, b, d) ->
          set_reg regs d (if eval_fcond c (get_freg fregs a) (get_freg fregs b) then 1L else 0L)
      | Insn.Cvt_if (r, fr) -> set_freg fregs fr (Int64.to_float (get_reg regs r))
      | Insn.Cvt_fi (fr, r) -> set_reg regs r (Int64.of_float (get_freg fregs fr))
      | Insn.Fmov (a, d) -> set_freg fregs d (get_freg fregs a)
      | Insn.Ll (w, d, off, b) ->
          stats.ll_sc <- stats.ll_sc + 1;
          let addr = addr_of regs off b in
          check_alignment addr w;
          set_reg regs d (rt.Runtime.ll addr w)
      | Insn.Sc (w, s, off, b) -> (
          stats.ll_sc <- stats.ll_sc + 1;
          let addr = addr_of regs off b in
          check_alignment addr w;
          match !sc_override with
          | Some ok ->
              sc_override := None;
              set_reg regs s (if ok then 1L else 0L)
          | None ->
              let ok = rt.Runtime.sc addr w (get_reg regs s) in
              set_reg regs s (if ok then 1L else 0L))
      | Insn.Mb ->
          stats.mbs <- stats.mbs + 1;
          rt.Runtime.mb ()
      | Insn.Br _ -> f.pc <- m.m_target.(pc)
      | Insn.Bcond (c, r, _) -> if eval_cond c (get_reg regs r) then f.pc <- m.m_target.(pc)
      | Insn.Call name -> (
          let callee =
            match m.m_callee.(pc) with
            | Some c -> c
            | None ->
                let c =
                  match Program.find_opt program name with
                  | Some p -> Proc p
                  | None -> Sys
                in
                m.m_callee.(pc) <- Some c;
                c
          in
          match callee with
          | Proc p ->
              call_stack := f :: !call_stack;
              frame := { proc = p; meta = meta_of p; pc = 0 }
          | Sys ->
              (* A name the program does not define: a system call if
                 the runtime accepts it (it may suspend the process, so
                 flush accumulated cycles first), else a trap. *)
              flush ();
              if not (rt.Runtime.syscall name (Array.init 6 (fun i -> get_reg regs (16 + i))))
              then raise (Program.Unknown_procedure name))
      | Insn.Ret -> (
          match !call_stack with
          | [] -> running := false
          | caller :: rest ->
              call_stack := rest;
              frame := caller)
      | Insn.Halt -> running := false
      | Insn.Load_check (w, r, off, b) ->
          flush ();
          (* The inserted flag compare, inline: only a load that
             returned the flag value calls into the runtime. *)
          let v = get_reg regs r in
          if Int64.equal v (rt.Runtime.miss_flag w) then
            set_reg regs r (rt.Runtime.load_check v (addr_of regs off b) w)
      | Insn.Store_check (w, off, b) ->
          flush ();
          rt.Runtime.store_check (addr_of regs off b) w
      | Insn.Batch_check entries ->
          flush ();
          let n = List.length entries in
          if Array.length !batch_addrs < n then batch_addrs := Array.make n 0;
          let addrs = !batch_addrs in
          resolve_batch regs addrs 0 entries;
          rt.Runtime.batch_check entries addrs
      | Insn.Ll_check (off, b) ->
          flush ();
          rt.Runtime.ll_check (addr_of regs off b)
      | Insn.Sc_check (w, r, off, b) -> (
          flush ();
          match rt.Runtime.sc_check (addr_of regs off b) w (get_reg regs r) with
          | Runtime.Run_in_hardware -> sc_override := None
          | Runtime.Handled ok -> sc_override := Some ok)
      | Insn.Gran_lookup _ ->
          (* Cost-only model of the block-number table load: the checks
             that follow do the real lookup through the engine's layout. *)
          flush ()
      | Insn.Mb_check ->
          flush ();
          rt.Runtime.mb_check ()
      | Insn.Poll ->
          stats.polls <- stats.polls + 1;
          flush ();
          rt.Runtime.poll ()
      | Insn.Prefetch_excl (off, b) ->
          flush ();
          rt.Runtime.prefetch_excl (addr_of regs off b)
      | Insn.Label _ -> trap "label survived assembly"
      end
    end
  done;
  flush ();
  { r0 = get_reg regs 0; stats }
