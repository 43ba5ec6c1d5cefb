(** Batch-safety validator for the interpreter's decoded form.

    {!Alpha.Interp.decode} precomputes [m_pure.(pc)] — the length
    of the straight-line run of register-only instructions starting at
    [pc] — and the main loop executes such a run as one batch between
    two dispatch points.  That is only sound if nothing inside a run
    can observe simulated time or touch the runtime: a [Poll], [Mb],
    [Call], memory access, or check pseudo-instruction swallowed
    mid-batch would execute without its flush/dispatch, silently
    breaking the protocol's progress and ordering guarantees (the
    rewriter's whole point is that those instructions {e do} run).

    This module re-derives the batch boundaries independently — its own
    positive list of batchable instructions, written out rather than
    shared with the interpreter, so a bug in [is_pure] cannot hide
    itself — and convicts any [meta] whose runs swallow an unsafe
    instruction, overrun the procedure, or disagree with the maximal
    re-derivation.  The decoded ops (their register operands above all,
    which the loop uses as unchecked indices into the register files)
    and the branch-target, check-slot, cost, batch-length and memoized
    call-target tables are cross-checked too: every entry the
    interpreter will trust is validated against the program text. *)

(* The independent positive list: instructions that touch only the
   register files.  Deliberately NOT a call into [Interp.is_pure] —
   keep the validator's ground truth separate from the code under
   validation.  Everything else (loads, stores, LL/SC, MB, control
   flow, calls, and every rewriter pseudo-instruction, each of which
   must reach its runtime callback) is a dispatch point. *)
let batch_safe = function
  | Alpha.Insn.Binop _ | Alpha.Insn.Li _ | Alpha.Insn.Lif _ | Alpha.Insn.Fbinop _
  | Alpha.Insn.Fcmp _ | Alpha.Insn.Cvt_if _ | Alpha.Insn.Cvt_fi _ | Alpha.Insn.Fmov _ ->
      true
  | Alpha.Insn.Ld _ | Alpha.Insn.St _ | Alpha.Insn.Ldf _ | Alpha.Insn.Stf _
  | Alpha.Insn.Ll _ | Alpha.Insn.Sc _ | Alpha.Insn.Mb | Alpha.Insn.Br _
  | Alpha.Insn.Bcond _ | Alpha.Insn.Call _ | Alpha.Insn.Ret | Alpha.Insn.Halt
  | Alpha.Insn.Load_check _ | Alpha.Insn.Store_check _ | Alpha.Insn.Batch_check _
  | Alpha.Insn.Ll_check _ | Alpha.Insn.Sc_check _ | Alpha.Insn.Gran_lookup _
  | Alpha.Insn.Mb_check | Alpha.Insn.Poll | Alpha.Insn.Prefetch_excl _
  | Alpha.Insn.Label _ ->
      false

type violation = {
  v_proc : string;
  v_index : int;
  v_kind : string;  (** machine-readable: "swallowed", "overrun", ... *)
  v_detail : string;
}

let violation proc index kind fmt =
  Format.kasprintf (fun detail -> { v_proc = proc; v_index = index; v_kind = kind; v_detail = detail }) fmt

(* The decoded op the program text calls for, with every register the
   text names, derived here from the text and not by
   [Interp.decode]: register operands stay as written, except that a
   destination r31 (f31) becomes the interpreter's sink slot.  [None]
   for a label, which the decoder refuses. *)
let expected_op insn =
  let module I = Alpha.Interp in
  let d r = if r = 31 then I.sink else r in
  match (insn : Alpha.Insn.t) with
  | Alpha.Insn.Binop (o, a, Alpha.Insn.Reg b, r) -> Some ([ a; b; r ], I.Alu (o, a, b, d r))
  | Alpha.Insn.Binop (o, a, Alpha.Insn.Imm k, r) -> Some ([ a; r ], I.Alu_imm (o, a, k, d r))
  | Alpha.Insn.Li (r, v) -> Some ([ r ], I.Li (d r, v))
  | Alpha.Insn.Lif (f, v) -> Some ([ f ], I.Lif (d f, v))
  | Alpha.Insn.Ld (w, r, off, b) -> Some ([ r; b ], I.Ld (w, d r, off, b))
  | Alpha.Insn.St (w, r, off, b) -> Some ([ r; b ], I.St (w, r, off, b))
  | Alpha.Insn.Ldf (f, off, b) -> Some ([ f; b ], I.Ldf (d f, off, b))
  | Alpha.Insn.Stf (f, off, b) -> Some ([ f; b ], I.Stf (f, off, b))
  | Alpha.Insn.Fbinop (o, a, b, f) -> Some ([ a; b; f ], I.Fbinop (o, a, b, d f))
  | Alpha.Insn.Fcmp (c, a, b, r) -> Some ([ a; b; r ], I.Fcmp (c, a, b, d r))
  | Alpha.Insn.Cvt_if (r, f) -> Some ([ r; f ], I.Cvt_if (r, d f))
  | Alpha.Insn.Cvt_fi (f, r) -> Some ([ f; r ], I.Cvt_fi (f, d r))
  | Alpha.Insn.Fmov (a, f) -> Some ([ a; f ], I.Fmov (a, d f))
  | Alpha.Insn.Ll (w, r, off, b) -> Some ([ r; b ], I.Ll (w, d r, off, b))
  | Alpha.Insn.Sc (w, r, off, b) -> Some ([ r; b ], I.Sc (w, r, d r, off, b))
  | Alpha.Insn.Mb -> Some ([], I.Mb)
  | Alpha.Insn.Br _ -> Some ([], I.Br)
  | Alpha.Insn.Bcond (c, r, _) -> Some ([ r ], I.Bcond (c, r))
  | Alpha.Insn.Call name -> Some ([], I.Call name)
  | Alpha.Insn.Ret -> Some ([], I.Ret)
  | Alpha.Insn.Halt -> Some ([], I.Halt)
  | Alpha.Insn.Load_check (w, r, off, b) -> Some ([ r; b ], I.Load_check (w, r, d r, off, b))
  | Alpha.Insn.Store_check (w, off, b) -> Some ([ b ], I.Store_check (w, off, b))
  | Alpha.Insn.Batch_check es ->
      Some (List.map (fun e -> e.Alpha.Insn.b_base) es, I.Batch_check es)
  | Alpha.Insn.Ll_check (off, b) -> Some ([ b ], I.Ll_check (off, b))
  | Alpha.Insn.Sc_check (w, r, off, b) -> Some ([ r; b ], I.Sc_check (w, r, off, b))
  | Alpha.Insn.Gran_lookup (_, b) -> Some ([ b ], I.Gran_lookup)
  | Alpha.Insn.Mb_check -> Some ([], I.Mb_check)
  | Alpha.Insn.Poll -> Some ([], I.Poll)
  | Alpha.Insn.Prefetch_excl (off, b) -> Some ([ b ], I.Prefetch_excl (off, b))
  | Alpha.Insn.Label _ -> None

(** [validate_meta proc meta] — every violation in [meta]'s decoded ops
    and tables against [proc]'s code.  Empty = the decoded form is safe
    to dispatch. *)
let validate_meta (proc : Alpha.Program.procedure) (m : Alpha.Interp.meta) =
  let code = proc.Alpha.Program.code in
  let name = proc.Alpha.Program.name in
  let n = Array.length code in
  let shapes =
    List.filter_map
      (fun (table, len) ->
        if len = n then None
        else Some (violation name 0 "shape" "%s has %d entries for %d instructions" table len n))
      Alpha.Interp.
        [
          ("m_ops", Array.length m.m_ops); ("m_cost", Array.length m.m_cost);
          ("m_slots", Array.length m.m_slots); ("m_target", Array.length m.m_target);
          ("m_pure", Array.length m.m_pure); ("m_batch", Array.length m.m_batch);
          ("m_callee", Array.length m.m_callee);
        ]
  in
  if shapes <> [] then shapes
  else begin
    let out = ref [] in
    let push v = out := v :: !out in
    (* Operands: the loop reads the register files unchecked, so every
       register the text names must lie in 0..31, and the decoded op must
       be the text's. *)
    Array.iteri
      (fun i insn ->
        match expected_op insn with
        | None ->
            push (violation name i "operand" "%a at %d has no decoded form" Alpha.Insn.pp insn i)
        | Some (regs, op) -> (
            match List.find_opt (fun r -> r < 0 || r > 31) regs with
            | Some r ->
                push
                  (violation name i "register" "%a at %d names register %d, outside 0..31"
                     Alpha.Insn.pp insn i r)
            | None ->
                if compare m.Alpha.Interp.m_ops.(i) op <> 0 then
                  push
                    (violation name i "operand" "decoded op at %d disagrees with %a" i Alpha.Insn.pp
                       insn)))
      code;
    (* Independent re-derivation of the maximal safe run lengths. *)
    let expected = Array.make n 0 in
    for i = n - 1 downto 0 do
      if batch_safe code.(i) then
        expected.(i) <- 1 + (if i + 1 < n then expected.(i + 1) else 0)
    done;
    for pc = 0 to n - 1 do
      let run = m.Alpha.Interp.m_pure.(pc) in
      if run < 0 || pc + run > n then
        push (violation name pc "overrun" "batch of %d at %d overruns the %d-instruction procedure" run pc n)
      else begin
        (* The safety core: nothing unsafe inside the claimed run. *)
        for i = pc to pc + run - 1 do
          if not (batch_safe code.(i)) then
            push
              (violation name pc "swallowed" "batch of %d at %d swallows dispatch point %a at %d"
                 run pc Alpha.Insn.pp code.(i) i)
        done;
        (* Exactness against the re-derivation: a short run is not a
           soundness bug but means the two derivations disagree, which is
           worth convicting at build time rather than wondering later. *)
        if run <> expected.(pc) then
          push
            (violation name pc "length" "batch length %d at %d disagrees with re-derived %d" run
               pc expected.(pc))
      end
    done;
    (* The per-instruction tables, each against the text: branch targets
       are exactly the label indices (-1 elsewhere); check-slot sizes bill
       exactly the check pseudo-instructions; cycle costs are the cost
       table's, since the batched path sums [m_cost] without consulting
       it; batch lengths size the address buffer a batch resolves into. *)
    let table kind what (tbl : int array) expect =
      Array.iteri
        (fun i insn ->
          let e = expect insn in
          if tbl.(i) <> e then
            push (violation name i kind "%s %d at %d should be %d" what tbl.(i) i e))
        code
    in
    table "target" "branch target" m.Alpha.Interp.m_target (function
      | Alpha.Insn.Br l | Alpha.Insn.Bcond (_, _, l) -> Alpha.Program.label_index proc l
      | _ -> -1);
    table "slots" "check-slot size" m.Alpha.Interp.m_slots (fun insn ->
        match insn with
        | Alpha.Insn.Load_check _ | Alpha.Insn.Store_check _ | Alpha.Insn.Batch_check _
        | Alpha.Insn.Ll_check _ | Alpha.Insn.Sc_check _ | Alpha.Insn.Gran_lookup _ ->
            Alpha.Insn.size_in_slots insn
        | _ -> 0);
    table "cost" "cycle cost" m.Alpha.Interp.m_cost Alpha.Cost.cycles;
    table "batch" "batch length" m.Alpha.Interp.m_batch (function
      | Alpha.Insn.Batch_check es -> List.length es
      | _ -> 0);
    List.rev !out
  end

(** [validate_callees program proc meta] — any memoized call target
    must agree with the program's procedure table: the decoded form of
    the procedure the program defines under that name, [Sys] for a
    name it does not define.  (Unmemoized [None] entries are always
    fine — they resolve on first dispatch.) *)
let validate_callees (program : Alpha.Program.t) (proc : Alpha.Program.procedure)
    (m : Alpha.Interp.meta) =
  let out = ref [] in
  Array.iteri
    (fun i insn ->
      match (insn, m.Alpha.Interp.m_callee.(i)) with
      | Alpha.Insn.Call callee, Some memo ->
          let agrees =
            match (memo, Alpha.Program.find_opt program callee) with
            | Alpha.Interp.Proc cm, Some p -> cm.Alpha.Interp.m_proc == p
            | Alpha.Interp.Sys, None -> true
            | Alpha.Interp.Proc _, None | Alpha.Interp.Sys, Some _ -> false
          in
          if not agrees then
            out :=
              violation proc.Alpha.Program.name i "callee"
                "memoized target of call to %s disagrees with the procedure table" callee
              :: !out
      | _, Some _ ->
          out :=
            violation proc.Alpha.Program.name i "callee"
              "memoized call target on a non-call instruction"
            :: !out
      | _, None -> ())
    proc.Alpha.Program.code;
  List.rev !out

(** [validate_program program] — decode each procedure the way the
    interpreter will and validate all of it; a procedure the decoder
    refuses is one violation. *)
let validate_program (program : Alpha.Program.t) =
  List.concat_map
    (fun (p : Alpha.Program.procedure) ->
      match Alpha.Interp.decode p with
      | m -> validate_meta p m @ validate_callees program p m
      | exception Alpha.Interp.Trap msg -> [ violation p.Alpha.Program.name 0 "decode" "%s" msg ])
    (Alpha.Program.procedures program)

let pp_violation ppf v =
  Format.fprintf ppf "%s@%d [%s] %s" v.v_proc v.v_index v.v_kind v.v_detail
