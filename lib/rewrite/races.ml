(** Static Eraser-style race detector over an {!Alpha.Program}.

    SPMD model: [nprocs] threads all run [main] with the convention
    [main(a0..a2 = shared/config args, a3 = thread id, a4 = nprocs)];
    [a0] and [a1] are the shared bases.
    Synchronisation is visible in the instruction stream in two forms —
    the {!Alpha.Runtime} system calls ([sync_lock]/[sync_unlock] with
    the lock id in [a0], [sync_barrier]) and the paper's Figure-1 LL/SC
    spin-lock idiom (acquire = successful [Sc] to a lock word, release
    = store of zero to the same word).

    For every shared access the analysis derives:

    - an {e affine address} [arg_base + tc*tid + [lo,hi]] — a symbolic
      base (one of the entry arguments), a thread-id coefficient, and
      an offset interval (loop-variant offsets widen to an interval);
    - the {e must-lockset} at the access (Eraser's discipline:
      intersection at joins, so a lock only counts if held on every
      path), with constant-id locks and LL/SC lock-word addresses as
      lock identities;
    - the {e barrier phase} as an interval plus a congruence
      [counter = r (mod m)] — two accesses whose phases cannot coincide
      (disjoint intervals, or incompatible congruences) are ordered by
      a barrier and cannot race;
    - a {e thread-id constraint} ([tid = n] / [tid <> n]) recovered
      edge-sensitively from branches on [a3], so "if (tid == 0) init"
      patterns exonerate without annotations.

    Two accesses race when at least one writes, no common lock
    instance protects both, their barrier phases may coincide, and
    there exist distinct threads [t <> t'] (consistent with the tid
    constraints) whose concrete address ranges overlap.  All analysis
    is whole-program: the interpreter has a single global register
    file, so callee entry state = join over call sites and caller
    after-call state = callee exit state, which carries locksets and
    phases into helper procedures. *)

(* ------------------------------------------------------------------ *)
(* Affine values with interval offsets.                                *)

type abase =
  | Bzero  (** plain integer, no symbolic base *)
  | Barg of int  (** entry value of argument register [a0+i] *)
  | Bpriv  (** private pointer (sp/gp): never shared, never reported *)

type aval =
  | Unknown
  | Aff of { b : abase; tc : int; lo : int; hi : int }
      (** [b + tc*tid + [lo,hi]]; [hi = max_int] / [lo = min_int] act
          as infinities after interval widening *)

let inf = max_int
let ninf = min_int
let big = 1 lsl 45 (* finite-arithmetic guard: beyond this, saturate *)
let clamp x = if x >= big then inf else if x <= -big then ninf else x

let sat_add a b =
  if a = inf || b = inf then inf
  else if a = ninf || b = ninf then ninf
  else clamp (a + b)

let konst k = Aff { b = Bzero; tc = 0; lo = k; hi = k }

let aadd x y =
  match (x, y) with
  | Aff a, Aff b -> (
      let base =
        match (a.b, b.b) with
        | Bzero, c | c, Bzero -> Some c
        | _ -> None (* adding two pointers is not address arithmetic *)
      in
      match base with
      | Some b' ->
          Aff { b = b'; tc = a.tc + b.tc; lo = sat_add a.lo b.lo; hi = sat_add a.hi b.hi }
      | None -> Unknown)
  | _ -> Unknown

let asub x y =
  match (x, y) with
  | Aff a, Aff b when b.b = Bzero ->
      Aff { b = a.b; tc = a.tc - b.tc; lo = sat_add a.lo (-b.hi); hi = sat_add a.hi (-b.lo) }
  | Aff a, Aff b when a.b = b.b ->
      Aff { b = Bzero; tc = a.tc - b.tc; lo = sat_add a.lo (-b.hi); hi = sat_add a.hi (-b.lo) }
  | _ -> Unknown

let ascale x s =
  match x with
  | _ when s = 0 -> konst 0
  | Aff a when a.b = Bzero ->
      let m v =
        if v = inf then if s > 0 then inf else ninf
        else if v = ninf then if s > 0 then ninf else inf
        else clamp (v * s)
      in
      let l = m a.lo and h = m a.hi in
      Aff { b = Bzero; tc = a.tc * s; lo = min l h; hi = max l h }
  | _ -> Unknown

let amul x y =
  match (x, y) with
  | _, Aff { b = Bzero; tc = 0; lo; hi } when lo = hi -> ascale x lo
  | Aff { b = Bzero; tc = 0; lo; hi }, _ when lo = hi -> ascale y lo
  | _ -> Unknown

let exact_const = function
  | Aff { b = Bzero; tc = 0; lo; hi } when lo = hi -> Some lo
  | _ -> None

(* Widening join: an offset bound that grows at a join point goes
   straight to infinity, so loop inductions converge in one round. *)
let ajoin_widen old nu =
  match (old, nu) with
  | Unknown, _ -> (Unknown, false)
  | _, Unknown -> (Unknown, true)
  | Aff a, Aff b ->
      if a.b = b.b && a.tc = b.tc then begin
        let lo = if b.lo < a.lo then ninf else a.lo in
        let hi = if b.hi > a.hi then inf else a.hi in
        if lo = a.lo && hi = a.hi then (old, false) else (Aff { a with lo; hi }, true)
      end
      else (Unknown, true)

(* ------------------------------------------------------------------ *)
(* Locks, barrier phases, thread-id constraints.                       *)

type lock =
  | Lconst of int  (** [sync_lock] with a constant id *)
  | Lsym of abase * int * int  (** LL/SC lock word at [base + tc*tid + off] *)

let lock_of_addr = function
  | Aff { b; tc; lo; hi } when lo = hi -> Some (Lsym (b, tc, lo))
  | _ -> None

(* A lock instance is shared between two threads only if its identity
   does not depend on the thread id. *)
let lock_cross_thread = function Lconst _ -> true | Lsym (_, tc, _) -> tc = 0

type phase = { p_lo : int; p_hi : int; p_m : int; p_r : int }
(** barrier-epoch counter: interval [[p_lo,p_hi]] (p_hi = max_int once
    widened) and congruence [counter = p_r (mod p_m)]; [p_m = 0] means
    the counter is exactly [p_r]. *)

let phase0 = { p_lo = 0; p_hi = 0; p_m = 0; p_r = 0 }
let phase_cap = 64

let phase_bump p =
  {
    p_lo = min (p.p_lo + 1) phase_cap;
    p_hi = (if p.p_hi >= phase_cap then inf else p.p_hi + 1);
    p_m = p.p_m;
    p_r = (if p.p_m = 0 then p.p_r + 1 else (p.p_r + 1) mod p.p_m);
  }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let phase_join a b =
  let m = gcd (gcd a.p_m b.p_m) (abs (a.p_r - b.p_r)) in
  let r = if m = 0 then a.p_r else ((a.p_r mod m) + m) mod m in
  let hi =
    if a.p_hi = inf || b.p_hi = inf then inf
    else if max a.p_hi b.p_hi >= phase_cap then inf
    else max a.p_hi b.p_hi
  in
  { p_lo = min a.p_lo b.p_lo; p_hi = hi; p_m = m; p_r = r }

(** Can the two barrier-epoch counters take the same value?  If not,
    a barrier separates every pair of executions of the two points. *)
let phases_may_coincide a b =
  let overlap = a.p_hi >= b.p_lo && b.p_hi >= a.p_lo in
  let g = gcd a.p_m b.p_m in
  let cong = if g = 0 then a.p_r = b.p_r else abs (a.p_r - b.p_r) mod g = 0 in
  overlap && cong

type tidc = Tany | Teq of int | Tne of int

let tid_join a b = if a = b then a else Tany
let tid_ok c t = match c with Tany -> true | Teq n -> t = n | Tne n -> t <> n

(* Refine a constraint with a new branch fact; [None] = edge dead. *)
let tid_meet c fact =
  match (c, fact) with
  | Tany, f -> Some f
  | _, Tany -> Some c
  | Teq m, Teq n -> if m = n then Some c else None
  | Teq m, Tne n -> if m = n then None else Some c
  | Tne m, Teq n -> if m = n then None else Some (Teq n)
  | Tne _, Tne _ -> Some c (* keeping either fact is sound *)

(* ------------------------------------------------------------------ *)
(* Per-point analysis state.                                           *)

type rstate = {
  vals : aval array;  (** 32 integer registers *)
  mutable locks : lock list;  (** must-held, sorted *)
  mutable ph : phase;
  mutable tid : tidc;
}

let arg_reg i = 16 + i
let tid_arg = 3

let entry_rstate () =
  let vals = Array.make 32 Unknown in
  vals.(31) <- konst 0;
  for i = 0 to 5 do
    vals.(arg_reg i) <-
      (if i = tid_arg then Aff { b = Bzero; tc = 1; lo = 0; hi = 0 }
       else Aff { b = Barg i; tc = 0; lo = 0; hi = 0 })
  done;
  vals.(Dataflow.sp) <- Aff { b = Bpriv; tc = 0; lo = 0; hi = 0 };
  vals.(Dataflow.gp) <- Aff { b = Bpriv; tc = 0; lo = 0; hi = 0 };
  { vals; locks = []; ph = phase0; tid = Tany }

let copy_rstate s = { s with vals = Array.copy s.vals }

let add_lock s l =
  if not (List.mem l s.locks) then s.locks <- List.sort compare (l :: s.locks)

let del_lock s l = s.locks <- List.filter (fun x -> x <> l) s.locks

let join_rstate dst src =
  let changed = ref false in
  for r = 0 to 31 do
    let v, c = ajoin_widen dst.vals.(r) src.vals.(r) in
    if c then begin
      dst.vals.(r) <- v;
      changed := true
    end
  done;
  let inter = List.filter (fun l -> List.mem l src.locks) dst.locks in
  if List.length inter <> List.length dst.locks then begin
    dst.locks <- inter;
    changed := true
  end;
  let p = phase_join dst.ph src.ph in
  if p <> dst.ph then begin
    dst.ph <- p;
    changed := true
  end;
  let t = tid_join dst.tid src.tid in
  if t <> dst.tid then begin
    dst.tid <- t;
    changed := true
  end;
  !changed

(* ------------------------------------------------------------------ *)
(* Accesses, atoms, races.                                             *)

type access = { ac_arg : int; ac_tc : int; ac_lo : int; ac_hi : int; ac_width : int }

type atom = {
  at_proc : string;
  at_idx : int;
  at_write : bool;
  at_acc : access;
  at_locks : lock list;
  at_phase : phase;
  at_tid : tidc;
}

type race = {
  r_a : atom;
  r_b : atom;
  r_t : int;  (** witness thread executing [r_a] *)
  r_t' : int;  (** witness thread executing [r_b] *)
  r_why : string;
}

type report = {
  rep_atoms : atom list;
  rep_unresolved : int;  (** memory accesses whose address did not resolve *)
  rep_races : race list;
}

let pp_lock ppf = function
  | Lconst id -> Format.fprintf ppf "lock(%d)" id
  | Lsym (b, tc, off) ->
      let base =
        match b with Barg i -> Printf.sprintf "a%d" i | Bzero -> "0" | Bpriv -> "sp"
      in
      if tc = 0 then Format.fprintf ppf "llsc(%s+%d)" base off
      else Format.fprintf ppf "llsc(%s+%d*tid+%d)" base tc off

let pp_phase ppf p =
  let hi = if p.p_hi = inf then "inf" else string_of_int p.p_hi in
  if p.p_m = 0 then Format.fprintf ppf "[%d,%s]=%d" p.p_lo hi p.p_r
  else Format.fprintf ppf "[%d,%s]=%d(mod %d)" p.p_lo hi p.p_r p.p_m

let pp_tid ppf = function
  | Tany -> Format.fprintf ppf "any"
  | Teq n -> Format.fprintf ppf "tid=%d" n
  | Tne n -> Format.fprintf ppf "tid<>%d" n

let pp_atom ppf a =
  let hi = if a.at_acc.ac_hi = inf then "inf" else string_of_int a.at_acc.ac_hi in
  let lo = if a.at_acc.ac_lo = ninf then "-inf" else string_of_int a.at_acc.ac_lo in
  Format.fprintf ppf "%s@%d %s a%d%s+[%s,%s] w%d locks{%a} phase %a (%a)" a.at_proc
    a.at_idx
    (if a.at_write then "write" else "read")
    a.at_acc.ac_arg
    (if a.at_acc.ac_tc = 0 then "" else Printf.sprintf "+%d*tid" a.at_acc.ac_tc)
    lo hi a.at_acc.ac_width
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp_lock)
    a.at_locks pp_phase a.at_phase pp_tid a.at_tid

(* ------------------------------------------------------------------ *)
(* The whole-program fixed point.                                      *)

type ctx = {
  program : Alpha.Program.t;
  entry_states : (string, rstate) Hashtbl.t;
  exit_states : (string, rstate) Hashtbl.t;
  sync_addrs : (abase * int * int, unit) Hashtbl.t;
      (** addresses of LL/SC lock words: accesses to them are
          synchronisation traffic, not data atoms *)
  mutable atoms : atom list;
  mutable unresolved : int;
  mutable collect : bool;  (** final pass: record atoms *)
  mutable dirty : bool;  (** an entry or exit state grew this sweep *)
}

let dest_int_reg = function
  | Alpha.Insn.Binop (_, _, _, d)
  | Alpha.Insn.Li (d, _)
  | Alpha.Insn.Ld (_, d, _, _)
  | Alpha.Insn.Ll (_, d, _, _)
  | Alpha.Insn.Sc (_, d, _, _)
  | Alpha.Insn.Fcmp (_, _, _, d)
  | Alpha.Insn.Cvt_fi (_, d)
  | Alpha.Insn.Load_check (_, d, _, _) ->
      Some d
  | _ -> None

let rget s r = if r = 31 then konst 0 else s.vals.(r)
let rset s r v = if r <> 31 then s.vals.(r) <- v
let addr_of s off base = aadd (rget s base) (konst off)

let key_of_addr = function
  | Aff { b; tc; lo; hi } when lo = hi -> Some (b, tc, lo)
  | _ -> None

let note_sync_addr ctx addr =
  match key_of_addr addr with
  | Some k -> if not (Hashtbl.mem ctx.sync_addrs k) then Hashtbl.replace ctx.sync_addrs k ()
  | None -> ()

let is_sync_addr ctx addr =
  match key_of_addr addr with Some k -> Hashtbl.mem ctx.sync_addrs k | None -> false

let emit_atom ctx s ~proc ~idx ~write ~width addr =
  if ctx.collect then
    match addr with
    | Aff { b = Barg i; tc; lo; hi } when i = 0 || i = 1 ->
        let acc = { ac_arg = i; ac_tc = tc; ac_lo = lo; ac_hi = hi; ac_width = width } in
        ctx.atoms <-
          {
            at_proc = proc;
            at_idx = idx;
            at_write = write;
            at_acc = acc;
            at_locks = s.locks;
            at_phase = s.ph;
            at_tid = s.tid;
          }
          :: ctx.atoms
    | Aff _ -> () (* non-shared base: private, absolute, or unshared arg *)
    | Unknown -> ctx.unresolved <- ctx.unresolved + 1

(* Transfer one instruction.  Returns [false] when the continuation is
   not (yet) reachable: a call into a procedure with no known exit. *)
let transfer ctx ~proc s idx (insn : Alpha.Insn.t) =
  let module I = Alpha.Insn in
  match insn with
  | I.Binop (op, a, b, d) ->
      let va = rget s a in
      let vb = match b with I.Reg r -> rget s r | I.Imm i -> konst i in
      let v =
        match op with
        | I.Add -> aadd va vb
        | I.Sub -> asub va vb
        | I.Mul -> amul va vb
        | I.Sll -> (
            match exact_const vb with
            | Some k when k >= 0 && k < 32 -> ascale va (1 lsl k)
            | _ -> Unknown)
        | _ -> Unknown
      in
      rset s d v;
      true
  | I.Li (r, v) ->
      rset s r (konst (Int64.to_int v));
      true
  | I.Ld (w, d, off, b) ->
      let addr = addr_of s off b in
      if not (is_sync_addr ctx addr) then
        emit_atom ctx s ~proc ~idx ~write:false ~width:(I.bytes_of_width w) addr;
      rset s d Unknown;
      true
  | I.Ldf (_, off, b) ->
      let addr = addr_of s off b in
      if not (is_sync_addr ctx addr) then
        emit_atom ctx s ~proc ~idx ~write:false ~width:8 addr;
      true
  | I.St (w, src, off, b) ->
      let addr = addr_of s off b in
      let stores_zero =
        src = 31 || match exact_const (rget s src) with Some 0 -> true | _ -> false
      in
      let release =
        stores_zero
        &&
        match lock_of_addr addr with
        | Some l when List.mem l s.locks ->
            del_lock s l;
            true
        | _ -> is_sync_addr ctx addr
      in
      if (not release) && not (is_sync_addr ctx addr) then
        emit_atom ctx s ~proc ~idx ~write:true ~width:(I.bytes_of_width w) addr;
      true
  | I.Stf (_, off, b) ->
      let addr = addr_of s off b in
      if not (is_sync_addr ctx addr) then
        emit_atom ctx s ~proc ~idx ~write:true ~width:8 addr;
      true
  | I.Ll (_, d, off, b) ->
      note_sync_addr ctx (addr_of s off b);
      rset s d Unknown;
      true
  | I.Sc (_, d, off, b) ->
      (* The success-flag edge is handled by the block walker. *)
      note_sync_addr ctx (addr_of s off b);
      rset s d Unknown;
      true
  | I.Fcmp (_, _, _, d) | I.Cvt_fi (_, d) | I.Load_check (_, d, _, _) ->
      rset s d Unknown;
      true
  | I.Call name -> (
      match Alpha.Program.find_opt ctx.program name with
      | Some _ -> (
          (* Whole-program: feed the callee's entry, resume from its
             exit (single global register file, no save/restore). *)
          (match Hashtbl.find_opt ctx.entry_states name with
          | Some e -> if join_rstate e s then ctx.dirty <- true
          | None ->
              Hashtbl.replace ctx.entry_states name (copy_rstate s);
              ctx.dirty <- true);
          match Hashtbl.find_opt ctx.exit_states name with
          | Some ex ->
              Array.blit ex.vals 0 s.vals 0 32;
              s.locks <- ex.locks;
              s.ph <- ex.ph;
              s.tid <- ex.tid;
              true
          | None -> false)
      | None ->
          if name = Alpha.Runtime.sync_lock_proc then begin
            (match exact_const (rget s (arg_reg 0)) with
            | Some id -> add_lock s (Lconst id)
            | None -> () (* unknown id: cannot credit the lock *));
            true
          end
          else if name = Alpha.Runtime.sync_unlock_proc then begin
            (match exact_const (rget s (arg_reg 0)) with
            | Some id -> del_lock s (Lconst id)
            | None -> s.locks <- [] (* unknown id: drop everything *));
            true
          end
          else if name = Alpha.Runtime.sync_barrier_proc then begin
            s.ph <- phase_bump s.ph;
            true
          end
          else begin
            (* Unknown external call: clobber the register values. *)
            for r = 0 to 30 do
              s.vals.(r) <- Unknown
            done;
            true
          end)
  | I.Lif _ | I.Fbinop _ | I.Cvt_if _ | I.Fmov _ | I.Mb | I.Br _ | I.Bcond _ | I.Ret
  | I.Halt | I.Store_check _ | I.Batch_check _ | I.Ll_check _ | I.Sc_check _
  | I.Gran_lookup _ | I.Mb_check | I.Poll | I.Prefetch_excl _ | I.Label _ ->
      true

(* Walk one block from [sin].  Returns the successor edges (with
   per-edge refinements at a conditional terminator) and, when the walk
   reached the end of the block alive, its out-state. *)
let walk_block ctx (cfg : Cfg.t) blk sin =
  let code = cfg.Cfg.proc.Alpha.Program.code in
  let proc = cfg.Cfg.proc.Alpha.Program.name in
  let s = copy_rstate sin in
  let sc_flag = ref None in
  let live = ref true in
  for i = blk.Cfg.first to blk.Cfg.last do
    if !live then begin
      let insn = code.(i) in
      (match insn with
      | Alpha.Insn.Sc (_, d, off, b) -> (
          match lock_of_addr (addr_of s off b) with
          | Some l -> sc_flag := Some (d, l)
          | None -> sc_flag := None)
      | _ -> (
          (* Any other redefinition of the flag register forgets it. *)
          match (!sc_flag, dest_int_reg insn) with
          | Some (fr, _), Some d when d = fr -> sc_flag := None
          | _ -> ()));
      if not (transfer ctx ~proc s i insn) then live := false
    end
  done;
  if not !live then ([], None)
  else
    let edges =
      match code.(blk.Cfg.last) with
      | Alpha.Insn.Bcond (c, r, _) when List.length blk.Cfg.succs = 2 -> (
          let taken_b = List.nth blk.Cfg.succs 0 in
          let fall_b = List.nth blk.Cfg.succs 1 in
          (* Constant condition: prune the dead edge. *)
          match exact_const (rget s r) with
          | Some k ->
              let holds =
                match c with
                | Alpha.Insn.Eq -> k = 0
                | Alpha.Insn.Ne -> k <> 0
                | Alpha.Insn.Lt -> k < 0
                | Alpha.Insn.Le -> k <= 0
                | Alpha.Insn.Gt -> k > 0
                | Alpha.Insn.Ge -> k >= 0
              in
              [ ((if holds then taken_b else fall_b), s) ]
          | None ->
              let refine edge_taken =
                let s' = copy_rstate s in
                (* SC success: the branch tests the store-conditional
                   flag; the success edge acquires the lock. *)
                (match (!sc_flag, c) with
                | Some (fr, l), Alpha.Insn.Eq when fr = r && not edge_taken ->
                    add_lock s' l
                | Some (fr, l), Alpha.Insn.Ne when fr = r && edge_taken -> add_lock s' l
                | _ -> ());
                (* Thread-id branch: r = tid + k, tested against zero. *)
                let fact =
                  match rget s r with
                  | Aff { b = Bzero; tc = 1; lo; hi } when lo = hi -> (
                      let n = -lo in
                      match (c, edge_taken) with
                      | Alpha.Insn.Eq, true | Alpha.Insn.Ne, false -> Some (Teq n)
                      | Alpha.Insn.Ne, true | Alpha.Insn.Eq, false -> Some (Tne n)
                      | _ -> None)
                  | _ -> None
                in
                match fact with
                | None -> Some s'
                | Some f -> (
                    match tid_meet s'.tid f with
                    | Some t ->
                        s'.tid <- t;
                        Some s'
                    | None -> None (* edge is dead for every thread *))
              in
              List.concat
                [
                  (match refine true with Some s' -> [ (taken_b, s') ] | None -> []);
                  (match refine false with Some s' -> [ (fall_b, s') ] | None -> []);
                ])
      | _ -> List.map (fun succ -> (succ, s)) blk.Cfg.succs
    in
    (edges, Some s)

let is_exit_block (cfg : Cfg.t) (blk : Cfg.block) =
  blk.Cfg.succs = []
  &&
  match cfg.Cfg.proc.Alpha.Program.code.(blk.Cfg.last) with
  | Alpha.Insn.Ret -> true
  | Alpha.Insn.Halt -> false (* halting never returns to a caller *)
  | Alpha.Insn.Br _ | Alpha.Insn.Bcond _ -> false
  | _ -> true (* falling off the end returns *)

(* One intra-procedural pass from the procedure's current entry state.
   Entry/exit growth is recorded in [ctx.dirty].  When [record] is set,
   the converged block-in states are walked once more with atom
   collection on — each block exactly once, so no duplicates. *)
let analyze_proc ctx cfgs ~record name =
  match Hashtbl.find_opt ctx.entry_states name with
  | None -> ()
  | Some e ->
      let cfg : Cfg.t = List.assoc name cfgs in
      let block_in =
        Cfg.forward cfg ~entry:(copy_rstate e)
          ~flow:(fun b sin ->
            let blk = Cfg.block cfg b in
            let edges, out = walk_block ctx cfg blk sin in
            (match out with
            | Some s when is_exit_block cfg blk -> (
                match Hashtbl.find_opt ctx.exit_states name with
                | Some ex -> if join_rstate ex s then ctx.dirty <- true
                | None ->
                    Hashtbl.replace ctx.exit_states name (copy_rstate s);
                    ctx.dirty <- true)
            | _ -> ());
            edges)
          ~merge:(fun cur s ->
            match cur with
            | None -> Some (copy_rstate s)
            | Some dst -> if join_rstate dst s then Some dst else None)
      in
      if record then begin
        ctx.collect <- true;
        Array.iteri
          (fun b sin ->
            match sin with
            | Some sin -> ignore (walk_block ctx cfg (Cfg.block cfg b) sin)
            | None -> ())
          block_in;
        ctx.collect <- false
      end

let analyze ~nprocs (program : Alpha.Program.t) =
  let cfgs =
    List.map
      (fun (p : Alpha.Program.procedure) -> (p.Alpha.Program.name, Cfg.build p))
      (Alpha.Program.procedures program)
  in
  let ctx =
    {
      program;
      entry_states = Hashtbl.create 8;
      exit_states = Hashtbl.create 8;
      sync_addrs = Hashtbl.create 8;
      atoms = [];
      unresolved = 0;
      collect = false;
      dirty = false;
    }
  in
  Hashtbl.replace ctx.entry_states "main" (entry_rstate ());
  (* Joins only widen, and every per-register/lock/phase component sits
     in a finite-height lattice, so this converges; the round cap is a
     pure safety net. *)
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < 64 do
    incr rounds;
    ctx.dirty <- false;
    List.iter (fun (n, _) -> analyze_proc ctx cfgs ~record:false n) cfgs;
    continue_ := ctx.dirty
  done;
  (* Final pass over the converged states, recording atoms. *)
  List.iter (fun (n, _) -> analyze_proc ctx cfgs ~record:true n) cfgs;
  let atoms = List.rev ctx.atoms in
  (* Race enumeration, including an atom against itself on two threads. *)
  let arr = Array.of_list atoms in
  let witness a b =
    let result = ref None in
    for t = 0 to nprocs - 1 do
      for t' = 0 to nprocs - 1 do
        if !result = None && t <> t' && tid_ok a.at_tid t && tid_ok b.at_tid t' then begin
          let ra_lo = sat_add (a.at_acc.ac_tc * t) a.at_acc.ac_lo in
          let ra_hi =
            sat_add (sat_add (a.at_acc.ac_tc * t) a.at_acc.ac_hi) (a.at_acc.ac_width - 1)
          in
          let rb_lo = sat_add (b.at_acc.ac_tc * t') b.at_acc.ac_lo in
          let rb_hi =
            sat_add (sat_add (b.at_acc.ac_tc * t') b.at_acc.ac_hi) (b.at_acc.ac_width - 1)
          in
          if ra_lo <= rb_hi && rb_lo <= ra_hi then result := Some (t, t')
        end
      done
    done;
    !result
  in
  let locks_in_common a b =
    List.exists (fun l -> lock_cross_thread l && List.mem l b.at_locks) a.at_locks
  in
  let races = ref [] in
  for i = 0 to Array.length arr - 1 do
    for j = i to Array.length arr - 1 do
      let a = arr.(i) and b = arr.(j) in
      if
        (a.at_write || b.at_write)
        && a.at_acc.ac_arg = b.at_acc.ac_arg
        && (not (locks_in_common a b))
        && phases_may_coincide a.at_phase b.at_phase
      then
        match witness a b with
        | Some (t, t') ->
            let why =
              Format.asprintf "no common lock; phases %a and %a may coincide" pp_phase
                a.at_phase pp_phase b.at_phase
            in
            races := { r_a = a; r_b = b; r_t = t; r_t' = t'; r_why = why } :: !races
        | None -> ()
    done
  done;
  {
    rep_atoms = atoms;
    rep_unresolved = ctx.unresolved;
    rep_races = List.rev !races;
  }

let pp_race ppf r =
  Format.fprintf ppf "RACE threads %d/%d:@,  %a@,  %a@,  %s" r.r_t r.r_t' pp_atom r.r_a
    pp_atom r.r_b r.r_why
