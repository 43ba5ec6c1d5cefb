(** Translation validation of the rewriter's miss checks.

    Proves, by forward abstract interpretation over the {e instrumented}
    code, that every shared [Ld]/[St]/[Ldf]/[Stf]/[Ll]/[Sc] is covered
    by a check of the right kind, width and address on {e every} path —
    the property Shasta's safety rests on (Sections 2.2, 3.1).

    The abstract domain is a set of {e availability facts}:

    - [Line {store; width; off; base}] — a state-table or flag check for
      the line(s) touched by the access at [base + off] has completed;
      a store-kind fact subsumes a load-kind one, a 64-bit fact subsumes
      a 32-bit one at the same address.
    - [Ll_ok {off; base}] — an [Ll_check] for [base + off] has run.
    - [Sc_ok {width; value; off; base}] — an [Sc_check] has run with the
      same width and value register as the [Sc] it guards.

    The kill rule is the heart of the validator: {e every} protocol
    entry point — [Poll], [Call], [Mb], [Mb_check], [Prefetch_excl] and
    every check pseudo-instruction itself — kills {e all} facts, because
    entering the protocol can service a pending invalidation and
    downgrade any line (a pre-poll check proves nothing about a
    post-poll access).  A write to a register kills the facts whose
    address depends on it.  Paths meet by intersection, so a fact
    survives a join only when every incoming path establishes it.

    A flag-technique load needs no prior fact: its [Load_check] sits
    immediately {e after} the load and re-fetches the data on a flag
    hit, so adjacency is what the validator requires (and checks). *)

module I = Alpha.Insn

type fact =
  | Line of { l_store : bool; l_width : I.width; l_off : int; l_base : I.reg }
  | Ll_ok of { ll_off : int; ll_base : I.reg }
  | Sc_ok of { sc_width : I.width; sc_value : I.reg; sc_off : int; sc_base : I.reg }

module FS = Set.Make (struct
  type t = fact

  let compare = Stdlib.compare
end)

(* --- transfer function --- *)

(** Instructions that may enter the protocol and service an
    invalidation: all availability is lost across them. *)
let kills_all = function
  | I.Poll | I.Call _ | I.Mb | I.Mb_check | I.Prefetch_excl _ | I.Ll _ | I.Sc _
  | I.Load_check _ | I.Store_check _ | I.Batch_check _ | I.Ll_check _ | I.Sc_check _ ->
      true
  | _ -> false

let gens = function
  | I.Load_check (w, _, off, base) ->
      [ Line { l_store = false; l_width = w; l_off = off; l_base = base } ]
  | I.Store_check (w, off, base) ->
      [ Line { l_store = true; l_width = w; l_off = off; l_base = base } ]
  | I.Batch_check es ->
      List.map
        (fun (e : I.batch_entry) ->
          Line
            {
              l_store = e.I.b_kind = I.Store_acc;
              l_width = e.I.b_width;
              l_off = e.I.b_off;
              l_base = e.I.b_base;
            })
        es
  | I.Ll_check (off, base) -> [ Ll_ok { ll_off = off; ll_base = base } ]
  | I.Sc_check (w, r, off, base) ->
      [ Sc_ok { sc_width = w; sc_value = r; sc_off = off; sc_base = base } ]
  | _ -> []

(* Integer registers written by an instruction, including the
   [Load_check] destination (a flag hit re-fetches into it). *)
let written_regs = function
  | I.Binop (_, _, _, d)
  | I.Li (d, _)
  | I.Ld (_, d, _, _)
  | I.Ll (_, d, _, _)
  | I.Sc (_, d, _, _)
  | I.Cvt_fi (_, d)
  | I.Fcmp (_, _, _, d)
  | I.Load_check (_, d, _, _) ->
      [ d ]
  | _ -> []

let kill_reg fs r =
  FS.filter
    (function
      | Line { l_base; _ } -> l_base <> r
      | Ll_ok { ll_base; _ } -> ll_base <> r
      | Sc_ok { sc_base; sc_value; _ } -> sc_base <> r && sc_value <> r)
    fs

let transfer fs insn =
  let fs = if kills_all insn then FS.empty else fs in
  let fs =
    List.fold_left (fun acc r -> if r = 31 then acc else kill_reg acc r) fs (written_regs insn)
  in
  List.fold_left (fun acc g -> FS.add g acc) fs (gens insn)

(* --- availability dataflow (forward, all-paths / intersection) --- *)

(** [analyze_avail cfg] — for every instruction index, the fact set
    available {e before} it, plus per-instruction reachability. *)
let analyze_avail (cfg : Cfg.t) =
  let code = cfg.Cfg.proc.Alpha.Program.code in
  let n = Array.length code in
  let block_in =
    Cfg.forward cfg ~entry:FS.empty
      ~flow:(fun b s0 ->
        let blk = Cfg.block cfg b in
        let s = ref s0 in
        for i = blk.Cfg.first to blk.Cfg.last do
          s := transfer !s code.(i)
        done;
        List.map (fun succ -> (succ, !s)) blk.Cfg.succs)
      ~merge:(fun cur s ->
        (* An unvisited block is top: its first state is taken as is. *)
        match cur with
        | None -> Some s
        | Some cur ->
            let inter = FS.inter cur s in
            if FS.equal inter cur then None else Some inter)
  in
  let before = Array.make n FS.empty in
  let reach = Array.make n false in
  Array.iteri
    (fun b sin ->
      match sin with
      | None -> ()
      | Some s0 ->
          let blk = Cfg.block cfg b in
          let s = ref s0 in
          for i = blk.Cfg.first to blk.Cfg.last do
            before.(i) <- !s;
            reach.(i) <- true;
            s := transfer !s code.(i)
          done)
    block_in;
  (before, reach)

(* --- coverage predicates --- *)

let width_ge a b = match (a, b) with I.W64, _ -> true | I.W32, I.W32 -> true | I.W32, I.W64 -> false

(** A [Line] fact covers an access when address, kind and width all
    agree: same (base, off), store facts subsume load needs, wider facts
    subsume narrower ones. *)
let line_covered fs ~store ~width ~off ~base =
  FS.exists
    (function
      | Line l ->
          l.l_base = base && l.l_off = off && width_ge l.l_width width && (l.l_store || not store)
      | _ -> false)
    fs

(* --- diagnostics --- *)

type diag = {
  d_proc : string;
  d_index : int;  (** instruction index in the instrumented procedure *)
  d_insn : string;  (** pretty-printed uncovered access *)
  d_reason : string;
}

exception Uncovered_access of diag

let pp_diag ppf d = Format.fprintf ppf "%s[%d]: %s — %s" d.d_proc d.d_index d.d_insn d.d_reason

(* Classify why coverage failed: scan back for the nearest check that
   generates a fact for the right address ([loose]); if its fact is also
   of the right kind/width ([full]), name the kill that invalidated it,
   or conclude it does not dominate the access. *)
let explain (code : I.t array) i ~base ~loose ~full =
  let rec back j =
    if j < 0 then None else if List.exists loose (gens code.(j)) then Some j else back (j - 1)
  in
  match back (i - 1) with
  | None -> "no check establishes coverage for this address on any path"
  | Some j ->
      if not (List.exists full (gens code.(j))) then
        Format.asprintf "nearest check at index %d (%a) has the wrong kind or width" j I.pp
          code.(j)
      else begin
        let killer = ref None in
        let k = ref (j + 1) in
        while !killer = None && !k < i do
          if kills_all code.(!k) then killer := Some (!k, true)
          else if List.mem base (written_regs code.(!k)) then killer := Some (!k, false);
          incr k
        done;
        match !killer with
        | Some (k, true) ->
            Format.asprintf
              "check at index %d is killed at index %d (%a): a protocol entry there can service \
               an invalidation before the access"
              j k I.pp code.(k)
        | Some (k, false) ->
            Format.asprintf "check at index %d uses base r%d, redefined at index %d (%a)" j base k
              I.pp code.(k)
        | None -> Format.asprintf "check at index %d does not dominate the access" j
      end

(* --- the validator --- *)

type report = {
  r_accesses : int;  (** shared accesses the validator had to cover *)
  r_diags : diag list;
}

let verify_procedure (proc : Alpha.Program.procedure) =
  let code = proc.Alpha.Program.code in
  let n = Array.length code in
  let cfg = Cfg.build proc in
  let avail, reach = analyze_avail cfg in
  let classes = Dataflow.analyze cfg in
  let accesses = ref 0 in
  let diags = ref [] in
  let diag i reason =
    diags :=
      {
        d_proc = proc.Alpha.Program.name;
        d_index = i;
        d_insn = Format.asprintf "%a" I.pp code.(i);
        d_reason = reason;
      }
      :: !diags
  in
  let private_base i base = classes.(i).Dataflow.ints.(base) = Dataflow.Private in
  let need_line i ~store ~width ~off ~base =
    incr accesses;
    if not (line_covered avail.(i) ~store ~width ~off ~base) then
      let loose = function
        | Line l -> l.l_base = base && l.l_off = off
        | _ -> false
      and full = function
        | Line l ->
            l.l_base = base && l.l_off = off && width_ge l.l_width width && (l.l_store || not store)
        | _ -> false
      in
      diag i (explain code i ~base ~loose ~full)
  in
  for i = 0 to n - 1 do
    if reach.(i) then
      match code.(i) with
      | I.Ld (w, d, off, base) when not (private_base i base) ->
          (* Covered either by an available fact or by the adjacent
             flag-technique check right after the load. *)
          let flagged =
            i + 1 < n
            &&
            match code.(i + 1) with
            | I.Load_check (w', d', off', base') -> w' = w && d' = d && off' = off && base' = base
            | _ -> false
          in
          if flagged then incr accesses
          else need_line i ~store:false ~width:w ~off ~base
      | I.Ldf (_, off, base) when not (private_base i base) ->
          need_line i ~store:false ~width:I.W64 ~off ~base
      | I.St (w, _, off, base) when not (private_base i base) ->
          need_line i ~store:true ~width:w ~off ~base
      | I.Stf (_, off, base) when not (private_base i base) ->
          need_line i ~store:true ~width:I.W64 ~off ~base
      | I.Ll (_, _, off, base) ->
          incr accesses;
          if
            not
              (FS.exists
                 (function Ll_ok l -> l.ll_off = off && l.ll_base = base | _ -> false)
                 avail.(i))
          then
            let loose = function Ll_ok l -> l.ll_off = off && l.ll_base = base | _ -> false in
            diag i (explain code i ~base ~loose ~full:loose)
      | I.Sc (w, r, off, base) ->
          incr accesses;
          if
            not
              (FS.exists
                 (function
                   | Sc_ok s ->
                       s.sc_off = off && s.sc_base = base && s.sc_width = w && s.sc_value = r
                   | _ -> false)
                 avail.(i))
          then
            let loose = function Sc_ok s -> s.sc_off = off && s.sc_base = base | _ -> false
            and full = function
              | Sc_ok s -> s.sc_off = off && s.sc_base = base && s.sc_width = w && s.sc_value = r
              | _ -> false
            in
            diag i (explain code i ~base ~loose ~full)
      | _ -> ()
  done;
  { r_accesses = !accesses; r_diags = List.rev !diags }

(** [verify program] — one report per procedure. *)
let verify (p : Alpha.Program.t) = List.map verify_procedure (Alpha.Program.procedures p)

let diags reports = List.concat_map (fun r -> r.r_diags) reports
let ok reports = List.for_all (fun r -> r.r_diags = []) reports
