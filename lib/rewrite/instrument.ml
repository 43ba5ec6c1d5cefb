(** The binary rewriter: inserts Shasta's inline code into a program.

    This is the ATOM-based phase of the paper (Sections 2.2, 3.1.2,
    3.2.3).  Passes, per procedure:

    + pointer-class dataflow ({!Dataflow}) to skip checks for accesses
      that are provably to private (stack/static) memory;
    + LL/SC sequence recognition: a store-conditional dominated by a
      unique load-locked to the same address with no intervening memory
      operations gets the efficient [Ll_check]/[Sc_check] treatment, a
      poll-free success path, and (optionally) a [Prefetch_excl] hoisted
      before the enclosing loop;
    + miss-check insertion: loads get the flag-technique [Load_check]
      after the load (3 slots); stores get a [Store_check] before (7
      slots); float loads and loads that overwrite their own base
      register use a state-table check instead;
    + batching: runs of nearby checked accesses within a basic block are
      covered by one [Batch_check];
    + polls before every loop backedge;
    + [Mb_check] after every memory barrier. *)

type options = {
  flag_loads : bool;  (** use the invalid-flag technique for load checks *)
  batching : bool;
  polls : bool;
  prefetch_ll_sc : bool;
  granularity_table : bool;
      (** layouts with mixed block sizes: state-table checks are
          preceded by a block-number table lookup (Section 2.1); flag
          loads are unaffected (the flag is read from the data itself) *)
  redundant_elim : bool;
      (** run {!Optimize} over the instrumented code: inter-block
          redundant-check elimination plus loop-invariant check
          hoisting, re-validated by {!Verify} *)
}

let default_options =
  {
    flag_loads = true;
    batching = true;
    polls = true;
    prefetch_ll_sc = true;
    granularity_table = false;
    redundant_elim = false;
  }

type stats = {
  mutable procedures : int;
  mutable orig_slots : int;
  mutable new_slots : int;
  mutable loads_checked : int;
  mutable stores_checked : int;
  mutable accesses_private : int;
  mutable batches : int;
  mutable batched_accesses : int;
  mutable polls_inserted : int;
  mutable mb_checks_inserted : int;
  mutable llsc_pairs : int;
  mutable prefetches : int;
  mutable gran_lookups : int;
  mutable checks_eliminated : int;  (** redundant checks/entries removed by {!Optimize} *)
  mutable checks_hoisted : int;  (** loop-invariant checks moved to preheaders *)
}

let empty_stats () =
  {
    procedures = 0;
    orig_slots = 0;
    new_slots = 0;
    loads_checked = 0;
    stores_checked = 0;
    accesses_private = 0;
    batches = 0;
    batched_accesses = 0;
    polls_inserted = 0;
    mb_checks_inserted = 0;
    llsc_pairs = 0;
    prefetches = 0;
    gran_lookups = 0;
    checks_eliminated = 0;
    checks_hoisted = 0;
  }

(** [code_growth s] is the fractional static code-size increase,
    e.g. [0.58] for the ~58% growth Table 3 reports for SPLASH-2. *)
let code_growth s =
  if s.orig_slots = 0 then 0.0
  else float_of_int (s.new_slots - s.orig_slots) /. float_of_int s.orig_slots

(* A pending check attached to an instruction index. *)
type check =
  | After_load of Alpha.Insn.width * Alpha.Insn.reg * int * Alpha.Insn.reg
  | Before_state of Alpha.Insn.batch_entry  (* single-entry state-table check *)
  | Before_store of Alpha.Insn.width * int * Alpha.Insn.reg

let is_memory_insn = function
  | Alpha.Insn.Ld _ | Alpha.Insn.St _ | Alpha.Insn.Ldf _ | Alpha.Insn.Stf _ | Alpha.Insn.Ll _
  | Alpha.Insn.Sc _ ->
      true
  | _ -> false

let written_regs = function
  | Alpha.Insn.Binop (_, _, _, d) -> [ d ]
  | Alpha.Insn.Li (r, _) -> [ r ]
  | Alpha.Insn.Ld (_, d, _, _) | Alpha.Insn.Ll (_, d, _, _) -> [ d ]
  | Alpha.Insn.Sc (_, r, _, _) -> [ r ]
  | Alpha.Insn.Cvt_fi (_, r) -> [ r ]
  | Alpha.Insn.Fcmp (_, _, _, r) -> [ r ]
  | _ -> []

(* Recognize LL/SC sequences: for an LL at [i], find an SC at [j > i] to
   the same (offset, base) with no intervening memory operation, MB or
   call.  Conditional branches between are allowed (failure exits). *)
let find_llsc_pairs code =
  let n = Array.length code in
  let pairs = ref [] in
  for i = 0 to n - 1 do
    match code.(i) with
    | Alpha.Insn.Ll (_, _, off, base) ->
        let rec scan j =
          if j >= n || j - i > 16 then None
          else
            match code.(j) with
            | Alpha.Insn.Sc (w, r, off', base') ->
                if off' = off && base' = base then Some (j, w, r) else None
            | insn ->
                if is_memory_insn insn then None
                else (
                  match insn with
                  | Alpha.Insn.Mb | Alpha.Insn.Call _ | Alpha.Insn.Ret | Alpha.Insn.Halt
                  | Alpha.Insn.Br _ ->
                      None
                  | _ -> scan (j + 1))
        in
        (match scan (i + 1) with
        | Some (j, w, r) -> pairs := (i, j, w, r, off, base) :: !pairs
        | None -> ())
    | _ -> ()
  done;
  List.rev !pairs

let instrument_procedure ~options ~stats (proc : Alpha.Program.procedure) =
  let code = proc.Alpha.Program.code in
  let n = Array.length code in
  let cfg = Cfg.build proc in
  let before = Dataflow.analyze cfg in
  let pre_label = Array.make (n + 1) [] in
  let pre = Array.make n [] in
  let post = Array.make n [] in
  let pairs = find_llsc_pairs code in
  let in_llsc_range i = List.exists (fun (a, b, _, _, _, _) -> i > a && i <= b) pairs in
  (* With mixed block sizes a state-table check must first look up the
     block number: [gran off base] is that table-load sequence (or
     nothing under a uniform layout, where a shift suffices). *)
  let gran off base =
    if options.granularity_table then begin
      stats.gran_lookups <- stats.gran_lookups + 1;
      [ Alpha.Insn.Gran_lookup (off, base) ]
    end
    else []
  in
  (* Pass 1: decide per-access checks. *)
  let checks : (int, check) Hashtbl.t = Hashtbl.create 16 in
  let cls_at i r = before.(i).Dataflow.ints.(r) in
  for i = 0 to n - 1 do
    match code.(i) with
    | Alpha.Insn.Ld (w, d, off, base) ->
        if cls_at i base = Dataflow.Private then stats.accesses_private <- stats.accesses_private + 1
        else begin
          stats.loads_checked <- stats.loads_checked + 1;
          if options.flag_loads && d <> base then
            Hashtbl.replace checks i (After_load (w, d, off, base))
          else
            Hashtbl.replace checks i
              (Before_state
                 { Alpha.Insn.b_width = w; b_kind = Alpha.Insn.Load_acc; b_off = off; b_base = base })
        end
    | Alpha.Insn.Ldf (_, off, base) ->
        if cls_at i base = Dataflow.Private then stats.accesses_private <- stats.accesses_private + 1
        else begin
          stats.loads_checked <- stats.loads_checked + 1;
          Hashtbl.replace checks i
            (Before_state
               {
                 Alpha.Insn.b_width = Alpha.Insn.W64;
                 b_kind = Alpha.Insn.Load_acc;
                 b_off = off;
                 b_base = base;
               })
        end
    | Alpha.Insn.St (w, _, off, base) ->
        if cls_at i base = Dataflow.Private then stats.accesses_private <- stats.accesses_private + 1
        else begin
          stats.stores_checked <- stats.stores_checked + 1;
          Hashtbl.replace checks i (Before_store (w, off, base))
        end
    | Alpha.Insn.Stf (_, off, base) ->
        if cls_at i base = Dataflow.Private then stats.accesses_private <- stats.accesses_private + 1
        else begin
          stats.stores_checked <- stats.stores_checked + 1;
          Hashtbl.replace checks i (Before_store (Alpha.Insn.W64, off, base))
        end
    | Alpha.Insn.Ll (_, _, off, base) ->
        (* LL always needs a readable line; the check also records the
           observed state for the following SC. *)
        pre.(i) <- pre.(i) @ gran off base @ [ Alpha.Insn.Ll_check (off, base) ]
    | Alpha.Insn.Sc (w, r, off, base) ->
        pre.(i) <- pre.(i) @ gran off base @ [ Alpha.Insn.Sc_check (w, r, off, base) ]
    | Alpha.Insn.Mb ->
        post.(i) <- post.(i) @ [ Alpha.Insn.Mb_check ];
        stats.mb_checks_inserted <- stats.mb_checks_inserted + 1
    | _ -> ()
  done;
  stats.llsc_pairs <- stats.llsc_pairs + List.length pairs;
  (* Pass 2: batching within basic blocks. *)
  if options.batching then
    Array.iter
      (fun blk ->
        let run : (int * Alpha.Insn.batch_entry) list ref = ref [] in
        let written = Hashtbl.create 8 in
        let flush_run () =
          (match !run with
          | [] | [ _ ] -> () (* batches need at least two accesses *)
          | members ->
              let members = List.rev members in
              let first_idx = fst (List.hd members) in
              let entries = List.map snd members in
              (* Drop the individual checks; install one batch check. *)
              List.iter (fun (idx, _) -> Hashtbl.remove checks idx) members;
              let e0 = List.hd entries in
              pre.(first_idx) <-
                pre.(first_idx)
                @ gran e0.Alpha.Insn.b_off e0.Alpha.Insn.b_base
                @ [ Alpha.Insn.Batch_check entries ];
              stats.batches <- stats.batches + 1;
              stats.batched_accesses <- stats.batched_accesses + List.length members);
          run := [];
          Hashtbl.reset written
        in
        for i = blk.Cfg.first to blk.Cfg.last do
          let insn = code.(i) in
          let entry_of_check = function
            | After_load (w, _, off, base) ->
                Some { Alpha.Insn.b_width = w; b_kind = Alpha.Insn.Load_acc; b_off = off; b_base = base }
            | Before_state e -> Some e
            | Before_store (w, off, base) ->
                Some { Alpha.Insn.b_width = w; b_kind = Alpha.Insn.Store_acc; b_off = off; b_base = base }
          in
          (match Hashtbl.find_opt checks i with
          | Some chk -> (
              match entry_of_check chk with
              | Some e ->
                  if Hashtbl.mem written e.Alpha.Insn.b_base then begin
                    (* Base register was clobbered since the run began:
                       the batch check could not compute this address. *)
                    flush_run ();
                    run := [ (i, e) ]
                  end
                  else run := (i, e) :: !run
              | None -> ())
          | None ->
              (* Non-checked instructions may sit inside a run unless they
                 are barriers for batching. *)
              (match insn with
              | Alpha.Insn.Call _ | Alpha.Insn.Mb | Alpha.Insn.Ll _ | Alpha.Insn.Sc _
              | Alpha.Insn.Ret | Alpha.Insn.Halt ->
                  flush_run ()
              | _ -> ()));
          List.iter (fun r -> Hashtbl.replace written r ()) (written_regs insn)
        done;
        flush_run ())
      cfg.Cfg.blocks;
  (* Materialise remaining individual checks. *)
  Hashtbl.iter
    (fun i chk ->
      match chk with
      | After_load (w, d, off, base) -> post.(i) <- Alpha.Insn.Load_check (w, d, off, base) :: post.(i)
      | Before_state e ->
          pre.(i) <-
            gran e.Alpha.Insn.b_off e.Alpha.Insn.b_base @ (Alpha.Insn.Batch_check [ e ] :: pre.(i))
      | Before_store (w, off, base) ->
          pre.(i) <- gran off base @ (Alpha.Insn.Store_check (w, off, base) :: pre.(i)))
    checks;
  (* Pass 3: polls at loop backedges.  A poll must not sit in the
     LL->SC success path (Section 3.1.2), so for backedges inside an
     LL/SC range the poll moves to the top of the loop body (before the
     LL), which still runs on every spin iteration. *)
  if options.polls then begin
    let polled_tops = Hashtbl.create 4 in
    List.iter
      (fun (i, tgt) ->
        if in_llsc_range i then begin
          if not (Hashtbl.mem polled_tops tgt) then begin
            Hashtbl.replace polled_tops tgt ();
            pre.(tgt) <- (Alpha.Insn.Poll :: pre.(tgt));
            stats.polls_inserted <- stats.polls_inserted + 1
          end
        end
        else begin
          (* The poll goes in front of any checks pending at the branch:
             a poll can service an invalidation, so a check that ran
             before it would prove nothing about the access it guards. *)
          pre.(i) <- Alpha.Insn.Poll :: pre.(i);
          stats.polls_inserted <- stats.polls_inserted + 1
        end)
      (Cfg.backedges cfg)
  end;
  (* Pass 4: hoist a prefetch-exclusive before loops containing LL/SC. *)
  if options.prefetch_ll_sc then
    List.iter
      (fun (ll_i, sc_j, _w, _r, off, base) ->
        let enclosing =
          List.filter (fun (br, tgt) -> br >= sc_j && tgt <= ll_i) (Cfg.backedges cfg)
        in
        (* innermost loop = largest target index *)
        let innermost =
          List.fold_left
            (fun acc (_, tgt) -> match acc with Some t when t >= tgt -> acc | _ -> Some tgt)
            None enclosing
        in
        match innermost with
        | None -> ()
        | Some header ->
            (* Only safe if the base register is not redefined inside the
               loop before the LL. *)
            let clobbered = ref false in
            for k = header to ll_i - 1 do
              if List.mem base (written_regs code.(k)) then clobbered := true
            done;
            if not !clobbered then begin
              pre_label.(header) <- pre_label.(header) @ [ Alpha.Insn.Prefetch_excl (off, base) ];
              stats.prefetches <- stats.prefetches + 1
            end)
      pairs;
  (* Reconstruct the instruction list with labels. *)
  let labels_at = Hashtbl.create 16 in
  Hashtbl.iter
    (fun l i ->
      let existing = Option.value (Hashtbl.find_opt labels_at i) ~default:[] in
      Hashtbl.replace labels_at i (l :: existing))
    proc.Alpha.Program.labels;
  let out = ref [] in
  let emit x = out := x :: !out in
  for i = 0 to n do
    List.iter emit pre_label.(i);
    (match Hashtbl.find_opt labels_at i with
    | Some ls -> List.iter (fun l -> emit (Alpha.Insn.Label l)) (List.sort compare ls)
    | None -> ());
    if i < n then begin
      List.iter emit pre.(i);
      emit code.(i);
      List.iter emit post.(i)
    end
  done;
  let out = List.rev !out in
  if not options.redundant_elim then out
  else begin
    let name = proc.Alpha.Program.name in
    let r = Optimize.run ~gran:options.granularity_table ~name out in
    stats.checks_eliminated <- stats.checks_eliminated + r.Optimize.eliminated;
    stats.checks_hoisted <- stats.checks_hoisted + r.Optimize.hoisted;
    (* The optimizer may never ship an uncovered access: re-validate. *)
    let scratch = Alpha.Program.create () in
    let p' = Alpha.Program.add_procedure scratch ~name r.Optimize.insns in
    let rep = Verify.verify_procedure p' in
    (match rep.Verify.r_diags with
    | [] -> ()
    | d :: _ -> raise (Verify.Uncovered_access d));
    r.Optimize.insns
  end

(** [instrument ?options program] returns the instrumented program and
    the static statistics of the rewrite. *)
let instrument ?(options = default_options) (program : Alpha.Program.t) =
  let stats = empty_stats () in
  stats.orig_slots <- Alpha.Program.size_in_slots program;
  let program' =
    Alpha.Program.map_procedures program (fun proc ->
        stats.procedures <- stats.procedures + 1;
        instrument_procedure ~options ~stats proc)
  in
  stats.new_slots <- Alpha.Program.size_in_slots program';
  (program', stats)

(** Per-pass statistics in a stable, golden-testable layout. *)
let pp_stats ppf s =
  Format.fprintf ppf
    "procedures          %d@\n\
     code slots          %d -> %d (+%.0f%%)@\n\
     load checks         %d@\n\
     store checks        %d@\n\
     private accesses    %d (no check)@\n\
     batches             %d covering %d accesses@\n\
     polls               %d@\n\
     mb checks           %d@\n\
     ll/sc pairs         %d@\n\
     prefetches          %d@\n\
     gran lookups        %d@\n\
     checks eliminated   %d@\n\
     checks hoisted      %d"
    s.procedures s.orig_slots s.new_slots
    (100.0 *. code_growth s)
    s.loads_checked s.stores_checked s.accesses_private s.batches s.batched_accesses
    s.polls_inserted s.mb_checks_inserted s.llsc_pairs s.prefetches s.gran_lookups
    s.checks_eliminated s.checks_hoisted

(** Model of the code-modification time of Section 6.3: a fixed
    executable read/write cost plus per-procedure dataflow and insertion
    costs, calibrated so that ~370 procedures take ~5 s and Oracle's
    12000+ take ~200 s. *)
let modification_time_model ~procedures ~slots =
  let io = 3.0 +. (float_of_int slots *. 1.5e-6) in
  let dataflow = float_of_int procedures *. 8.6e-3 in
  let insertion = float_of_int procedures *. 6.0e-3 in
  io +. dataflow +. insertion
