(** Static affinity / false-sharing report.

    Groups the shared accesses found by {!Races} by the memory region
    each entry argument points at, and classifies every region's
    sharing pattern the way Section 5's granularity discussion does —
    statically, before any run:

    - {b partitioned} writes (per-thread addresses, [tc <> 0]): threads
      own disjoint slots at stride [|tc|].  If the region's coherence
      block is larger than the stride, two threads' slots share a block
      and every write ping-pongs it — false sharing; the fix is a block
      no larger than the stride.
    - {b migratory} data ([tc = 0] writes by unconstrained threads
      under a cross-thread lock): one block bounces between lock
      holders; a {!Protocol.Config.Migratory} homing policy moves the
      home with the current owner instead of paying remote upgrades
      forever.
    - {b read-mostly} regions (writes only by one pinned thread, e.g.
      a [tid = 0] initialiser, or none at all): safe to keep coarse —
      bigger blocks amortise the fetch per miss, exactly the "bulk"
      region of the granularity micro.

    Every hint carries the evidence (access counts, write stride, lock
    coverage) and the suggested {!Protocol.Layout.region_spec}, so a
    caller can feed the suggestions straight back into a
    {!Shasta.Config} and measure the difference — the dynamic
    cross-check lives in the benches. *)

type binding = {
  bd_arg : int;  (** entry-argument index the kernel addresses this region through *)
  bd_region : string;  (** region name in the layout under test *)
  bd_block : int;  (** the region's current coherence block size *)
  bd_size : int;  (** region size in bytes *)
}

type kind =
  | Partitioned  (** per-thread slots, stride >= block: no false sharing *)
  | False_sharing  (** per-thread slots smaller than the block *)
  | Migratory  (** lock-protected same-address writes by many threads *)
  | Read_mostly  (** written by at most one pinned thread *)
  | Untouched  (** no shared accesses resolved to this region *)
  | Mixed  (** write pattern fits no single template *)

let kind_name = function
  | Partitioned -> "partitioned"
  | False_sharing -> "false-sharing"
  | Migratory -> "migratory"
  | Read_mostly -> "read-mostly"
  | Untouched -> "untouched"
  | Mixed -> "mixed"

type hint = {
  h_region : string;
  h_arg : int;
  h_block : int;  (** current block size *)
  h_size : int;
  h_kind : kind;
  h_suggest : int;  (** suggested block size *)
  h_homing : Protocol.Config.homing option;  (** homing policy hint, if any *)
  h_reads : int;
  h_writes : int;
  h_stride : int;  (** min per-thread write stride; 0 = same-address writes *)
  h_locked_writes : int;  (** writes holding a cross-thread lock *)
}

(* Largest power of two <= stride, clamped to the layout's legal block
   range: the finest block that still keeps each thread's slot whole. *)
let block_for_stride stride =
  let rec pow2 p = if p * 2 <= stride then pow2 (p * 2) else p in
  let p = if stride <= 0 then Protocol.Layout.min_block else pow2 1 in
  min Protocol.Layout.max_block (max Protocol.Layout.min_block p)

let classify ~(binding : binding) (atoms : Races.atom list) =
  let mine = List.filter (fun (a : Races.atom) -> a.Races.at_acc.Races.ac_arg = binding.bd_arg) atoms in
  let reads = List.filter (fun (a : Races.atom) -> not a.Races.at_write) mine in
  let writes = List.filter (fun (a : Races.atom) -> a.Races.at_write) mine in
  let cross_locked (a : Races.atom) = List.exists Races.lock_cross_thread a.Races.at_locks in
  let pinned (a : Races.atom) = match a.Races.at_tid with Races.Teq _ -> true | _ -> false in
  let strides =
    List.filter_map
      (fun (a : Races.atom) ->
        let tc = abs a.Races.at_acc.Races.ac_tc in
        if tc > 0 then Some tc else None)
      writes
  in
  let stride = List.fold_left min max_int (max_int :: strides) in
  let stride = if stride = max_int then 0 else stride in
  let locked_writes = List.length (List.filter cross_locked writes) in
  let kind, suggest, homing =
    if mine = [] then (Untouched, binding.bd_block, None)
    else if writes = [] || List.for_all pinned writes then
      (* Written by nobody, or only by one pinned thread (an
         initialiser): reads dominate steady state, keep it coarse. *)
      (Read_mostly, max binding.bd_block 512, None)
    else if List.for_all (fun (a : Races.atom) -> abs a.Races.at_acc.Races.ac_tc > 0) writes
    then
      let b = block_for_stride stride in
      if binding.bd_block > stride then (False_sharing, b, None)
      else (Partitioned, binding.bd_block, None)
    else if
      List.for_all
        (fun (a : Races.atom) ->
          a.Races.at_acc.Races.ac_tc = 0 && (cross_locked a || pinned a))
        writes
      && locked_writes > 0
    then (Migratory, binding.bd_block, Some Protocol.Config.Migratory)
    else (Mixed, binding.bd_block, None)
  in
  {
    h_region = binding.bd_region;
    h_arg = binding.bd_arg;
    h_block = binding.bd_block;
    h_size = binding.bd_size;
    h_kind = kind;
    h_suggest = suggest;
    h_homing = homing;
    h_reads = List.length reads;
    h_writes = List.length writes;
    h_stride = stride;
    h_locked_writes = locked_writes;
  }

(** [report ~bindings races_report] — one hint per binding, from the
    already-computed race-analysis atoms. *)
let report ~bindings (r : Races.report) =
  List.map (fun b -> classify ~binding:b r.Races.rep_atoms) bindings

(** Hints as layout specs, ready for {!Protocol.Config.regions}. *)
let suggested_specs hints =
  List.map
    (fun h ->
      {
        Protocol.Layout.rs_name = h.h_region;
        Protocol.Layout.rs_size = h.h_size;
        Protocol.Layout.rs_block = h.h_suggest;
      })
    hints

let homing_name = function
  | Protocol.Config.Static -> "static"
  | Protocol.Config.Migratory -> "migratory"

let pp_hint ppf h =
  Format.fprintf ppf "%-10s a%d block %4d -> %4d  %-13s %dr/%dw stride %d%s%s" h.h_region
    h.h_arg h.h_block h.h_suggest (kind_name h.h_kind) h.h_reads h.h_writes h.h_stride
    (if h.h_locked_writes > 0 then Printf.sprintf " (%d locked)" h.h_locked_writes else "")
    (match h.h_homing with None -> "" | Some hm -> " homing=" ^ homing_name hm)
