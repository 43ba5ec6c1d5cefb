(* Property tests for the region layout layer (Section 2.1).

   A random layout is an ordered list of 1-5 regions with power-of-two
   block sizes in 32..4096 and sizes that are small multiples of the
   block; the properties pin down the address map the whole protocol
   depends on:

   - block_of_addr / block_base / block_len round-trip: every address
     falls inside the extent of the block it maps to;
   - the blocks tile the segment exactly — no gaps, no overlap;
   - a region boundary never splits a block;
   - with a single uniform 64-byte region, block_of_addr is
     bit-identical to the historical fixed-line map (addr - base) / 64;
   - over 1-6 regions, the lookups computed from the region list agree
     with the paper's per-chunk block-number table, rebuilt here as an
     oracle, and an address outside the segment raises. *)

module L = Protocol.Layout

let base = 0x40000000

let spec_gen =
  QCheck.Gen.(
    let region =
      let* shift = int_range 5 12 in
      let block = 1 lsl shift in
      let* mult = int_range 1 8 in
      return { L.rs_name = "r"; rs_size = mult * block; rs_block = block }
    in
    let* n = int_range 1 5 in
    let* specs = list_size (return n) region in
    return (List.mapi (fun i s -> { s with L.rs_name = Printf.sprintf "r%d" i }) specs))

let print_specs specs =
  String.concat ","
    (List.map (fun s -> Printf.sprintf "%s=%d:%d" s.L.rs_name s.L.rs_size s.L.rs_block) specs)

let arb_specs = QCheck.make ~print:print_specs spec_gen

let layout_of specs =
  let size = List.fold_left (fun a s -> a + s.L.rs_size) 0 specs in
  L.create ~base ~size specs

let qcheck_roundtrip =
  QCheck.Test.make ~name:"block_of_addr round-trips through the block extent" ~count:300
    arb_specs (fun specs ->
      let t = layout_of specs in
      let ok = ref true in
      for addr = base to base + L.size t - 1 do
        let b = L.block_of_addr t addr in
        let lo = L.block_base t b and len = L.block_len t b in
        if not (L.valid_block t b && addr >= lo && addr < lo + len) then ok := false
      done;
      !ok)

let qcheck_exact_tiling =
  QCheck.Test.make ~name:"blocks tile the segment exactly" ~count:300 arb_specs (fun specs ->
      let t = layout_of specs in
      (* Walking block extents from [base] must visit every block id
         once, in order, and land exactly on the end of the segment. *)
      let addr = ref base and b = ref 0 in
      let ok = ref true in
      while !addr < base + L.size t do
        if L.block_of_addr t !addr <> !b || L.block_base t !b <> !addr then ok := false;
        addr := !addr + L.block_len t !b;
        incr b
      done;
      !ok && !b = L.n_blocks t && !addr = base + L.size t)

let qcheck_no_boundary_split =
  QCheck.Test.make ~name:"region boundaries never split a block" ~count:300 arb_specs
    (fun specs ->
      let t = layout_of specs in
      let ok = ref true in
      for ri = 0 to L.n_regions t - 1 do
        let { L.r_base; r_size; _ } = L.region t ri in
        (* First and last byte of the region must map to blocks wholly
           inside it. *)
        let b0 = L.block_of_addr t r_base and b1 = L.block_of_addr t (r_base + r_size - 1) in
        if L.block_base t b0 <> r_base then ok := false;
        if L.block_base t b1 + L.block_len t b1 <> r_base + r_size then ok := false;
        if L.block_region t b0 <> ri || L.block_region t b1 <> ri then ok := false
      done;
      !ok)

let qcheck_uniform64_pin =
  QCheck.Test.make ~name:"uniform 64B layout matches the fixed-line map" ~count:300
    QCheck.(pair (int_range 1 64) small_nat)
    (fun (lines, off) ->
      let size = 64 * lines in
      let t = L.uniform ~base ~size ~block:64 () in
      let addr = base + (off mod size) in
      let b = L.block_of_addr t addr in
      b = (addr - base) / 64
      && L.block_base t b = base + (64 * b)
      && L.block_len t b = 64
      && L.n_blocks t = lines)

(* The per-chunk tabulation the layout used to build, rebuilt here as an
   oracle for the arithmetic lookups: one entry per chunk (the smallest
   block size) naming its block, and per block its base, length and
   region, filled by walking the regions in order. *)
type oracle = {
  o_chunk : int;
  o_chunk_block : int array;
  o_base : int array;
  o_len : int array;
  o_region : int array;
}

let oracle_of specs =
  let chunk = List.fold_left (fun a s -> min a s.L.rs_block) max_int specs in
  let size = List.fold_left (fun a s -> a + s.L.rs_size) 0 specs in
  let n = List.fold_left (fun a s -> a + (s.L.rs_size / s.L.rs_block)) 0 specs in
  let o =
    {
      o_chunk = chunk;
      o_chunk_block = Array.make (size / chunk) (-1);
      o_base = Array.make n 0;
      o_len = Array.make n 0;
      o_region = Array.make n 0;
    }
  in
  let addr = ref base and id = ref 0 in
  List.iteri
    (fun ri s ->
      for _ = 1 to s.L.rs_size / s.L.rs_block do
        o.o_base.(!id) <- !addr;
        o.o_len.(!id) <- s.L.rs_block;
        o.o_region.(!id) <- ri;
        for c = 0 to (s.L.rs_block / chunk) - 1 do
          o.o_chunk_block.(((!addr - base) / chunk) + c) <- !id
        done;
        addr := !addr + s.L.rs_block;
        incr id
      done)
    specs;
  o

let spec_gen6 =
  QCheck.Gen.(
    let region =
      let* shift = int_range 5 12 in
      let* mult = int_range 1 8 in
      return { L.rs_name = "r"; rs_size = mult lsl shift; rs_block = 1 lsl shift }
    in
    let* n = int_range 1 6 in
    list_size (return n) region)

let qcheck_matches_tabulation =
  QCheck.Test.make ~name:"arithmetic lookups match the per-chunk tabulation" ~count:300
    (QCheck.make
       ~print:(fun (specs, _) -> print_specs specs)
       QCheck.Gen.(pair spec_gen6 (list_size (return 64) nat)))
    (fun (specs, picks) ->
      let t = layout_of specs and o = oracle_of specs in
      let size = L.size t in
      let expect addr =
        let b = o.o_chunk_block.((addr - base) / o.o_chunk) in
        L.block_of_addr t addr = b
        && L.block_base t b = o.o_base.(b)
        && L.block_len t b = o.o_len.(b)
        && L.block_region t b = o.o_region.(b)
      in
      let raises f x = match f x with _ -> false | exception Invalid_argument _ -> true in
      (* Every block's first and last byte, then random addresses. *)
      let boundaries =
        Array.for_all (fun lo -> expect lo) o.o_base
        && Array.for_all2 (fun lo len -> expect (lo + len - 1)) o.o_base o.o_len
      in
      boundaries
      && List.for_all (fun k -> expect (base + (k mod size))) picks
      && L.n_blocks t = Array.length o.o_base
      && List.for_all (raises (L.block_of_addr t)) [ base - 1; base + size; base + size + 4096 ]
      && List.for_all (raises (L.block_base t)) [ -1; L.n_blocks t ])

(* Spec-string parser: the CLI syntax round-trips into the same layout. *)
let test_spec_parse () =
  let size = 1024 * 1024 in
  let specs = L.specs_of_spec ~size "fine=64k:64,bulk=*:512" in
  (match specs with
  | [ a; b ] ->
      Alcotest.(check string) "name" "fine" a.L.rs_name;
      Alcotest.(check int) "fine size" (64 * 1024) a.L.rs_size;
      Alcotest.(check int) "fine block" 64 a.L.rs_block;
      Alcotest.(check string) "name" "bulk" b.L.rs_name;
      Alcotest.(check int) "star takes remainder" (size - (64 * 1024)) b.L.rs_size;
      Alcotest.(check int) "bulk block" 512 b.L.rs_block
  | l -> Alcotest.failf "expected 2 regions, got %d" (List.length l));
  let uni = L.specs_of_spec ~size "256" in
  (match uni with
  | [ r ] ->
      Alcotest.(check int) "uniform covers segment" size r.L.rs_size;
      Alcotest.(check int) "uniform block" 256 r.L.rs_block
  | l -> Alcotest.failf "expected 1 region, got %d" (List.length l));
  Alcotest.check_raises "bad block size rejected"
    (Invalid_argument "Layout: region 0 (shared): block size 48 is not a power of two")
    (fun () -> ignore (L.create ~base ~size (L.specs_of_spec ~size "48")));
  List.iter
    (fun (spec, msg) ->
      Alcotest.check_raises spec (Invalid_argument msg) (fun () ->
          ignore (L.specs_of_spec ~size spec)))
    [
      (":", "Layout.of_spec: bad size \"\"");
      ("a=:64", "Layout.of_spec: bad size \"\"");
      (",64:64", "Layout.of_spec: expected [NAME=]SIZE:BLOCK, got \"\"");
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_exact_tiling;
    QCheck_alcotest.to_alcotest qcheck_no_boundary_split;
    QCheck_alcotest.to_alcotest qcheck_uniform64_pin;
    QCheck_alcotest.to_alcotest qcheck_matches_tabulation;
    Alcotest.test_case "spec string parsing" `Quick test_spec_parse;
  ]
