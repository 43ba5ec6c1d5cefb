(** Region layout of the shared address space (Section 2.1).

    Shasta supports a different coherence granularity for different
    ranges of the shared address space: the region table below carves
    the shared segment into an ordered list of {e regions}, each with
    its own power-of-two block size.  The paper compiles such a list
    into a per-chunk block-number table; here every lookup is computed
    from the region list instead: find the region (regions are few and
    ordered, and a uniform layout has one), then shift.  Nothing is
    sized by the segment, so a layout costs the same at 64 KB and at
    64 MB, and every lookup stays O(regions) with no division.

    Block ids are dense, 0 .. [n_blocks]-1, in address order; with a
    single uniform 64-byte region they coincide bit-for-bit with the
    historical fixed-line numbering [(addr - base) / 64]. *)

type region_spec = {
  rs_name : string;
  rs_size : int;  (** bytes; must be a multiple of [rs_block] *)
  rs_block : int;  (** power-of-two block size, 32..4096 (paper: 64-1024) *)
}

type region = {
  r_name : string;
  r_base : int;
  r_size : int;
  r_block : int;
  r_shift : int;  (** log2 [r_block] *)
  r_first_block : int;
  r_n_blocks : int;
}

type t = {
  base : int;
  size : int;
  chunk : int;  (** the smallest block size present *)
  regions : region array;  (** in address order, so in block-id order too *)
  n_blocks : int;
  shift : int;
      (** log2 of the block size when one region covers the segment, so
          that a block id is [(addr - base) lsr shift]; -1 for a mixed
          layout *)
}

let bad fmt = Printf.ksprintf invalid_arg fmt

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let min_block = 32
let max_block = 4096

let validate_spec i { rs_name; rs_size; rs_block } =
  if not (is_pow2 rs_block) then
    bad "Layout: region %d (%s): block size %d is not a power of two" i rs_name rs_block;
  if rs_block < min_block || rs_block > max_block then
    bad "Layout: region %d (%s): block size %d outside %d..%d" i rs_name rs_block min_block
      max_block;
  if rs_size <= 0 || rs_size mod rs_block <> 0 then
    bad "Layout: region %d (%s): size %d is not a positive multiple of block %d" i rs_name
      rs_size rs_block

(** [create ~base ~size specs] places an ordered region list in the
    segment.  The regions must tile [base, base+size) exactly. *)
let create ~base ~size specs =
  if specs = [] then bad "Layout: empty region list";
  List.iteri validate_spec specs;
  let total = List.fold_left (fun a s -> a + s.rs_size) 0 specs in
  if total <> size then
    bad "Layout: regions cover %d bytes but the shared segment is %d" total size;
  let chunk = List.fold_left (fun a s -> min a s.rs_block) max_int specs in
  let cur = ref base and blk = ref 0 in
  let regions =
    Array.of_list
      (List.map
         (fun s ->
           let r =
             {
               r_name = s.rs_name;
               r_base = !cur;
               r_size = s.rs_size;
               r_block = s.rs_block;
               r_shift = log2 s.rs_block;
               r_first_block = !blk;
               r_n_blocks = s.rs_size / s.rs_block;
             }
           in
           cur := !cur + s.rs_size;
           blk := !blk + r.r_n_blocks;
           r)
         specs)
  in
  let shift = if Array.length regions = 1 then regions.(0).r_shift else -1 in
  { base; size; chunk; regions; n_blocks = !blk; shift }

let uniform ?(name = "shared") ~base ~size ~block () =
  create ~base ~size [ { rs_name = name; rs_size = size; rs_block = block } ]

let base t = t.base
let size t = t.size
let chunk t = t.chunk
let n_blocks t = t.n_blocks
let n_regions t = Array.length t.regions
let contains t addr = addr >= t.base && addr < t.base + t.size

(* The index of the last region whose first address is at most [addr]
   (or whose first block id is at most [b]): a backward scan, as
   regions are few. *)
let region_of_addr t addr =
  let i = ref (Array.length t.regions - 1) in
  while (Array.unsafe_get t.regions !i).r_base > addr do
    decr i
  done;
  !i

let region_of_block t b =
  let i = ref (Array.length t.regions - 1) in
  while (Array.unsafe_get t.regions !i).r_first_block > b do
    decr i
  done;
  !i

let block_of_addr t addr =
  let off = addr - t.base in
  if off < 0 || off >= t.size then
    bad "address 0x%x outside the shared region" addr;
  if t.shift >= 0 then off lsr t.shift
  else
    let r = t.regions.(region_of_addr t addr) in
    r.r_first_block + ((addr - r.r_base) lsr r.r_shift)

let valid_block t b = b >= 0 && b < t.n_blocks

let block_region t b =
  if not (valid_block t b) then bad "Layout: block %d outside 0..%d" b (t.n_blocks - 1);
  region_of_block t b

let block_base t b =
  let r = t.regions.(block_region t b) in
  r.r_base + ((b - r.r_first_block) lsl r.r_shift)

let block_len t b = t.regions.(block_region t b).r_block

let region t ri = t.regions.(ri)
let region_name t ri = t.regions.(ri).r_name

(** [region_matching t ~block] is the index of the region whose block
    size best matches a [?granularity] allocation hint: an exact match
    if one exists, otherwise the region closest in log2 distance
    (ties broken towards the earlier region).  Always succeeds — with
    a uniform layout every hint degrades to region 0. *)
let region_matching t ~block =
  let want = log2 (max 1 block) in
  let best = ref 0 and best_d = ref max_int in
  Array.iteri
    (fun i r ->
      let d = abs (r.r_shift - want) in
      if d < !best_d then begin
        best := i;
        best_d := d
      end)
    t.regions;
  !best

(** [iter_range t ~addr ~len f] applies [f] to every block id whose
    extent overlaps [addr, addr+len). *)
let iter_range t ~addr ~len f =
  if len > 0 then begin
    let b0 = block_of_addr t addr and b1 = block_of_addr t (addr + len - 1) in
    for b = b0 to b1 do
      f b
    done
  end

let blocks_of_range t ~addr ~len =
  let acc = ref [] in
  iter_range t ~addr ~len (fun b -> acc := b :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Spec parser, mirroring Fault.Plan.of_spec: either a bare block size
   ("256" = uniform), or comma-separated [NAME=]SIZE:BLOCK regions
   where SIZE accepts k/m suffixes and a final "*" takes the rest of
   the segment: "fine=1m:64,bulk=*:512". *)

let size_of s ~remaining =
  match String.lowercase_ascii (String.trim s) with
  | "*" -> remaining
  | "" -> bad "Layout.of_spec: bad size %S" s
  | t -> (
      let mult, digits =
        match t.[String.length t - 1] with
        | 'k' -> (1024, String.sub t 0 (String.length t - 1))
        | 'm' -> (1024 * 1024, String.sub t 0 (String.length t - 1))
        | _ -> (1, t)
      in
      match int_of_string_opt digits with
      | Some n -> n * mult
      | None -> bad "Layout.of_spec: bad size %S" s)

(** [specs_of_spec ~size spec] — parse a region-spec string into the
    list [Config.regions] wants; [size] resolves '*' and validates
    coverage only at {!create} time. *)
let specs_of_spec ~size spec =
  let spec = String.trim spec in
  if spec = "" then bad "Layout.of_spec: empty spec";
  match int_of_string_opt spec with
  | Some block -> [ { rs_name = "shared"; rs_size = size; rs_block = block } ]
  | None ->
      let parts = String.split_on_char ',' spec in
      let n = List.length parts in
      let used = ref 0 in
      let specs =
        List.mapi
          (fun i part ->
            let part = String.trim part in
            let name, body =
              match String.index_opt part '=' with
              | Some eq ->
                  ( String.sub part 0 eq,
                    String.sub part (eq + 1) (String.length part - eq - 1) )
              | None -> (Printf.sprintf "region%d" i, part)
            in
            match String.split_on_char ':' body with
            | [ sz; blk ] ->
                let remaining = size - !used in
                if sz = "*" && i <> n - 1 then
                  bad "Layout.of_spec: '*' size is only valid for the last region";
                let rs_size = size_of sz ~remaining in
                let rs_block =
                  match int_of_string_opt (String.trim blk) with
                  | Some b -> b
                  | None -> bad "Layout.of_spec: bad block size %S" blk
                in
                used := !used + rs_size;
                { rs_name = name; rs_size; rs_block }
            | _ -> bad "Layout.of_spec: expected [NAME=]SIZE:BLOCK, got %S" part)
          parts
      in
      specs

let spec_help =
  "BLOCK (uniform) or comma-separated [NAME=]SIZE:BLOCK regions; SIZE takes k/m \
   suffixes, '*' (last region) takes the remainder, e.g. 'fine=1m:64,bulk=*:512'"
