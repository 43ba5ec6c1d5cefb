(** A coherence domain's copy of the shared address space, with the
    hardware LL/SC monitor.

    In Base-Shasta each process has an image; in SMP-Shasta the processes
    of a node share one, so plain loads and stores between them behave
    like hardware shared memory.  The image also implements the lock-flag
    semantics of the Alpha LL/SC pair (Section 3.1.1): a store by any
    {e other} process to a monitored block clears that monitor, as does an
    invalidation's flag write.

    All extents come from the {!Layout}: a monitor covers one coherence
    block, whose size depends on the region the address falls in.

    An image holds only a prefix of the segment: it starts empty and
    grows on first touch, by doubling and to a block end.  Bytes it
    gains read as {!Core.init} would have left them — the invalid flag,
    except zeros in the blocks Core's home rule ({!Homes}) places at
    this image's domain — so a set-up pays for the memory its run
    touches, and no reader can tell. *)

type monitor = {
  mon_pid : int;
  mutable mon_block : int;  (** the monitored block, or -1 when disarmed *)
}

type t = {
  layout : Layout.t;
  base : int;
  homes : Homes.t;
      (** Core's home rule, shared with it: the blocks a fresh extent
          zeroes instead of flagging *)
  dom : int;  (** the domain this image belongs to *)
  mutable data : Bytes.t;
      (** the segment's first [Bytes.length data] bytes, always ending
          at a block end; replaced as the image grows *)
  mutable monitors : monitor array;  (** one reusable slot per pid that ran an LL *)
  mutable armed : int;  (** armed slots: 0 is the store hit path's test *)
  mutable breaks : int;  (** monitors cleared; reset by the shell's wake-up *)
}

(** [create ~layout ~homes ~dom] — domain [dom]'s image, empty: it
    materializes as it is touched (see {!check}). *)
let create ~layout ~homes ~dom =
  {
    layout;
    base = Layout.base layout;
    homes;
    dom;
    data = Bytes.empty;
    monitors = [||];
    armed = 0;
    breaks = 0;
  }

let block_of t addr = Layout.block_of_addr t.layout addr

(** The per-4-byte-word invalid flag value (Section 2.2). *)
let flag32 = 0xDEADBEEFl

(* Lay out [lo, hi), two block boundaries of the held bytes, as
   {!Core.init} leaves a copy: the invalid flag in every word, written
   once and then doubled with [Bytes.blit], except zeros in the blocks
   whose static home is this domain. *)
let lay_out t ~lo ~hi =
  if hi > lo then begin
    let d = t.data in
    Bytes.set_int32_le d lo flag32;
    let filled = ref 4 in
    while !filled < hi - lo do
      let n = min !filled (hi - lo - !filled) in
      Bytes.blit d lo d (lo + !filled) n;
      filled := !filled + n
    done;
    Homes.iter_homed t.homes ~dom:t.dom
      ~lo:(block_of t (t.base + lo))
      ~hi:(block_of t (t.base + hi - 1) + 1)
      (fun b ->
        Bytes.fill d (Layout.block_base t.layout b - t.base) (Layout.block_len t.layout b) '\000')
  end

(* Grow to hold offset [need - 1]: at least double, then round up to
   that block's end, never past the segment. *)
let grow t need =
  let cap = Bytes.length t.data in
  let want = min (Layout.size t.layout) (max need (2 * cap)) in
  let b = block_of t (t.base + want - 1) in
  let hi = Layout.block_base t.layout b + Layout.block_len t.layout b - t.base in
  let data = Bytes.create hi in
  Bytes.blit t.data 0 data 0 cap;
  t.data <- data;
  lay_out t ~lo:cap ~hi

let[@inline never] make_room t addr width =
  let off = addr - t.base in
  if off < 0 || off + width > Layout.size t.layout then
    invalid_arg (Printf.sprintf "Memimg: access at 0x%x outside the image" addr);
  if off + width > Bytes.length t.data then grow t (off + width)

(** [check t addr width] — the one capacity check every accessor makes:
    [\[addr, addr+width)] must lie in the segment, and the image grows
    to hold it, its new bytes as {!Core.init} would have left them. *)
let[@inline] check t addr width =
  let off = addr - t.base in
  if off < 0 || off + width > Bytes.length t.data then make_room t addr width

let read t addr (w : Alpha.Insn.width) =
  check t addr (Alpha.Insn.bytes_of_width w);
  let off = addr - t.base in
  match w with
  | Alpha.Insn.W32 -> Int64.of_int32 (Bytes.get_int32_le t.data off)
  | Alpha.Insn.W64 -> Bytes.get_int64_le t.data off

(* Clear other processes' monitors on the stored-to block. *)
let break_monitors t ~block ~pid =
  if t.armed > 0 then begin
    let ms = t.monitors in
    for i = 0 to Array.length ms - 1 do
      let m = ms.(i) in
      if m.mon_block = block && m.mon_pid <> pid then begin
        m.mon_block <- -1;
        t.armed <- t.armed - 1;
        t.breaks <- t.breaks + 1
      end
    done
  end

let write ?(pid = -1) t addr (w : Alpha.Insn.width) v =
  check t addr (Alpha.Insn.bytes_of_width w);
  let off = addr - t.base in
  (* [block_of] is only needed when a monitor could break. *)
  if t.armed > 0 then break_monitors t ~block:(block_of t addr) ~pid;
  match w with
  | Alpha.Insn.W32 -> Bytes.set_int32_le t.data off (Int64.to_int32 v)
  | Alpha.Insn.W64 -> Bytes.set_int64_le t.data off v

(* The index of [pid]'s slot in [ms], or -1. *)
let rec slot_index ms pid i =
  if i = Array.length ms then -1 else if ms.(i).mon_pid = pid then i else slot_index ms pid (i + 1)

(* [pid]'s slot, made on its first LL and reused from then on, so an
   LL after an SC allocates nothing. *)
let slot t pid =
  let i = slot_index t.monitors pid 0 in
  if i >= 0 then t.monitors.(i)
  else begin
    let m = { mon_pid = pid; mon_block = -1 } in
    t.monitors <- Array.append t.monitors [| m |];
    m
  end

(** [ll t ~pid addr w] performs a load-locked: reads and arms [pid]'s
    monitor on the block, moving it off any other block. *)
let ll t ~pid addr w =
  let block = block_of t addr in
  let m = slot t pid in
  if m.mon_block < 0 then t.armed <- t.armed + 1;
  m.mon_block <- block;
  read t addr w

(** [monitor_armed t ~pid addr] — is [pid]'s LL monitor still armed on
    [addr]'s block?  Consulted when a protocol-path store-conditional is
    granted by the home: if an intervening data write or invalidation
    broke the monitor, the SC fails spuriously (which the Alpha
    architecture permits) rather than complete against stale data. *)
let monitor_armed t ~pid addr =
  let block = block_of t addr in
  let i = slot_index t.monitors pid 0 in
  i >= 0 && t.monitors.(i).mon_block = block

(** [disarm t ~pid] drops [pid]'s monitor, if any: a reservation left
    armed sends every store to the image down the slow path. *)
let disarm t ~pid =
  let i = slot_index t.monitors pid 0 in
  if i >= 0 && t.monitors.(i).mon_block >= 0 then begin
    t.monitors.(i).mon_block <- -1;
    t.armed <- t.armed - 1
  end

(** [sc t ~pid addr w v] performs a store-conditional: succeeds iff
    [pid]'s monitor on the block is still armed.  Always disarms. *)
let sc t ~pid addr w v =
  let armed = monitor_armed t ~pid addr in
  disarm t ~pid;
  if armed then write ~pid t addr w v;
  armed

(** [write_flags_range t ~addr ~len] stores the invalid-flag value
    into every 4-byte word of [addr, addr+len), breaking monitors on
    every touched block.  The extent need not respect block
    boundaries — the [Wrong_block_extent] mutation relies on that. *)
let write_flags_range t ~addr ~len =
  check t addr len;
  let off = addr - t.base in
  for w = 0 to (len / 4) - 1 do
    Bytes.set_int32_le t.data (off + (4 * w)) flag32
  done;
  Layout.iter_range t.layout ~addr ~len (fun b -> break_monitors t ~block:b ~pid:(-1))

(** [write_flags t ~block] stores the invalid-flag value into every
    4-byte word of [block] (Section 2.2).  Breaks monitors. *)
let write_flags t ~block =
  write_flags_range t
    ~addr:(Layout.block_base t.layout block)
    ~len:(Layout.block_len t.layout block)

(** [fill_flags t] lays out every byte the image holds as {!Core.init}
    leaves a copy: the invalid flag, except zeros in this domain's home
    blocks (Section 2.2).  [init] calls it once the static homes are
    final, so bytes touched before then start over.  Breaks no monitor,
    so none may be armed. *)
let fill_flags t =
  if t.armed > 0 then invalid_arg "Memimg.fill_flags: a monitor is armed";
  lay_out t ~lo:0 ~hi:(Bytes.length t.data)

(** [read_block t ~block] copies [block]'s extent out of the image. *)
let read_block t ~block =
  let addr = Layout.block_base t.layout block and len = Layout.block_len t.layout block in
  check t addr len;
  Bytes.sub t.data (addr - t.base) len

(** [write_block t ~block data] copies block data into the image (a fetch
    reply or a writeback).  The monitor is broken only when the content
    actually changes: a cache fill that brings back identical data does
    not clear a hardware lock flag, and breaking monitors on every fill
    livelocks contended LL/SC loops (every contender's fetch would
    spuriously fail every sibling's SC).  With no monitor armed there is
    nothing to break, so the comparison is skipped. *)
let write_block t ~block data =
  let len = Layout.block_len t.layout block in
  if Bytes.length data <> len then
    invalid_arg
      (Printf.sprintf "Memimg.write_block: %d bytes for a %d-byte block" (Bytes.length data) len);
  let addr = Layout.block_base t.layout block in
  check t addr len;
  let dst_off = addr - t.base in
  if t.armed = 0 then Bytes.blit data 0 t.data dst_off len
  else
    let changed = not (Bytes.equal data (Bytes.sub t.data dst_off len)) in
    Bytes.blit data 0 t.data dst_off len;
    if changed then break_monitors t ~block ~pid:(-1)

(** [blit_out t ~addr ~len buf off] — copy raw image bytes out (used by
    the OS layer for syscall buffers after validation). *)
let blit_out t ~addr ~len buf off =
  check t addr len;
  Bytes.blit t.data (addr - t.base) buf off len

(** [blit_in t ~addr buf off len] — copy bytes into the image, breaking
    LL monitors on every touched block. *)
let blit_in t ~addr buf off len =
  check t addr len;
  Bytes.blit buf off t.data (addr - t.base) len;
  Layout.iter_range t.layout ~addr ~len (fun b -> break_monitors t ~block:b ~pid:(-1))
