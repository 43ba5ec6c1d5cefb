(** A coherence domain's copy of the shared address space, with the
    hardware LL/SC monitor.

    In Base-Shasta each process has an image; in SMP-Shasta the processes
    of a node share one, so plain loads and stores between them behave
    like hardware shared memory.  The image also implements the lock-flag
    semantics of the Alpha LL/SC pair (Section 3.1.1): a store by any
    {e other} process to a monitored block clears that monitor, as does an
    invalidation's flag write.

    All extents come from the {!Layout}: a monitor covers one coherence
    block, whose size depends on the region the address falls in. *)

type monitor = { mon_pid : int; mon_block : int }

type t = {
  layout : Layout.t;
  base : int;
  data : Bytes.t;
  mutable monitors : monitor list;
  mutable breaks : int;  (** monitors cleared; reset by the shell's wake-up *)
}

let create ~layout =
  {
    layout;
    base = Layout.base layout;
    data = Bytes.make (Layout.size layout) '\000';
    monitors = [];
    breaks = 0;
  }

let block_of t addr = Layout.block_of_addr t.layout addr

let in_range t addr width =
  let off = addr - t.base in
  off >= 0 && off + width <= Bytes.length t.data

let check t addr width =
  if not (in_range t addr width) then
    invalid_arg (Printf.sprintf "Memimg: access at 0x%x outside the image" addr)

let read t addr (w : Alpha.Insn.width) =
  check t addr (Alpha.Insn.bytes_of_width w);
  let off = addr - t.base in
  match w with
  | Alpha.Insn.W32 -> Int64.of_int32 (Bytes.get_int32_le t.data off)
  | Alpha.Insn.W64 -> Bytes.get_int64_le t.data off

(* Clear other processes' monitors on the stored-to block. *)
let break_monitors t ~block ~pid =
  match t.monitors with
  | [] -> ()
  | ms ->
      let kept = List.filter (fun m -> m.mon_block <> block || m.mon_pid = pid) ms in
      t.breaks <- t.breaks + List.length ms - List.length kept;
      t.monitors <- kept

let write ?(pid = -1) t addr (w : Alpha.Insn.width) v =
  check t addr (Alpha.Insn.bytes_of_width w);
  let off = addr - t.base in
  (* [block_of] is only needed when a monitor could break. *)
  (match t.monitors with [] -> () | _ -> break_monitors t ~block:(block_of t addr) ~pid);
  match w with
  | Alpha.Insn.W32 -> Bytes.set_int32_le t.data off (Int64.to_int32 v)
  | Alpha.Insn.W64 -> Bytes.set_int64_le t.data off v

(* Is [pid]'s monitor armed on [block]?  A closure-free scan. *)
let rec armed ms ~pid ~block =
  match ms with
  | [] -> false
  | m :: rest -> (m.mon_pid = pid && m.mon_block = block) || armed rest ~pid ~block

(* [ms] without [pid]'s monitor; a process has at most one.  Returns
   [ms] itself when [pid] has none, and copies only the monitors ahead
   of its one. *)
let rec without ms ~pid =
  match ms with
  | [] -> ms
  | m :: rest ->
      if m.mon_pid = pid then rest
      else
        let rest' = without rest ~pid in
        if rest' == rest then ms else m :: rest'

(** [ll t ~pid addr w] performs a load-locked: reads and arms [pid]'s
    monitor on the block.  Re-arming an armed monitor, as a spin on a
    taken lock does, leaves the list as it is. *)
let ll t ~pid addr w =
  let block = block_of t addr in
  if not (armed t.monitors ~pid ~block) then
    t.monitors <- { mon_pid = pid; mon_block = block } :: without t.monitors ~pid;
  read t addr w

(** [monitor_armed t ~pid addr] — is [pid]'s LL monitor still armed on
    [addr]'s block?  Consulted when a protocol-path store-conditional is
    granted by the home: if an intervening data write or invalidation
    broke the monitor, the SC fails spuriously (which the Alpha
    architecture permits) rather than complete against stale data. *)
let monitor_armed t ~pid addr = armed t.monitors ~pid ~block:(block_of t addr)

(** [disarm t ~pid] drops [pid]'s monitor, if any: a reservation left
    armed sends every store to the image down the slow path. *)
let disarm t ~pid = t.monitors <- without t.monitors ~pid

(** [sc t ~pid addr w v] performs a store-conditional: succeeds iff
    [pid]'s monitor on the block is still armed.  Always disarms. *)
let sc t ~pid addr w v =
  let armed = monitor_armed t ~pid addr in
  disarm t ~pid;
  if armed then write ~pid t addr w v;
  armed

(** The per-4-byte-word invalid flag value (Section 2.2). *)
let flag32 = 0xDEADBEEFl

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

(** [fill_flags t] stores the invalid-flag value into every 4-byte
    word of the image in one pass: the state {!Core.init} starts
    every copy from (Section 2.2).  It writes the first word, then
    doubles the filled prefix with [Bytes.blit].  Breaks no monitor, so
    none may be armed. *)
let fill_flags t =
  (match t.monitors with [] -> () | _ -> invalid_arg "Memimg.fill_flags: a monitor is armed");
  let len = Bytes.length t.data in
  Bytes.set_int32_le t.data 0 flag32;
  let filled = ref 4 in
  while !filled < len do
    let n = min !filled (len - !filled) in
    Bytes.blit t.data 0 t.data !filled n;
    filled := !filled + n
  done

(** [zero_block t ~block] zeroes [block]'s extent in place: a home's
    initial copy, written after {!fill_flags}.  Breaks no monitor. *)
let zero_block t ~block =
  Bytes.fill t.data (Layout.block_base t.layout block - t.base) (Layout.block_len t.layout block)
    '\000'

(** [read_block t ~block] copies [block]'s extent out of the image. *)
let read_block t ~block =
  Bytes.sub t.data (Layout.block_base t.layout block - t.base) (Layout.block_len t.layout block)

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
  let dst_off = Layout.block_base t.layout block - t.base in
  match t.monitors with
  | [] -> Bytes.blit data 0 t.data dst_off len
  | _ ->
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
