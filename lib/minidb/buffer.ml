(** The database buffer cache, living in a shared-memory segment (the
    SGA).  Page frames and their headers are ordinary Shasta shared
    memory: every lookup goes through the inline-check machinery, every
    replacement does a [read] system call whose destination buffer is
    validated by the OS layer (Section 4.1).

    The cache is direct-mapped by page number with one latch (an MP lock)
    per frame — enough structure to produce the latching and sharing
    behaviour of the paper's Oracle runs without reimplementing LRU. *)

module R = Shasta.Runtime

type t = {
  base : int;  (** headers region: one 64-byte header per frame *)
  frames : int;  (** frame region base *)
  nframes : int;
  page_bytes : int;
  latch0 : int;  (** first of [nframes] MP lock ids *)
  file : string;
}

let header_bytes = 64

(** [layout_size ~nframes ~page_bytes] — bytes of SGA space needed. *)
let layout_size ~nframes ~page_bytes = (nframes * header_bytes) + (nframes * page_bytes)

let create ~sga_base ~nframes ~page_bytes ~latch0 ~file =
  {
    base = sga_base;
    frames = sga_base + (nframes * header_bytes);
    nframes;
    page_bytes;
    latch0;
    file;
  }

let header t i = t.base + (i * header_bytes)
let frame t i = t.frames + (i * t.page_bytes)

(** [pin ctx t ~page f] — run [f frame_addr] with [page] resident and its
    latch held.  A miss replaces the frame's current page with a file
    read into the (shared, validated) frame. *)
let pin (ctx : Osim.Kernel.ctx) t ~page f =
  let h = ctx.Osim.Kernel.h in
  let i = page mod t.nframes in
  R.lock h (t.latch0 + i);
  let tag = R.load_int h (header t i) in
  if tag <> page + 1 then begin
    (* Replacement: fetch the page from the file into the frame. *)
    let fd = Osim.Kernel.open_file ctx t.file in
    Osim.Kernel.lseek ctx fd (page * t.page_bytes);
    let n = Osim.Kernel.read ctx fd ~buf:(frame t i) ~len:t.page_bytes in
    Osim.Kernel.close ctx fd;
    if n <> t.page_bytes then failwith "Buffer.pin: short read";
    R.store_int h (header t i) (page + 1)
  end;
  let result = f (frame t i) in
  R.unlock h (t.latch0 + i);
  result

(** [warm ctx t ~pages] — prefault pages 0..pages-1 (Table 4's runs are
    against "tables that are already cached in memory"). *)
let warm ctx t ~pages =
  for p = 0 to min pages t.nframes - 1 do
    pin ctx t ~page:p (fun _ -> ())
  done
