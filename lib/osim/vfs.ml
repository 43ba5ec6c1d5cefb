(** A common file system across the cluster.  The paper (Section 4.2)
    mounts the same file system on every node "via NFS", whose caches
    may serve stale data, and keeps transaction processing on one node
    for that reason.  This model is simpler and coherent: each node has
    a cache entry per file, refetched from the server whenever the
    file's version has changed and otherwise after {!cache_lifetime}, so
    every read sees the latest write.  NFS staleness is not modelled.

    Cost model calibrated to Table 2's "standard application" column:
    an [open] costs ~58 us, a [read] ~12 us plus ~5.5 ns/byte. *)

type file = {
  name : string;
  mutable data : Bytes.t;
  mutable size : int;
  mutable version : int;
}

type cached = { mutable c_version : int; mutable fetched_at : float }

type t = {
  files : (string, file) Hashtbl.t;
  caches : (int * string, cached) Hashtbl.t;  (** (node, file) -> cache state *)
  open_cost : float;
  read_base_cost : float;
  per_byte_cost : float;
  disk_cost : float;  (** extra cost when data is not in any cache (cold) *)
  mutable remote_fetches : int;
}

(** How long a node serves an unchanged file from its cache before it
    asks the server again, in seconds. *)
let cache_lifetime = 1.0

let create () =
  {
    files = Hashtbl.create 64;
    caches = Hashtbl.create 256;
    open_cost = 58.0e-6;
    read_base_cost = 12.0e-6;
    per_byte_cost = 5.5e-9;
    disk_cost = 0.0;
    remote_fetches = 0;
  }

let find t name = Hashtbl.find_opt t.files name

let create_file t name =
  match find t name with
  | Some f -> f
  | None ->
      let f = { name; data = Bytes.create 0; size = 0; version = 0 } in
      Hashtbl.replace t.files name f;
      f

let ensure_capacity f n =
  if Bytes.length f.data < n then begin
    let d = Bytes.make (max n (2 * Bytes.length f.data)) '\000' in
    Bytes.blit f.data 0 d 0 f.size;
    f.data <- d
  end

(** [touch_cache t ~node ~now f] — refresh the node's cache entry when
    the file changed since it was fetched or {!cache_lifetime} has
    passed; returns [true] when the access had to go to the server (the
    cache was cold or out of date). *)
let touch_cache t ~node ~now f =
  let key = (node, f.name) in
  match Hashtbl.find_opt t.caches key with
  | Some c when now -. c.fetched_at < cache_lifetime && c.c_version = f.version -> false
  | Some c ->
      c.c_version <- f.version;
      c.fetched_at <- now;
      t.remote_fetches <- t.remote_fetches + 1;
      true
  | None ->
      Hashtbl.replace t.caches key { c_version = f.version; fetched_at = now };
      t.remote_fetches <- t.remote_fetches + 1;
      true

let read_cost t n = t.read_base_cost +. (float_of_int n *. t.per_byte_cost)
let write_cost t n = t.read_base_cost +. (float_of_int n *. t.per_byte_cost)

(** [pread f ~pos ~len buf off] — copy file bytes into [buf]. *)
let pread f ~pos ~len buf off =
  let n = max 0 (min len (f.size - pos)) in
  if n > 0 then begin
    (try Bytes.blit f.data pos buf off n
     with Invalid_argument _ ->
       invalid_arg
         (Printf.sprintf "Vfs.pread %s: pos=%d len=%d size=%d cap=%d off=%d buflen=%d" f.name
            pos len f.size (Bytes.length f.data) off (Bytes.length buf)))
  end;
  n

(** [pwrite t f ~pos src off len] — write into the file, bumping its
    version, so every node's next {!touch_cache} of it refetches. *)
let pwrite t f ~pos src off len =
  ensure_capacity f (pos + len);
  Bytes.blit src off f.data pos len;
  if pos + len > f.size then f.size <- pos + len;
  f.version <- f.version + 1;
  ignore t
