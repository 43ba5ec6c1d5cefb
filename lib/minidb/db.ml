(** The miniature database engine (the Oracle 7.3 stand-in).

    Structure mirrors what the paper needed Oracle for:

    - an SGA shared-memory segment ([shmget]/[shmat]) holding the buffer
      cache, a redo log buffer, and a statistics page;
    - long-lived {e daemon} processes — a log writer and a stats/db
      writer — that sit in [pid_block] and are woken by servers with
      [pid_unblock] (so their exclusive cache lines can only be taken
      with downgrades, making the direct-downgrade optimisation of
      Section 4.3.4 matter);
    - {e server} processes created by [fork], possibly on other nodes,
      that execute transactions (OLTP, TPC-B-like) or scans (DSS,
      TPC-D-like) against pages fetched through [read] system calls with
      shared-memory buffers (validated, Section 4.1). *)

module R = Shasta.Runtime
module K = Osim.Kernel

type t = {
  file : string;
  rows_per_page : int;
  page_bytes : int;
  buf : Buffer.t;
  sga : int;
  stats_addr : int;  (** counters + the daemon request/response words *)
  logctl : int;  (** log head (appended) and flushed positions *)
  logbuf : int;
  logbuf_bytes : int;
  log_latch : int;
  stats_latch : int;
  mutable lgwr : int;  (** ospid of the log-writer daemon *)
  mutable dbwr : int;  (** ospid of the stats/db-writer daemon *)
  mutable daemon_wakeups : int;
}

let row_bytes = 16

(* MP lock id map: 0 = log latch, 1 = stats latch, 100.. = frame latches. *)
let log_latch_id = 0
let stats_latch_id = 1
let frame_latch0 = 100

(* Offsets inside the stats page. *)
let off_req = 8 (* requesting ospid *)
let off_done = 16 (* completion sequence number *)
let off_seq = 24 (* request sequence number *)
let off_counter = 32 (* daemon-maintained statistics *)

let balance0 r = 1000 + (r mod 97)

(** [create ctx ~pages ~rows_per_page ~nframes] — build the database:
    allocate and initialise the SGA, populate the table file.  Run from
    the root database process. *)
let create (ctx : K.ctx) ~pages ~rows_per_page ~nframes =
  let page_bytes = rows_per_page * row_bytes in
  let logbuf_bytes = 16 * 1024 in
  let sga_bytes = 4096 + logbuf_bytes + Buffer.layout_size ~nframes ~page_bytes in
  (* The SGA is control-structure heavy (latches, stats words, log
     head): fine blocks keep the latch traffic off the buffer frames. *)
  let seg = K.shmget ~granularity:64 ctx sga_bytes in
  let sga = K.shmat ctx seg in
  let stats_addr = sga in
  let logctl = sga + 256 in
  let logbuf = sga + 4096 in
  let buf =
    Buffer.create ~sga_base:(sga + 4096 + logbuf_bytes) ~nframes ~page_bytes
      ~latch0:frame_latch0 ~file:"table.dat"
  in
  let db =
    {
      file = "table.dat";
      rows_per_page;
      page_bytes;
      buf;
      sga;
      stats_addr;
      logctl;
      logbuf;
      logbuf_bytes;
      log_latch = log_latch_id;
      stats_latch = stats_latch_id;
      lgwr = 0;
      dbwr = 0;
      daemon_wakeups = 0;
    }
  in
  (* Populate the table file: rows are (id, balance) pairs, staged in
     private memory and written out page by page. *)
  let fd = K.open_file ctx db.file in
  let staging = 0 (* offset in private memory *) in
  for p = 0 to pages - 1 do
    for s = 0 to rows_per_page - 1 do
      let r = (p * rows_per_page) + s in
      Bytes.set_int64_le ctx.K.h.R.private_mem (staging + (s * row_bytes)) (Int64.of_int r);
      Bytes.set_int64_le ctx.K.h.R.private_mem
        (staging + (s * row_bytes) + 8)
        (Int64.of_int (balance0 r))
    done;
    ignore (K.write ctx fd ~buf:staging ~len:page_bytes)
  done;
  K.close ctx fd;
  (* Initialise SGA control words. *)
  R.store_int ctx.K.h db.logctl 0;
  R.store_int ctx.K.h (db.logctl + 8) 0;
  R.store_int ctx.K.h (db.stats_addr + off_req) 0;
  R.store_int ctx.K.h (db.stats_addr + off_done) 0;
  R.store_int ctx.K.h (db.stats_addr + off_seq) 0;
  db

(* --- daemons --- *)

(** Log writer: waits in [pid_block]; on wakeup flushes the unwritten
    part of the (shared) log buffer to the log file — a [write] syscall
    whose source buffer is validated. *)
let lgwr_loop db (ctx : K.ctx) =
  let h = ctx.K.h in
  let fd = K.open_file ctx "redo.log" in
  let rec loop () =
    let killed = K.pid_block ctx in
    if not killed then begin
      R.lock h db.log_latch;
      let head = R.load_int h db.logctl in
      let flushed = R.load_int h (db.logctl + 8) in
      if head > flushed then begin
        let len = min (head - flushed) db.logbuf_bytes in
        ignore (K.write ctx fd ~buf:(db.logbuf + (flushed mod db.logbuf_bytes)) ~len);
        R.store_int h (db.logctl + 8) head
      end;
      R.unlock h db.log_latch;
      loop ()
    end
  in
  loop ();
  K.close ctx fd

(** Stats daemon (the "db writer"): waits in [pid_block]; on wakeup
    writes a statistics record and touches the shared stats page —
    leaving those lines exclusive at the daemon's node, to be downgraded
    when the next server reads them. *)
let dbwr_loop db (ctx : K.ctx) =
  let h = ctx.K.h in
  let fd = K.open_file ctx "stats.dat" in
  let rec loop () =
    let killed = K.pid_block ctx in
    if not killed then begin
      let requester = R.load_int h (db.stats_addr + off_req) in
      let seq = R.load_int h (db.stats_addr + off_seq) in
      (* Touch the stats counters (shared stores; one cache line). *)
      for c = 0 to 7 do
        let a = db.stats_addr + off_counter + (c * 8) in
        R.store_int h a (R.load_int h a + 1)
      done;
      ignore (K.write ctx fd ~buf:(db.stats_addr + off_counter) ~len:64);
      R.store_int h (db.stats_addr + off_done) seq;
      (* Make the completion word globally visible before the wakeup
         message, or the requester can read a stale copy and re-block. *)
      R.mb h;
      if requester > 0 then K.pid_unblock ctx requester;
      loop ()
    end
  in
  loop ();
  K.close ctx fd

(** [start_daemons ctx db ~cpu_hint] — fork LGWR and DBWR (plus two
    short-lived startup processes, as the paper observes Oracle doing). *)
let start_daemons ctx db ~cpu_hint =
  let transient = K.fork ctx ?cpu_hint (fun _ -> ()) in
  db.lgwr <- K.fork ctx ?cpu_hint (lgwr_loop db);
  db.dbwr <- K.fork ctx ?cpu_hint (dbwr_loop db);
  let transient2 = K.fork ctx ?cpu_hint (fun _ -> ()) in
  ignore (K.wait ctx);
  ignore (K.wait ctx);
  ignore transient;
  ignore transient2

let stop_daemons ctx db =
  K.kill ctx db.lgwr;
  K.kill ctx db.dbwr;
  ignore (K.wait ctx);
  ignore (K.wait ctx)

(* --- server-side operations --- *)

(** [stats_exchange ctx db] — the server-daemon interaction of
    Section 6.5: ask the stats daemon for work and block until it is
    done.  Blocking here is what the EQ runs of Figure 5 pay for. *)
let stats_exchange (ctx : K.ctx) db =
  let h = ctx.K.h in
  R.lock h db.stats_latch;
  let seq = R.load_int h (db.stats_addr + off_seq) + 1 in
  R.store_int h (db.stats_addr + off_seq) seq;
  R.store_int h (db.stats_addr + off_req) (K.getpid ctx);
  R.mb h;
  db.daemon_wakeups <- db.daemon_wakeups + 1;
  K.pid_unblock ctx db.dbwr;
  let rec wait () =
    if R.load_int h (db.stats_addr + off_done) < seq then begin
      ignore (K.pid_block ctx);
      wait ()
    end
  in
  wait ();
  R.unlock h db.stats_latch

(** [account_update ctx db ~account ~delta] — one TPC-B-style
    transaction: update a balance in the buffer cache and append a redo
    record; every eighth transaction nudges the log writer. *)
let account_update (ctx : K.ctx) db ~account ~delta =
  let h = ctx.K.h in
  let page = account / db.rows_per_page in
  let slot = account mod db.rows_per_page in
  Buffer.pin ctx db.buf ~page (fun frame ->
      let a = frame + (slot * row_bytes) + 8 in
      (* Row/metadata evaluation: access-heavy, like the real engine. *)
      for k = 0 to 499 do
        ignore (R.load_int h (frame + ((slot * row_bytes) + (k * 8)) mod db.page_bytes));
        R.work_cycles h 5
      done;
      R.store_int h a (R.load_int h a + delta));
  (* Redo record. *)
  R.lock h db.log_latch;
  let head = R.load_int h db.logctl in
  let rec_addr = db.logbuf + (head mod db.logbuf_bytes) in
  R.store_int h rec_addr account;
  R.store_int h (rec_addr + 8) delta;
  R.store_int h db.logctl (head + row_bytes);
  R.unlock h db.log_latch;
  if (head / row_bytes) mod 8 = 7 then K.pid_unblock ctx db.lgwr

(** [scan ctx db ~lo_page ~hi_page ~meta_loads ~row_compute] —
    sequential scan summing balances.  Row evaluation is dominated by
    shared-memory accesses ([meta_loads] pointer-chasing loads per row
    with [row_compute] cycles of work between them) — like the paper's
    DSS-1, which "has fairly good locality ... but does not have any
    simple inner loop whose accesses can be batched", which is what makes
    its checking overhead the highest of Table 3.  Every 16 pages the
    server exchanges statistics with the daemon. *)
let scan (ctx : K.ctx) db ~lo_page ~hi_page ~meta_loads ~row_compute =
  let h = ctx.K.h in
  let sum = ref 0 in
  for page = lo_page to hi_page - 1 do
    Buffer.pin ctx db.buf ~page (fun frame ->
        for s = 0 to db.rows_per_page - 1 do
          sum := !sum + R.load_int h (frame + (s * row_bytes) + 8);
          for k = 0 to meta_loads - 1 do
            let off = (s * row_bytes) + (k * 8) in
            ignore (R.load_int h (frame + (off mod db.page_bytes)));
            R.work_cycles h row_compute
          done
        done);
    if (page - lo_page) mod 16 = 15 then stats_exchange ctx db
  done;
  !sum

(** Expected scan sum over a page range (for validation). *)
let expected_sum db ~lo_page ~hi_page =
  let s = ref 0 in
  for r = lo_page * db.rows_per_page to (hi_page * db.rows_per_page) - 1 do
    s := !s + balance0 r
  done;
  !s
