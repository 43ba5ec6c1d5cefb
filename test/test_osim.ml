(* Tests for the cluster OS layer: process management, shared-memory
   segments, file system calls with argument validation. *)

module C = Shasta.Cluster
module R = Shasta.Runtime
module K = Osim.Kernel
module Cfg = Shasta.Config

let make_kernel ?(nodes = 2) ?(cpus = 2) ?(slot_cpus = [ 0; 1; 2; 3 ]) () =
  let cl =
    C.create
      {
        Cfg.default with
        Cfg.net = { Mchan.Net.default_config with Mchan.Net.nodes; cpus_per_node = cpus };
        protocol = { Protocol.Config.default with Protocol.Config.shared_size = 1024 * 1024 };
      }
  in
  (cl, K.boot cl ~slot_cpus ())

let run cl = try ignore (C.run ~until:60.0 cl) with C.Worker_failed (n, e) ->
  Alcotest.failf "worker %s: %s" n (Printexc.to_string e)

let test_fork_wait () =
  let cl, k = make_kernel () in
  let child_ran = ref false in
  let reaped = ref (-1, -1) in
  let _ =
    K.start k (fun ctx ->
        let pid = K.fork ctx (fun _ ->
            child_ran := true;
            raise (K.Exit_process 7))
        in
        let rp, status = K.wait ctx in
        Alcotest.(check int) "reaped the forked child" pid rp;
        reaped := (rp, status))
  in
  run cl;
  Alcotest.(check bool) "child ran" true !child_ran;
  Alcotest.(check int) "exit status" 7 (snd !reaped)

let test_fork_remote_node () =
  (* Fork onto the second node; child sees the parent's private data. *)
  let cl, k = make_kernel () in
  let child_node = ref (-1) in
  let child_saw = ref 0 in
  let _ =
    K.start k ~cpu_hint:0 (fun ctx ->
        Bytes.set_int64_le ctx.K.h.R.private_mem 128 12345L;
        ignore
          (K.fork ctx ~cpu_hint:2 (fun cctx ->
               child_node := R.node cctx.K.h;
               child_saw := Int64.to_int (Bytes.get_int64_le cctx.K.h.R.private_mem 128)));
        ignore (K.wait ctx))
  in
  run cl;
  Alcotest.(check int) "child on node 1" 1 !child_node;
  Alcotest.(check int) "private data copied across" 12345 !child_saw

let test_getpid_unique () =
  let cl, k = make_kernel () in
  let pids = ref [] in
  let _ =
    K.start k (fun ctx ->
        pids := K.getpid ctx :: !pids;
        for _ = 1 to 2 do
          ignore (K.fork ctx (fun cctx -> pids := K.getpid cctx :: !pids))
        done;
        ignore (K.wait ctx);
        ignore (K.wait ctx))
  in
  run cl;
  let sorted = List.sort_uniq compare !pids in
  Alcotest.(check int) "three distinct global pids" 3 (List.length sorted)

let test_pid_block_unblock () =
  let cl, k = make_kernel () in
  let woke_at = ref 0.0 in
  let _ =
    K.start k (fun ctx ->
        let child =
          K.fork ctx (fun cctx ->
              ignore (K.pid_block cctx);
              woke_at := C.now cl)
        in
        R.work ctx.K.h 0.005;
        K.pid_unblock ctx child;
        ignore (K.wait ctx))
  in
  run cl;
  Alcotest.(check bool) "woken after ~5ms" true (!woke_at >= 0.005 && !woke_at < 0.02)

let test_pid_unblock_pending () =
  (* An unblock delivered before the block must not be lost. *)
  let cl, k = make_kernel () in
  let finished = ref false in
  let _ =
    K.start k (fun ctx ->
        let child =
          K.fork ctx (fun cctx ->
              (* Give the parent time to send the unblock first. *)
              R.work cctx.K.h 0.003;
              ignore (K.pid_block cctx);
              finished := true)
        in
        K.pid_unblock ctx child;
        ignore (K.wait ctx))
  in
  run cl;
  Alcotest.(check bool) "pending unblock consumed" true !finished

let test_kill_wakes_blocked () =
  let cl, k = make_kernel () in
  let killed_flag = ref false in
  let _ =
    K.start k (fun ctx ->
        let child = K.fork ctx (fun cctx -> killed_flag := K.pid_block cctx) in
        R.work ctx.K.h 0.002;
        K.kill ctx child;
        ignore (K.wait ctx))
  in
  run cl;
  Alcotest.(check bool) "kill reported by pid_block" true !killed_flag

let test_slot_reuse () =
  (* More forks than slots, sequentially: slots are reused. *)
  let cl, k = make_kernel ~slot_cpus:[ 0; 1 ] () in
  let count = ref 0 in
  let _ =
    K.start k (fun ctx ->
        for _ = 1 to 5 do
          ignore (K.fork ctx (fun _ -> incr count));
          ignore (K.wait ctx)
        done)
  in
  run cl;
  Alcotest.(check int) "five children ran through one spare slot" 5 !count

let test_shm () =
  let cl, k = make_kernel () in
  let got = ref 0 in
  let _ =
    K.start k (fun ctx ->
        let seg = K.shmget ctx 4096 in
        let addr = K.shmat ctx seg in
        R.store_int ctx.K.h addr 99;
        ignore
          (K.fork ctx ~cpu_hint:2 (fun cctx ->
               let addr' = K.shmat cctx seg in
               got := R.load_int cctx.K.h addr'));
        ignore (K.wait ctx))
  in
  run cl;
  Alcotest.(check int) "segment shared across nodes" 99 !got

let test_file_roundtrip_private_buffer () =
  let cl, k = make_kernel () in
  let got = ref 0L in
  let _ =
    K.start k (fun ctx ->
        let fd = K.open_file ctx "data" in
        Bytes.set_int64_le ctx.K.h.R.private_mem 0 777L;
        ignore (K.write ctx fd ~buf:0 ~len:8);
        K.lseek ctx fd 0;
        ignore (K.read ctx fd ~buf:64 ~len:8);
        got := Bytes.get_int64_le ctx.K.h.R.private_mem 64;
        K.close ctx fd)
  in
  run cl;
  Alcotest.(check int64) "file roundtrip" 777L !got

let test_read_into_shared_buffer_validated () =
  (* The read buffer lives in shared memory and is exclusively held by a
     process on another node; the syscall must validate (fetch) it and
     the data must land coherently. *)
  let cl, k = make_kernel () in
  let got = ref 0 in
  let seg_addr = ref 0 in
  let _ =
    K.start k ~cpu_hint:0 (fun ctx ->
        let seg = K.shmget ctx 4096 in
        let addr = K.shmat ctx seg in
        seg_addr := addr;
        (* A remote child takes the buffer lines exclusive. *)
        ignore
          (K.fork ctx ~cpu_hint:2 (fun cctx ->
               for i = 0 to 3 do
                 R.store_int cctx.K.h (addr + (i * 64)) (-1)
               done));
        ignore (K.wait ctx);
        (* Now read file data into that shared buffer. *)
        let fd = K.open_file ctx "shared_read" in
        Bytes.set_int64_le ctx.K.h.R.private_mem 0 31337L;
        ignore (K.write ctx fd ~buf:0 ~len:8);
        K.lseek ctx fd 0;
        ignore (K.read ctx fd ~buf:addr ~len:8);
        got := R.load_int ctx.K.h addr)
  in
  run cl;
  Alcotest.(check int) "validated shared-buffer read" 31337 !got

let test_protocol_processes_serve () =
  (* With protocol processes installed, a request to a node whose only
     application process sleeps is still served promptly (Section 4.3.2). *)
  let serve_latency ~protoprocs =
    let cl =
      C.create
        {
          Cfg.default with
          Cfg.net = { Mchan.Net.default_config with Mchan.Net.nodes = 2; cpus_per_node = 2 };
          protocol = { Protocol.Config.default with Protocol.Config.shared_size = 1024 * 1024 };
        }
    in
    let k = K.boot cl ~protocol_processes:protoprocs ~slot_cpus:[ 0; 2 ] () in
    let read_done = ref infinity in
    let a = C.alloc cl 64 in
    let _ =
      K.start k ~cpu_hint:0 (fun ctx ->
          R.store_int ctx.K.h a 5;
          ignore
            (K.fork ctx ~cpu_hint:2 (fun cctx ->
                 Sim.Proc.sleep 0.001;
                 ignore (R.load_int cctx.K.h a);
                 read_done := C.now cl));
          (* The only process on node 0 blocks (as in a syscall): without
             protocol processes nothing there can serve the remote read
             until it wakes and polls. *)
          R.in_protocol ctx.K.h Sim.Proc.sleep 0.050;
          R.work ctx.K.h 0.002;
          ignore (K.wait ctx))
    in
    C.init ~homes:[ 0 ] cl;
    run cl;
    !read_done
  in
  let with_pp = serve_latency ~protoprocs:true in
  let without = serve_latency ~protoprocs:false in
  Alcotest.(check bool)
    (Printf.sprintf "protocol processes serve promptly (%.4fs vs %.4fs)" with_pp without)
    true
    (* the fork itself ships ~1 MB of private data (~17 ms on the link),
       so "promptly" means well before the 50 ms block expires *)
    (with_pp < 0.025 && without > 0.045)

let suite =
  [
    Alcotest.test_case "fork/wait" `Quick test_fork_wait;
    Alcotest.test_case "remote fork copies private data" `Quick test_fork_remote_node;
    Alcotest.test_case "global pids unique" `Quick test_getpid_unique;
    Alcotest.test_case "pid_block/unblock" `Quick test_pid_block_unblock;
    Alcotest.test_case "pid_unblock pending" `Quick test_pid_unblock_pending;
    Alcotest.test_case "kill wakes blocked" `Quick test_kill_wakes_blocked;
    Alcotest.test_case "slot reuse" `Quick test_slot_reuse;
    Alcotest.test_case "shm segments" `Quick test_shm;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip_private_buffer;
    Alcotest.test_case "shared-buffer read validated" `Quick
      test_read_into_shared_buffer_validated;
    Alcotest.test_case "protocol processes serve" `Quick test_protocol_processes_serve;
  ]
