(* Tests for the Memory-Channel network model. *)

open Sim

let check_f = Alcotest.(check (float 1e-12))

let small_config =
  { Mchan.Net.default_config with Mchan.Net.nodes = 2; cpus_per_node = 2 }

let test_remote_latency () =
  let net = Mchan.Net.create small_config in
  let eng = Mchan.Net.engine net in
  let arrived = ref 0.0 in
  Engine.at eng 0.001 (fun () ->
      Mchan.Net.send net ~src_node:0 ~dst_node:1 ~size:0 (fun () ->
          arrived := Engine.now eng));
  ignore (Engine.run eng);
  check_f "one-way latency" (0.001 +. 4.0e-6) !arrived

let test_bandwidth_occupancy () =
  (* Two back-to-back 60000-byte messages on a 60 MB/s link: the second
     arrives one transfer time (1 ms) after the first. *)
  let net = Mchan.Net.create small_config in
  let eng = Mchan.Net.engine net in
  let times = ref [] in
  Engine.at eng 0.0 (fun () ->
      Mchan.Net.send net ~src_node:0 ~dst_node:1 ~size:60000 (fun () ->
          times := Engine.now eng :: !times);
      Mchan.Net.send net ~src_node:0 ~dst_node:1 ~size:60000 (fun () ->
          times := Engine.now eng :: !times));
  ignore (Engine.run eng);
  match List.rev !times with
  | [ t1; t2 ] ->
      check_f "first" (0.001 +. 4.0e-6) t1;
      check_f "second serialised" (0.002 +. 4.0e-6) t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_intra_node_fast_path () =
  let net = Mchan.Net.create small_config in
  let eng = Mchan.Net.engine net in
  let arrived = ref 0.0 in
  Engine.at eng 0.0 (fun () ->
      Mchan.Net.send net ~src_node:1 ~dst_node:1 ~size:64 (fun () ->
          arrived := Engine.now eng));
  ignore (Engine.run eng);
  check_f "intra-node latency" 1.0e-6 !arrived;
  Alcotest.(check int) "no remote message" 0 (Mchan.Net.remote_messages net);
  Alcotest.(check int) "one local message" 1 (Mchan.Net.local_messages net)

let test_signal_pulsed_on_arrival () =
  let net = Mchan.Net.create small_config in
  let eng = Mchan.Net.engine net in
  let pulsed_at = ref nan in
  Signal.wait (Mchan.Net.node_signal net 1) (fun () -> pulsed_at := Engine.now eng);
  Engine.at eng 0.0 (fun () ->
      Mchan.Net.send net ~src_node:0 ~dst_node:1 ~size:0 ignore);
  ignore (Engine.run eng);
  check_f "signal at arrival" 4.0e-6 !pulsed_at

let test_mailbox_fifo () =
  let mb = Mchan.Mailbox.create () in
  Mchan.Mailbox.push mb 1;
  Mchan.Mailbox.push mb 2;
  Mchan.Mailbox.push mb 3;
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Mchan.Mailbox.pop mb);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Mchan.Mailbox.pop mb);
  Alcotest.(check int) "length" 1 (Mchan.Mailbox.length mb);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Mchan.Mailbox.pop mb);
  Alcotest.(check (option int)) "empty" None (Mchan.Mailbox.pop mb)

let test_nth_cpu_node_major () =
  let net = Mchan.Net.create Mchan.Net.default_config in
  let c5 = Mchan.Net.nth_cpu net 5 in
  Alcotest.(check int) "node of cpu 5" 1 c5.Proc.node_id;
  Alcotest.(check int) "global id" 5 c5.Proc.cpu_global_id;
  Alcotest.(check int) "total cpus" 16 (Mchan.Net.total_cpus net)

let test_zero_byte_payload () =
  (* A zero-byte message occupies the link for zero time. *)
  let link = Mchan.Link.create ~bandwidth:60.0e6 in
  let fin = Mchan.Link.transmit link ~now:0.5 ~size:0 in
  check_f "leaves instantly" 0.5 fin;
  (* A later real transfer is not pushed back by the zero-byte one. *)
  let fin2 = Mchan.Link.transmit link ~now:0.5 ~size:60000 in
  check_f "next transfer starts immediately" (0.5 +. 0.001) fin2

let test_link_saturation () =
  (* Back-to-back sends injected at the same instant serialise: message
     k leaves at (k+1) transfer times (the link is never idle). *)
  let link = Mchan.Link.create ~bandwidth:60.0e6 in
  let xfer = 6000.0 /. 60.0e6 in
  for k = 0 to 9 do
    let fin = Mchan.Link.transmit link ~now:0.0 ~size:6000 in
    check_f (Printf.sprintf "message %d serialised" k) (float_of_int (k + 1) *. xfer) fin
  done;
  (* A message injected while the link is saturated queues behind the
     backlog rather than starting at its injection time. *)
  let fin = Mchan.Link.transmit link ~now:(xfer /. 2.0) ~size:6000 in
  check_f "mid-busy injection queues" (11.0 *. xfer) fin

let qcheck_link_never_overlaps =
  QCheck.Test.make ~name:"link transmissions never overlap" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (float_bound_exclusive 0.01) (int_range 1 10000)))
    (fun sends ->
      let link = Mchan.Link.create ~bandwidth:60.0e6 in
      let sends = List.sort (fun (a, _) (b, _) -> compare a b) sends in
      let ok = ref true in
      let prev_end = ref 0.0 in
      List.iter
        (fun (t, size) ->
          let finish = Mchan.Link.transmit link ~now:t ~size in
          let xfer = float_of_int size /. 60.0e6 in
          if finish -. xfer < !prev_end -. 1e-15 then ok := false;
          if finish -. xfer < t -. 1e-15 then ok := false;
          prev_end := finish)
        sends;
      !ok)

let suite =
  [
    Alcotest.test_case "remote latency" `Quick test_remote_latency;
    Alcotest.test_case "bandwidth occupancy" `Quick test_bandwidth_occupancy;
    Alcotest.test_case "intra-node fast path" `Quick test_intra_node_fast_path;
    Alcotest.test_case "signal pulsed on arrival" `Quick test_signal_pulsed_on_arrival;
    Alcotest.test_case "mailbox FIFO" `Quick test_mailbox_fifo;
    Alcotest.test_case "nth_cpu node-major" `Quick test_nth_cpu_node_major;
    Alcotest.test_case "zero-byte payload" `Quick test_zero_byte_payload;
    Alcotest.test_case "link saturation" `Quick test_link_saturation;
    QCheck_alcotest.to_alcotest qcheck_link_never_overlaps;
  ]
