(** Sequence-numbered ack/retransmit transport over the raw links.

    Sender side, per directed channel: frames get consecutive sequence
    numbers and sit in an unacked table; a per-channel timer (period
    [timeout], armed only while unacked frames exist, so an idle channel
    schedules nothing) retransmits every frame whose backed-off RTO has
    expired.  Receiver side: every intact arrival at an up node is acked
    (selectively, by sequence number — a lost ack is repaired by the
    retransmission it provokes); frames already delivered or buffered
    are suppressed as duplicates; out-of-order frames wait in a
    reassembly buffer and are handed to the protocol strictly in
    sequence order.  Node outages from the fault plan silence an
    endpoint in both directions: its transmissions and its arrivals are
    discarded, and the retransmit machinery repairs the gap when the
    node recovers. *)

type config = {
  timeout : float;
  backoff : float;
  rto_cap : float;
  max_retries : int;
  ack_size : int;
  header_size : int;
}

(* The base timeout covers a Memory Channel round trip (2 x 4 us) plus
   transmit occupancy with ample slack; a premature retransmission is
   only duplicate traffic, never an error, so erring low is safe. *)
let default_config =
  {
    timeout = 60.0e-6;
    backoff = 2.0;
    rto_cap = 2.0e-3;
    max_retries = 30;
    ack_size = 16;
    header_size = 8;
  }

exception Link_failed of { src : int; dst : int; seq : int; attempts : int }

type link_stats = {
  s_data_sent : Sim.Stats.counter;
  s_retransmits : Sim.Stats.counter;
  s_acks_sent : Sim.Stats.counter;
  s_inj_dropped : Sim.Stats.counter;
  s_inj_duplicated : Sim.Stats.counter;
  s_inj_corrupted : Sim.Stats.counter;
  s_inj_delayed : Sim.Stats.counter;
  s_dup_suppressed : Sim.Stats.counter;
  s_outage_dropped : Sim.Stats.counter;
}

let fresh_stats () =
  {
    s_data_sent = Sim.Stats.counter ();
    s_retransmits = Sim.Stats.counter ();
    s_acks_sent = Sim.Stats.counter ();
    s_inj_dropped = Sim.Stats.counter ();
    s_inj_duplicated = Sim.Stats.counter ();
    s_inj_corrupted = Sim.Stats.counter ();
    s_inj_delayed = Sim.Stats.counter ();
    s_dup_suppressed = Sim.Stats.counter ();
    s_outage_dropped = Sim.Stats.counter ();
  }

type frame = {
  f_seq : int;
  f_size : int;
  f_deliver : unit -> unit;
  mutable f_attempts : int;
  mutable f_last_tx : float;
  mutable f_acked : bool;
}

type chan = {
  c_src : int;
  c_dst : int;
  mutable tx_next : int;
  unacked : (int, frame) Hashtbl.t;
  mutable timer_armed : bool;
  mutable rx_expected : int;
  rx_buffer : (int, frame) Hashtbl.t;
}

type t = {
  engine : Sim.Engine.t;
  plan : Fault.Plan.t;
  cfg : config;
  phys : at:float -> src_node:int -> dst_node:int -> size:int -> (float -> unit) -> unit;
  pulse : int -> unit;
  chans : (int * int, chan) Hashtbl.t;
  stats : (int * int, link_stats) Hashtbl.t;
}

let create ~engine ~plan ~cfg ~phys ~pulse =
  { engine; plan; cfg; phys; pulse; chans = Hashtbl.create 16; stats = Hashtbl.create 16 }

let chan t src dst =
  match Hashtbl.find_opt t.chans (src, dst) with
  | Some c -> c
  | None ->
      let c =
        {
          c_src = src;
          c_dst = dst;
          tx_next = 0;
          unacked = Hashtbl.create 16;
          timer_armed = false;
          rx_expected = 0;
          rx_buffer = Hashtbl.create 16;
        }
      in
      Hashtbl.replace t.chans (src, dst) c;
      c

let lstats t src dst =
  match Hashtbl.find_opt t.stats (src, dst) with
  | Some s -> s
  | None ->
      let s = fresh_stats () in
      Hashtbl.replace t.stats (src, dst) s;
      s

let rto t fr =
  Float.min (t.cfg.timeout *. (t.cfg.backoff ** float_of_int (fr.f_attempts - 1))) t.cfg.rto_cap

(* Put a frame (or one injected copy of it) on the raw channel and run
   [k] at its possibly-delayed arrival.  Faulted frames still occupy the
   sender's link: a frame lost downstream was transmitted all the same. *)
let faulted_phys t ~at ~src ~dst ~size st k =
  match Fault.Plan.decide t.plan ~src ~dst with
  | Fault.Plan.Drop ->
      Sim.Stats.incr_counter st.s_inj_dropped;
      t.phys ~at ~src_node:src ~dst_node:dst ~size (fun _ -> ())
  | Fault.Plan.Corrupt ->
      (* The checksum in the frame header catches the damage at the
         receiver, which discards the frame; retransmission repairs it. *)
      Sim.Stats.incr_counter st.s_inj_corrupted;
      t.phys ~at ~src_node:src ~dst_node:dst ~size (fun _ -> ())
  | Fault.Plan.Duplicate ->
      Sim.Stats.incr_counter st.s_inj_duplicated;
      t.phys ~at ~src_node:src ~dst_node:dst ~size k;
      t.phys ~at ~src_node:src ~dst_node:dst ~size k
  | Fault.Plan.Delay extra ->
      Sim.Stats.incr_counter st.s_inj_delayed;
      t.phys ~at ~src_node:src ~dst_node:dst ~size (fun arr ->
          let label =
            { Sim.Engine.lbl_node = dst; lbl_block = -1; lbl_kind = Sim.Engine.Message }
          in
          Sim.Engine.at t.engine ~label (arr +. extra) (fun () -> k (arr +. extra)))
  | Fault.Plan.Deliver -> t.phys ~at ~src_node:src ~dst_node:dst ~size k

let send_ack t ch seq ~at =
  (* Acks travel (and are faulted) on the reverse link. *)
  let st = lstats t ch.c_dst ch.c_src in
  Sim.Stats.incr_counter st.s_acks_sent;
  let deliver_ack arr =
    if Fault.Plan.node_down t.plan ~node:ch.c_src ~at:arr then
      Sim.Stats.incr_counter st.s_outage_dropped
    else
      match Hashtbl.find_opt ch.unacked seq with
      | Some fr ->
          fr.f_acked <- true;
          Hashtbl.remove ch.unacked seq
      | None -> () (* duplicate ack *)
  in
  faulted_phys t ~at ~src:ch.c_dst ~dst:ch.c_src ~size:t.cfg.ack_size st deliver_ack

let rec transmit t ch fr ~at =
  let st = lstats t ch.c_src ch.c_dst in
  if fr.f_attempts = 0 then Sim.Stats.incr_counter st.s_data_sent
  else Sim.Stats.incr_counter st.s_retransmits;
  fr.f_attempts <- fr.f_attempts + 1;
  fr.f_last_tx <- at;
  if Fault.Plan.node_down t.plan ~node:ch.c_src ~at then
    (* The sending node is stalled: the store to the transmit region
       never happens.  The retransmit timer recovers after the stall. *)
    Sim.Stats.incr_counter st.s_outage_dropped
  else
    faulted_phys t ~at ~src:ch.c_src ~dst:ch.c_dst ~size:(fr.f_size + t.cfg.header_size) st
      (fun arr -> rx t ch fr arr);
  arm_timer t ch ~at

and rx t ch fr arrival =
  let st = lstats t ch.c_src ch.c_dst in
  if Fault.Plan.node_down t.plan ~node:ch.c_dst ~at:arrival then
    Sim.Stats.incr_counter st.s_outage_dropped
  else begin
    send_ack t ch fr.f_seq ~at:arrival;
    if fr.f_seq < ch.rx_expected || Hashtbl.mem ch.rx_buffer fr.f_seq then
      Sim.Stats.incr_counter st.s_dup_suppressed
    else begin
      Hashtbl.replace ch.rx_buffer fr.f_seq fr;
      let delivered = ref false in
      let continue = ref true in
      while !continue do
        match Hashtbl.find_opt ch.rx_buffer ch.rx_expected with
        | Some f ->
            Hashtbl.remove ch.rx_buffer ch.rx_expected;
            ch.rx_expected <- ch.rx_expected + 1;
            f.f_deliver ();
            delivered := true
        | None -> continue := false
      done;
      if !delivered then t.pulse ch.c_dst
    end
  end

(* One check event per channel, armed only while frames are unacked, so
   a quiescent cluster has no pending transport events and the run's
   final virtual time is dragged out by at most one [timeout]. *)
and arm_timer t ch ~at =
  if not ch.timer_armed then begin
    ch.timer_armed <- true;
    let label =
      { Sim.Engine.lbl_node = ch.c_src; lbl_block = -1; lbl_kind = Sim.Engine.Timer }
    in
    Sim.Engine.at t.engine ~label (at +. t.cfg.timeout) (fun () ->
        ch.timer_armed <- false;
        if Hashtbl.length ch.unacked > 0 then begin
          let now = Sim.Engine.now t.engine in
          let due =
            Hashtbl.fold
              (fun _ fr acc -> if now -. fr.f_last_tx >= rto t fr then fr :: acc else acc)
              ch.unacked []
          in
          (* Hashtbl.fold order is unspecified; retransmit in sequence
             order so link occupancy (and rng draws) stay deterministic. *)
          let due = List.sort (fun a b -> compare a.f_seq b.f_seq) due in
          List.iter
            (fun fr ->
              if fr.f_attempts > t.cfg.max_retries then
                raise
                  (Link_failed
                     { src = ch.c_src; dst = ch.c_dst; seq = fr.f_seq; attempts = fr.f_attempts });
              transmit t ch fr ~at:now)
            due;
          arm_timer t ch ~at:now
        end)
  end

let send t ~at ~src_node ~dst_node ~size deliver =
  let ch = chan t src_node dst_node in
  let fr =
    {
      f_seq = ch.tx_next;
      f_size = size;
      f_deliver = deliver;
      f_attempts = 0;
      f_last_tx = at;
      f_acked = false;
    }
  in
  ch.tx_next <- ch.tx_next + 1;
  Hashtbl.replace ch.unacked fr.f_seq fr;
  transmit t ch fr ~at

(* --- reporting --- *)

type totals = {
  data_sent : int;
  retransmits : int;
  acks_sent : int;
  inj_dropped : int;
  inj_duplicated : int;
  inj_corrupted : int;
  inj_delayed : int;
  dup_suppressed : int;
  outage_dropped : int;
}

let totals_of st =
  let v = Sim.Stats.counter_value in
  {
    data_sent = v st.s_data_sent;
    retransmits = v st.s_retransmits;
    acks_sent = v st.s_acks_sent;
    inj_dropped = v st.s_inj_dropped;
    inj_duplicated = v st.s_inj_duplicated;
    inj_corrupted = v st.s_inj_corrupted;
    inj_delayed = v st.s_inj_delayed;
    dup_suppressed = v st.s_dup_suppressed;
    outage_dropped = v st.s_outage_dropped;
  }

let per_link t =
  Hashtbl.fold (fun link st acc -> (link, totals_of st) :: acc) t.stats []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let totals t =
  List.fold_left
    (fun acc (_, x) ->
      {
        data_sent = acc.data_sent + x.data_sent;
        retransmits = acc.retransmits + x.retransmits;
        acks_sent = acc.acks_sent + x.acks_sent;
        inj_dropped = acc.inj_dropped + x.inj_dropped;
        inj_duplicated = acc.inj_duplicated + x.inj_duplicated;
        inj_corrupted = acc.inj_corrupted + x.inj_corrupted;
        inj_delayed = acc.inj_delayed + x.inj_delayed;
        dup_suppressed = acc.dup_suppressed + x.dup_suppressed;
        outage_dropped = acc.outage_dropped + x.outage_dropped;
      })
    {
      data_sent = 0;
      retransmits = 0;
      acks_sent = 0;
      inj_dropped = 0;
      inj_duplicated = 0;
      inj_corrupted = 0;
      inj_delayed = 0;
      dup_suppressed = 0;
      outage_dropped = 0;
    }
    (per_link t)

let node_outage_drops t node =
  List.fold_left
    (fun acc ((src, dst), x) ->
      if src = node || dst = node then acc + x.outage_dropped else acc)
    0 (per_link t)

let pp_totals ppf x =
  Format.fprintf ppf
    "sent %d  retx %d  acks %d  injected drop/dup/corrupt/delay %d/%d/%d/%d  dup-suppressed %d  outage-drops %d"
    x.data_sent x.retransmits x.acks_sent x.inj_dropped x.inj_duplicated x.inj_corrupted
    x.inj_delayed x.dup_suppressed x.outage_dropped

let pp_report ppf t =
  Format.fprintf ppf "reliable transport (%a):@." Fault.Plan.pp t.plan;
  List.iter
    (fun ((src, dst), x) -> Format.fprintf ppf "  link %d->%d: %a@." src dst pp_totals x)
    (per_link t);
  Format.fprintf ppf "  total: %a" pp_totals (totals t)
