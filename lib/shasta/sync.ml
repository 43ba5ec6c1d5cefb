(** Message-passing synchronisation (the "MP" locks and barriers of
    Section 6.2).

    These are the high-level primitives Shasta offers alongside the
    transparent LL/SC path: locks are queue-based — the manager hands the
    lock directly to the next waiter on release, which is why MP locks
    beat the shared-memory LL/SC locks under contention (Table 1) — and
    barriers are centralised with a broadcast release.

    Lock and barrier managers are distributed over the registered
    processes round-robin by id.  Messages travel over the same Memory
    Channel model as the coherence protocol and are serviced from a
    per-node mailbox by whichever local process polls first. *)

module Itbl = Protocol.Ptypes.Itbl
module Ids = Protocol.Ptypes.Ids

type msg =
  | Acquire of { lock : int; from : int }
  | Release of { lock : int }
  | Grant of { lock : int; to_pid : int }
  | Arrive of { barrier : int; from : int; parties : int }
  | Proceed of { barrier : int; to_pid : int; gen : int }

type lock_state = { mutable taken : bool; waiters : int Queue.t }

type barrier_state = { mutable gen : int; mutable arrived : int list }

type endpoint = {
  ep_pid : int;
  ep_node : int;
  granted : unit Itbl.t;
  reached_gen : int Itbl.t;  (** barrier -> last generation passed *)
  next_gen : int Itbl.t;
  mutable sync_stall : float;  (** accumulated synchronisation stall time *)
}

type t = {
  net : Mchan.Net.t;
  costs : Protocol.Config.costs;
  node_box : msg Mchan.Mailbox.t array;
  mutable order : int list;  (** registration order (most recent first) *)
  mutable pids : int array;  (** [order] reversed, rebuilt on register *)
  eps : endpoint Ids.t;
  (* Lock and barrier state tables are sharded by the manager's node:
     a given id's state lives in its manager node's table, so in
     parallel mode each table is only ever grown and mutated by that
     node's lane. *)
  locks : lock_state Itbl.t array;
  barriers : barrier_state Itbl.t array;
  messages_by_node : int array;  (** per sending node; accessor sums *)
}

let create ~net ~costs =
  let nodes = (Mchan.Net.config net).Mchan.Net.nodes in
  {
    net;
    costs;
    node_box = Array.init nodes (fun _ -> Mchan.Mailbox.create ());
    order = [];
    pids = [||];
    eps = Ids.create ();
    locks = Array.init nodes (fun _ -> Itbl.create 16);
    barriers = Array.init nodes (fun _ -> Itbl.create 8);
    messages_by_node = Array.make nodes 0;
  }

let register t ~pid ~node =
  let ep =
    {
      ep_pid = pid;
      ep_node = node;
      granted = Itbl.create 8;
      reached_gen = Itbl.create 8;
      next_gen = Itbl.create 8;
      sync_stall = 0.0;
    }
  in
  Ids.replace t.eps pid ep;
  t.order <- pid :: t.order;
  t.pids <- Array.of_list (List.rev t.order);
  ep

let endpoint t pid = Ids.find t.eps pid

(** Managers are assigned round-robin over registration order. *)
let manager_of t id = t.pids.(id mod Array.length t.pids)

(* [node] must be the manager's node — the shard all of this id's state
   lives in (callers are either the servicing handler at that node or
   the manager's own fast path). *)
let lock_state t ~node l =
  let tbl = t.locks.(node) in
  match Itbl.find_opt tbl l with
  | Some s -> s
  | None ->
      let s = { taken = false; waiters = Queue.create () } in
      Itbl.replace tbl l s;
      s

let barrier_state t ~node b =
  let tbl = t.barriers.(node) in
  match Itbl.find_opt tbl b with
  | Some s -> s
  | None ->
      let s = { gen = 0; arrived = [] } in
      Itbl.replace tbl b s;
      s

let send t ~cur ~from_node msg ~to_node =
  t.messages_by_node.(from_node) <- t.messages_by_node.(from_node) + 1;
  Mchan.Net.send t.net ~at:!cur ~src_node:from_node ~dst_node:to_node ~size:32 (fun () ->
      Mchan.Mailbox.push t.node_box.(to_node) msg)

(* Message handlers run in poll (scheduler) context with a time cursor. *)
let handle t ~cur ~node msg =
  let c = t.costs.Protocol.Config.lock_acquire_queue in
  cur := !cur +. c;
  match msg with
  | Acquire { lock; from } ->
      let s = lock_state t ~node lock in
      if s.taken then Queue.push from s.waiters
      else begin
        s.taken <- true;
        let ep = endpoint t from in
        send t ~cur ~from_node:node (Grant { lock; to_pid = from }) ~to_node:ep.ep_node
      end
  | Release { lock } ->
      let s = lock_state t ~node lock in
      (match Queue.take_opt s.waiters with
      | Some next ->
          (* Queue-based handoff: the lock passes directly to the next
             waiter without going free. *)
          let ep = endpoint t next in
          send t ~cur ~from_node:node (Grant { lock; to_pid = next }) ~to_node:ep.ep_node
      | None -> s.taken <- false)
  | Grant { lock; to_pid } -> Itbl.replace (endpoint t to_pid).granted lock ()
  | Arrive { barrier; from; parties } ->
      let s = barrier_state t ~node barrier in
      s.arrived <- from :: s.arrived;
      if List.length s.arrived >= parties then begin
        s.gen <- s.gen + 1;
        let gen = s.gen in
        List.iter
          (fun pid ->
            let ep = endpoint t pid in
            send t ~cur ~from_node:node (Proceed { barrier; to_pid = pid; gen }) ~to_node:ep.ep_node)
          s.arrived;
        s.arrived <- []
      end
  | Proceed { barrier; to_pid; gen } ->
      Itbl.replace (endpoint t to_pid).reached_gen barrier gen

(* Drain the node's sync mailbox; returns the CPU seconds consumed. *)
let service_slow t ~node =
  let start = Sim.Engine.now (Mchan.Net.engine t.net) in
  let cur = ref start in
  let rec drain () =
    match Mchan.Mailbox.pop t.node_box.(node) with
    | None -> ()
    | Some msg ->
        handle t ~cur ~node msg;
        drain ()
  in
  drain ();
  !cur -. start

(** [service t ~node] — the poll hook: drains the node's sync mailbox and
    returns CPU seconds consumed.  Idle polls skip the allocating drain. *)
let service t ~node =
  if Mchan.Mailbox.is_empty t.node_box.(node) then 0.0 else service_slow t ~node

let stall_sync ep net pred =
  let eng = Mchan.Net.engine net in
  let t0 = Sim.Engine.now eng in
  Sim.Proc.stall pred;
  ep.sync_stall <- ep.sync_stall +. (Sim.Engine.now eng -. t0)

(* Fiber-side operations. *)

(** [acquire t ep lock] — acquire a queue-based MP lock.  The fast path
    (this process manages the lock and it is free) costs about one
    microsecond and no messages. *)
let acquire t ep lock =
  let mgr = manager_of t lock in
  if mgr = ep.ep_pid && not (lock_state t ~node:ep.ep_node lock).taken then begin
    (lock_state t ~node:ep.ep_node lock).taken <- true;
    Sim.Proc.work t.costs.Protocol.Config.lock_acquire_queue
  end
  else begin
    let cur = ref (Sim.Engine.now (Mchan.Net.engine t.net)) in
    send t ~cur ~from_node:ep.ep_node
      (Acquire { lock; from = ep.ep_pid })
      ~to_node:(endpoint t mgr).ep_node;
    Sim.Proc.work t.costs.Protocol.Config.send;
    stall_sync ep t.net (fun () -> Itbl.mem ep.granted lock);
    Itbl.remove ep.granted lock
  end

let release t ep lock =
  let mgr = manager_of t lock in
  if mgr = ep.ep_pid && Queue.is_empty (lock_state t ~node:ep.ep_node lock).waiters then begin
    (lock_state t ~node:ep.ep_node lock).taken <- false;
    Sim.Proc.work (t.costs.Protocol.Config.lock_acquire_queue /. 2.0)
  end
  else begin
    let cur = ref (Sim.Engine.now (Mchan.Net.engine t.net)) in
    send t ~cur ~from_node:ep.ep_node (Release { lock }) ~to_node:(endpoint t mgr).ep_node;
    Sim.Proc.work t.costs.Protocol.Config.send
  end

(** [barrier t ep ~id ~parties] — centralised sense-reversing barrier. *)
let barrier t ep ~id ~parties =
  let gen = Option.value (Itbl.find_opt ep.next_gen id) ~default:1 in
  Itbl.replace ep.next_gen id (gen + 1);
  let mgr = manager_of t id in
  let cur = ref (Sim.Engine.now (Mchan.Net.engine t.net)) in
  send t ~cur ~from_node:ep.ep_node
    (Arrive { barrier = id; from = ep.ep_pid; parties })
    ~to_node:(endpoint t mgr).ep_node;
  Sim.Proc.work t.costs.Protocol.Config.send;
  stall_sync ep t.net (fun () ->
      Option.value (Itbl.find_opt ep.reached_gen id) ~default:0 >= gen)

let messages t = Array.fold_left ( + ) 0 t.messages_by_node
