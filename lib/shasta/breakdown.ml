(** Per-process execution-time breakdowns (Figures 4 and 5).

    Categories follow the paper: time executing the application ("task"),
    time stalled for reads, for writes, waiting at memory barriers,
    synchronisation stalls (locks/barriers), time explicitly blocked
    (e.g. [pid_block] or I/O), and time handling messages while not
    stalled. *)

type t = {
  mutable task : float;
  mutable read : float;
  mutable write : float;
  mutable mb : float;
  mutable sync : float;
  mutable blocked : float;
  mutable msg : float;
}

let empty () =
  { task = 0.0; read = 0.0; write = 0.0; mb = 0.0; sync = 0.0; blocked = 0.0; msg = 0.0 }

let total b = b.task +. b.read +. b.write +. b.mb +. b.sync +. b.blocked +. b.msg

let add a b =
  {
    task = a.task +. b.task;
    read = a.read +. b.read;
    write = a.write +. b.write;
    mb = a.mb +. b.mb;
    sync = a.sync +. b.sync;
    blocked = a.blocked +. b.blocked;
    msg = a.msg +. b.msg;
  }

let scale k b =
  {
    task = k *. b.task;
    read = k *. b.read;
    write = k *. b.write;
    mb = k *. b.mb;
    sync = k *. b.sync;
    blocked = k *. b.blocked;
    msg = k *. b.msg;
  }

(** [normalize ~against b] expresses [b] as percentages of [against]'s
    total (the Figure 4/5 presentation, where one bar is 100%). *)
let normalize ~against b = scale (100.0 /. total against) b

(** [table ~title ~key rows] — one row per named breakdown, keyed in
    column [key], each category a percentage of that row's own total. *)
let table ~title ~key rows =
  let row (name, b) =
    let b = normalize ~against:b b in
    ( name,
      List.map
        (fun x -> Sim.Stats.Float x)
        [ b.task; b.read; b.write; b.mb; b.sync; b.blocked; b.msg ] )
  in
  {
    Sim.Stats.title;
    columns =
      [ key; "task_pct"; "read_pct"; "write_pct"; "mb_pct"; "sync_pct"; "blocked_pct"; "msg_pct" ];
    rows = List.map row rows;
  }
