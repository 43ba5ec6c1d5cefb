(** Trace oracle: record per-block load/store/value traces from
    {!Shasta.Runtime} and decide whether they are explainable by a
    sequentially-consistent interleaving.

    One witness search over the per-process program orders, asked two
    questions:

    - {e SC per location} (coherence): for every shared address in
      isolation there must be an interleaving of the per-process access
      sequences in which each load returns the most recent store's
      value (initially 0 — the shared region starts zeroed).  Required
      under both the [Sc] and [Rc] models: it is exactly the cache
      coherence the protocol promises.
    - {e full SC}: one interleaving over all addresses at once.  Only
      demanded of [Sc]-model runs; an [Rc] trace may legally have none.

    Both questions over-approximate in one deliberate direction — an
    extra interleaving can only mask a violation, never invent one — so
    a [No_witness] verdict is always a real violation, while running out
    of budget is reported as nothing at all. *)

type event = {
  ev_pid : int;
  ev_addr : int;
  ev_store : bool;
  ev_value : int64;
  ev_time : float;
}

type t = { mutable rev_events : event list; mutable n : int }

let create () = { rev_events = []; n = 0 }

let length t = t.n

(** [attach t h] — route every traced shared access of [h] into [t]. *)
let attach t (h : Shasta.Runtime.t) =
  h.Shasta.Runtime.on_access <-
    Some
      (fun (a : Shasta.Runtime.access) ->
        t.n <- t.n + 1;
        t.rev_events <-
          {
            ev_pid = a.Shasta.Runtime.acc_pid;
            ev_addr = a.Shasta.Runtime.acc_addr;
            ev_store = a.Shasta.Runtime.acc_store;
            ev_value = a.Shasta.Runtime.acc_value;
            ev_time = a.Shasta.Runtime.acc_time;
          }
          :: t.rev_events)

let events t = List.rev t.rev_events

(* Stutter reduction: a run of identical adjacent loads (same pid, addr
   and value, nothing of that pid in between) is witness-equivalent to a
   single load — duplicates can always be replayed back-to-back.  This
   collapses the thousands of spin-loop reads a litmus trace carries
   into a handful of events, keeping the searches tractable. *)
let compress_pid_row evs =
  let rec go acc = function
    | [] -> List.rev acc
    | e :: rest -> (
        match acc with
        | prev :: _
          when (not e.ev_store) && (not prev.ev_store) && prev.ev_addr = e.ev_addr
               && prev.ev_value = e.ev_value ->
            go acc rest
        | _ -> go (e :: acc) rest)
  in
  go [] evs

(* Per-pid rows (program order), stutter-compressed, as arrays. *)
let rows evs =
  let pids = List.sort_uniq compare (List.map (fun e -> e.ev_pid) evs) in
  Array.of_list
    (List.map
       (fun p ->
         Array.of_list
           (compress_pid_row (List.filter (fun e -> e.ev_pid = p) evs)))
       pids)

type verdict = Witness | No_witness | Out_of_budget

(* DFS over index vectors: the state is each process's position plus
   the value of every address the rows touch (initially 0); loads must
   match it, stores replace it.  Memoised on the positions and the
   whole valuation, one slot per address, so two different memories
   never share a key. *)
let explain ~max_states per =
  let n = Array.length per in
  let idx = Array.make n 0 in
  let slot = Hashtbl.create 16 in
  Array.iter
    (Array.iter (fun e ->
         if not (Hashtbl.mem slot e.ev_addr) then Hashtbl.add slot e.ev_addr (Hashtbl.length slot)))
    per;
  let mem = Array.make (Hashtbl.length slot) 0L in
  let visited = Hashtbl.create 997 in
  let states = ref 0 in
  let exception Found in
  let exception Budget in
  let rec go () =
    let key = (Array.to_list idx, Array.to_list mem) in
    if not (Hashtbl.mem visited key) then begin
      incr states;
      if !states > max_states then raise Budget;
      Hashtbl.add visited key ();
      let all_done = ref true in
      for i = 0 to n - 1 do
        if idx.(i) < Array.length per.(i) then begin
          all_done := false;
          let e = per.(i).(idx.(i)) in
          let a = Hashtbl.find slot e.ev_addr in
          idx.(i) <- idx.(i) + 1;
          (if e.ev_store then begin
             let old = mem.(a) in
             mem.(a) <- e.ev_value;
             go ();
             mem.(a) <- old
           end
           else if mem.(a) = e.ev_value then go ());
          idx.(i) <- idx.(i) - 1
        end
      done;
      if !all_done then raise Found
    end
  in
  try
    go ();
    No_witness
  with
  | Found -> Witness
  | Budget -> Out_of_budget

(** [check ?full t] — the violations the recorded trace proves (empty =
    explainable, or search budget exhausted, which never convicts).
    [full] additionally demands one global SC witness; only ask that of
    [Sc]-model runs.  Each per-location search may visit 200,000
    states, the global one 400,000. *)
let check ?(full = false) t =
  let evs = events t in
  let violations = ref [] in
  let addrs = List.sort_uniq compare (List.map (fun e -> e.ev_addr) evs) in
  List.iter
    (fun addr ->
      let ops = List.filter (fun e -> e.ev_addr = addr) evs in
      match explain ~max_states:200_000 (rows ops) with
      | Witness | Out_of_budget -> ()
      | No_witness ->
          violations :=
            Printf.sprintf "trace: addr 0x%x has no per-location SC witness (%d events)"
              addr (List.length ops)
            :: !violations)
    addrs;
  if full then begin
    match explain ~max_states:400_000 (rows evs) with
    | Witness | Out_of_budget -> ()
    | No_witness ->
        violations :=
          Printf.sprintf "trace: no global SC witness (%d events)" (List.length evs)
          :: !violations
  end;
  List.rev !violations
