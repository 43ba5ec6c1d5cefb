(** Broadcast wake-up signals.

    A [Signal.t] carries no data; it wakes everything currently waiting on
    it.  Simulated processes stalled on a shared-miss reply wait on their
    node's message-arrival signal so that simulated time jumps straight to
    the next arrival instead of busy-polling in zero-length steps. *)

type t = {
  engine : Engine.t;
  label : Engine.label;
      (** footprint stamped on waiter wake-up events (a per-node signal
          passes its node so a Guided explorer can classify the wake) *)
  mutable waiters : (unit -> unit) list;
}

let create ?(label = Engine.no_label) engine = { engine; label; waiters = [] }

(** [wait t f] registers [f] to be called (as an event at the pulse time)
    on the next pulse. *)
let wait t f = t.waiters <- f :: t.waiters

(** [pulse t] wakes every waiter registered so far.  Waiters registered
    during the pulse (e.g. a woken process immediately waiting again) are
    kept for the next pulse. *)
let pulse_here t =
  match t.waiters with
  | [] -> ()
  | ws ->
      t.waiters <- [];
      (* Fire in registration order for determinism. *)
      List.iter (fun f -> Engine.after t.engine ~label:t.label 0.0 f) (List.rev ws)

let pulse t =
  (* In parallel mode a pulse of another node's signal must not touch
     that lane's waiter list from here: defer the whole pulse to the
     window barrier, which replays it in the target lane's context. *)
  if Engine.par_foreign t.engine t.label then
    Engine.par_defer_pulse t.engine t.label (fun () -> pulse_here t)
  else pulse_here t
