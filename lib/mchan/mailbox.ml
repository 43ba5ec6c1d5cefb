(** Per-process receive queues.

    The Memory Channel delivers messages into a region that the receiver
    polls; we model that as a FIFO mailbox per process.  In SMP-Shasta all
    processes assigned to the same node (or processor) can drain each
    other's mailboxes — see [Net.poll_node] — which is the paper's "shared
    message queues" mechanism (Section 4.3.2). *)

type 'a t = 'a Queue.t

let create () = Queue.create ()
let push t m = Queue.push m t
let pop t = Queue.take_opt t
let is_empty t = Queue.is_empty t
let length t = Queue.length t
