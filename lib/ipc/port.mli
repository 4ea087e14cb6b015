(** Ports: protected communication channels with exactly one receiver and
    one or more senders (paper, section 3).

    Kernel abstractions are exported to user tasks by ports; if the
    abstraction is not a port, the port data structure contains a pointer
    to the actual object, and that pointer carries a reference to the
    object (section 10).  Operations on objects are invoked by sending
    messages to the corresponding port.

    A port is itself a kernel object: it has a simple lock, a reference
    count and a deactivation flag (a deactivated port is a {e dead}
    port).  The represented-object pointer is installed and removed under
    the port lock — removal is step 2 of the shutdown protocol, disabling
    port-to-object translation.

    Simplification vs. Mach (documented in DESIGN.md): there are no
    per-task port name spaces or send/receive right counters; holders keep
    OCaml references to the port structure and the reference count covers
    them uniformly. *)

type t

type element =
  | Int of int
  | Str of string
  | Port_right of t
      (** a port right carried in a message: the message holds a port
          reference while queued *)

type message = {
  msg_op : int;          (** operation / MiG routine id *)
  reply_to : t option;
  body : element list;
}

type send_error = [ `Dead_port ]
type receive_error = [ `Dead_port | `Would_block ]

val create : ?name:string -> ?queue_limit:int -> unit -> t
(** A new active port with one reference (its creator's). *)

val name : t -> string
val uid : t -> int
val kobj : t -> Mach_ksync.Kobj.t
val reference : t -> unit
val release : t -> unit
val ref_count : t -> int
val is_active : t -> bool

(** {1 The represented object} *)

val set_object : t -> Mach_ksync.Kobj.t -> unit
(** Install the object pointer; consumes one reference to the object
    (the pointer's reference, section 8). *)

val clear_object : t -> Mach_ksync.Kobj.t option
(** Remove the pointer and return the object so the caller can release
    the pointer's reference — shutdown step 2 (section 10). *)

val translate : t -> Mach_ksync.Kobj.t option
(** Port-to-object translation: under the port lock, clone a reference to
    the represented object (the MiG-generated step 2 of a kernel
    operation, section 10).  [None] if the port is dead or represents no
    object. *)

(** {1 Messages} *)

val send : t -> message -> (unit, send_error) result
(** Enqueue; blocks when the queue is full until space is available.
    Sending to a dead port fails.  A queued message holds a reference to
    the port (the paper's step 1: "this message contains a reference to
    the port from which it was received") and to any port rights in its
    body. *)

val try_send : t -> message -> (unit, [ send_error | `Would_block ]) result

val receive : ?spin:int -> t -> (message, receive_error) result
(** Dequeue one message: {!receive_batch} with [max] = 1.  Blocks while
    the queue is empty.  With [spin] > 0 the empty queue is first probed
    up to [spin] times with an unlocked peek (one pause per probe) before
    the receiver commits to the sleep/wakeup machinery — the
    spin-then-block discipline of the RPC hot path.  The returned
    message's port references are transferred to the caller (release
    them via {!destroy_message} or keep the rights). *)

val try_receive : t -> (message, receive_error) result
(** Like {!receive}, but an empty queue fails with [`Would_block]. *)

val receive_batch : ?spin:int -> t -> max:int -> (message list, receive_error) result
(** Dequeue up to [max] messages under a single port-lock acquisition
    (batched dispatch: the lock hold is amortized across the batch).
    Blocks like {!receive} while the queue is empty, with the same
    [spin] probing; always returns at least one message on [Ok].  FIFO
    order is preserved. *)

val try_receive_batch : t -> max:int -> (message list, receive_error) result
(** Like {!receive_batch}, but an empty queue fails with [`Would_block]. *)

val queued : t -> int

val destroy_message : message -> unit
(** Release the port references a received message carries (the "internal
    destruction of original message releases the port reference" of
    section 10, step 5). *)

(** {1 Death} *)

val destroy : t -> unit
(** Deactivate the port: pending and future senders/receivers fail with
    [`Dead_port]; queued messages are destroyed; the represented-object
    pointer (if any) is cleared and its reference released.  The port data
    structure itself persists until its last reference is released. *)

val destroy_drain : t -> message list
(** Deactivate like {!destroy}, but return the in-flight messages (FIFO)
    instead of destroying them, so a server shutting down under load can
    reply to each — without this, clients blocked on their reply ports
    would sleep forever.  The caller owns the returned messages' rights
    and must consume them (reply, then {!destroy_message}).  Returns []
    if the port was already dead. *)
