(** A MiG analog: the Mach Interface Generator produced stub code that
    packs/unpacks messages and performs the port-to-object translation, so
    programmers never handled message formats directly (paper, section 3).

    Here, [routine] registrations play the role of the generated server
    stubs, {!call} plays the client stub (the msg_rpc pair of messages:
    request + reply = one RPC, section 10), and {!serve_batch}/{!serve_loop}
    run the kernel side of the section 10 sequence:

    + receive the request message (it carried a reference to the port);
    + determine the represented object from the port and obtain a
      reference to it (the translation the stubs generate);
    + run the operation (which takes/releases the object lock as needed);
    + release the object reference — in Mach 2.5 style the interface code
      always releases it; in Mach 3.0 style a {e successful} operation
      consumes the reference and the interface code releases it only on
      failure;
    + send the reply carrying the result. *)

type args = Port.element list

type reply = (args, int) result
(** [Error code] is returned to the caller as a failure code (e.g. an
    operation on a deactivated object, section 9). *)

type routine = {
  routine_id : int;
  routine_name : string;
  handler : Mach_ksync.Kobj.t option -> args -> reply;
      (** receives the translated object (with a reference held for the
          duration of the operation) and the request body *)
  consumes_reference : bool;
      (** Mach 3.0 convention: a successful operation consumes the object
          reference itself (e.g. termination), so the interface code must
          not release it. *)
}

type registry

val make_registry : unit -> registry

val register :
  registry ->
  ?consumes_reference:bool ->
  id:int ->
  name:string ->
  (Mach_ksync.Kobj.t option -> args -> reply) ->
  unit

val lookup : registry -> int -> routine option

(** {1 Client side} *)

type call_error = [ `Dead_port | `Server_failure of int ]

val call :
  ?poll:int ->
  ?reply_port:Port.t ->
  Port.t ->
  id:int ->
  args ->
  (args, call_error) result
(** Synchronous RPC: send the request, wait for the reply.  The wait
    probes the reply port up to [poll] times (default 512) before
    blocking — a short RPC's reply arrives within the window, skipping
    the sleep/wakeup machinery entirely; [poll:0] blocks immediately.
    Without [reply_port] a fresh reply port is allocated and destroyed
    per call; passing one (Mach's cached per-thread reply port,
    mig_get_reply_port) skips that allocation — the caller owns it, must
    not use it for two calls at once, and destroys it when done.
    Ownership of any port rights in the returned results transfers to
    the caller, which must release them. *)

val send_async : Port.t -> id:int -> args -> (unit, [ `Dead_port ]) result
(** One-way message, no reply expected. *)

(** {1 Server side} *)

val dispatch : registry -> Port.t -> Port.message -> unit
(** Steps 2–5 of the section 10 sequence for an already-received request:
    translate, run the routine, balance the object reference, reply, and
    release the body rights.  Exposed for servers that receive messages
    themselves. *)

val serve_batch :
  ?spin:int -> registry -> Port.t -> max:int -> (int, [ `Dead_port ]) result
(** Batched dispatch: receive up to [max] requests under a single
    port-lock acquisition ({!Port.receive_batch}) and dispatch each.
    Blocks while the queue is empty, probing it [spin] times before it
    sleeps; [Ok n] is the number served (1 <= n <= max). *)

val serve_loop :
  ?stop:(unit -> bool) -> ?batch:int -> ?spin:int -> registry -> Port.t -> unit
(** Serve until the port dies or [stop ()] becomes true (checked between
    receives), one {!serve_batch} of up to [batch] requests per
    iteration (default 1, one request per port-lock acquisition); [spin]
    (default 256) probes an empty queue before sleeping. *)

val drain : Port.t -> int
(** Shutdown under load: deactivate the service port
    ({!Port.destroy_drain}) and reply [err_deactivated] to every in-flight
    request so no client sleeps forever on its reply port and no carried
    right leaks.  Returns the number of requests drained. *)

(** {1 Well-known failure codes} *)

val err_deactivated : int
val err_no_such_routine : int
val err_bad_arguments : int
