(** The kernel facade: boot, the host port, and the kernel RPC server.

    "Most kernel operations are invoked by sending messages to the
    kernel" (paper, section 3); this module wires the pieces together: a
    host port for machine-wide operations, per-object ports for object
    operations, and a kernel server thread executing the section 10
    sequence via {!Mach_ipc.Mig}.

    Must be used inside a running simulation ({!Mach_sim.Sim_engine.run}). *)

type t

(** Routine ids understood by the kernel server.

    [host_info], [task_create] and [null_op] are invoked on the host
    port; the rest on a task port.  [task_terminate] follows the
    Mach 3.0 convention of consuming the translated object reference on
    success (section 10). *)
module Op : sig
  val host_info : int
  val task_create : int
  val task_terminate : int
  val task_suspend : int
  val task_resume : int
  val task_info : int
  val vm_allocate : int
  val vm_deallocate : int
  val vm_wire : int
  val null_op : int
end

val start : ?pages:int -> ?name:string -> unit -> t
(** Create the kernel: VM context, kernel task, host port, dispatch
    table, and a kernel server thread serving the host port and every
    task port registered through {!serve_port}. *)

val shutdown : t -> unit
(** Stop the server threads and destroy the host port. *)

val host_port : t -> Mach_ipc.Port.t
val vm_context : t -> Mach_vm.Vm_map.context
val kernel_task : t -> Mach_kern.Task.t
val registry : t -> Mach_ipc.Mig.registry

val serve_port : t -> Mach_ipc.Port.t -> unit
(** Spawn an additional kernel server thread on the given port (task
    ports need one so operations on them are dispatched). *)

(** {1 Convenience client wrappers (they perform real RPCs)} *)

val rpc_task_create : t -> (Mach_ipc.Port.t, string) result
(** Returns the new task's port (a send right). *)

val rpc_task_terminate : Mach_ipc.Port.t -> (unit, string) result
val rpc_vm_allocate : Mach_ipc.Port.t -> size:int -> (int, string) result
val rpc_vm_wire : Mach_ipc.Port.t -> va:int -> pages:int -> (unit, string) result
val rpc_null : t -> (unit, string) result
