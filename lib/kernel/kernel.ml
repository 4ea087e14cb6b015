module Engine = Mach_sim.Sim_engine
module Kobj = Mach_ksync.Kobj
module Port = Mach_ipc.Port
module Mig = Mach_ipc.Mig
module Task = Mach_kern.Task
module Vm_map = Mach_vm.Vm_map

module Op = struct
  let host_info = 1
  let task_create = 2
  let task_terminate = 3
  let task_suspend = 4
  let task_resume = 5
  let task_info = 6
  let vm_allocate = 10
  let vm_deallocate = 11
  let vm_wire = 12
  let null_op = 99
end

type t = {
  ctx : Vm_map.context;
  ktask : Task.t;
  host : Port.t;
  reg : Mig.registry;
  stop : bool ref;
  mutable servers : Engine.thread list;
  mutable served_ports : Port.t list;
}

let host_port t = t.host
let vm_context t = t.ctx
let kernel_task t = t.ktask
let registry t = t.reg

let serve_port t port =
  Port.reference port;
  t.served_ports <- port :: t.served_ports;
  let server =
    Engine.spawn ~name:("server:" ^ Port.name port) (fun () ->
        Mig.serve_loop ~stop:(fun () -> !(t.stop)) t.reg port)
  in
  t.servers <- server :: t.servers

let task_of_obj obj =
  match Kobj.payload obj with
  | Task.Task_payload task -> Some task
  | _ -> None

let err_wrong_object = 1010
let err_vm = 1011

let install_routines t =
  let reg = t.reg in
  Mig.register reg ~id:Op.null_op ~name:"null_op" (fun _obj _args -> Ok []);
  Mig.register reg ~id:Op.host_info ~name:"host_info" (fun _obj _args ->
      Ok
        [
          Port.Int (Engine.cpu_count ());
          Port.Int (Mach_vm.Vm_page.total t.ctx.Vm_map.pool);
        ]);
  Mig.register reg ~id:Op.task_create ~name:"task_create"
    (fun _obj _args ->
      let task = Task.create t.ctx in
      let port = Option.get (Task.self_port task) in
      serve_port t port;
      (* The reply carries a right to the new task's port; the creator's
         task reference stays with the task until termination. *)
      Ok [ Port.Port_right port ]);
  Mig.register reg ~id:Op.task_terminate ~name:"task_terminate"
    ~consumes_reference:true (fun obj _args ->
      match Option.map task_of_obj obj |> Option.join with
      | None -> Error err_wrong_object
      | Some task -> (
          match Task.terminate task with
          | Ok () ->
              (* Mach 3.0 convention: success consumes the translation
                 reference (the interface code will not release it). *)
              (match obj with Some o -> Kobj.release o | None -> ());
              Ok []
          | Error `Deactivated -> Error Mig.err_deactivated));
  Mig.register reg ~id:Op.task_suspend ~name:"task_suspend"
    (fun obj _args ->
      match Option.map task_of_obj obj |> Option.join with
      | None -> Error err_wrong_object
      | Some task -> (
          match Task.suspend task with
          | Ok () -> Ok []
          | Error `Deactivated -> Error Mig.err_deactivated));
  Mig.register reg ~id:Op.task_resume ~name:"task_resume" (fun obj _args ->
      match Option.map task_of_obj obj |> Option.join with
      | None -> Error err_wrong_object
      | Some task -> (
          match Task.resume task with
          | Ok () -> Ok []
          | Error `Deactivated -> Error Mig.err_deactivated
          | Error `Not_suspended -> Error Mig.err_bad_arguments));
  Mig.register reg ~id:Op.task_info ~name:"task_info" (fun obj _args ->
      match Option.map task_of_obj obj |> Option.join with
      | None -> Error err_wrong_object
      | Some task ->
          Ok
            [
              Port.Int (Task.thread_count task);
              Port.Int (Vm_map.size (Task.map task));
              Port.Int (Task.suspend_count task);
            ]);
  Mig.register reg ~id:Op.vm_allocate ~name:"vm_allocate" (fun obj args ->
      match (Option.map task_of_obj obj |> Option.join, args) with
      | Some task, [ Port.Int size ] when size > 0 ->
          if not (Task.is_active task) then Error Mig.err_deactivated
          else Ok [ Port.Int (Vm_map.vm_allocate (Task.map task) ~size) ]
      | Some _, _ -> Error Mig.err_bad_arguments
      | None, _ -> Error err_wrong_object);
  Mig.register reg ~id:Op.vm_deallocate ~name:"vm_deallocate"
    (fun obj args ->
      match (Option.map task_of_obj obj |> Option.join, args) with
      | Some task, [ Port.Int va ] -> (
          match Vm_map.vm_deallocate (Task.map task) ~va with
          | Ok () -> Ok []
          | Error `No_entry -> Error err_vm)
      | Some _, _ -> Error Mig.err_bad_arguments
      | None, _ -> Error err_wrong_object);
  Mig.register reg ~id:Op.vm_wire ~name:"vm_wire" (fun obj args ->
      match (Option.map task_of_obj obj |> Option.join, args) with
      | Some task, [ Port.Int va; Port.Int pages ] -> (
          match Mach_vm.Vm_pageable.wire_rewritten (Task.map task) ~va ~pages with
          | Ok () -> Ok []
          | Error (`Bad_address | `Object_terminated | `Map_changed) ->
              Error err_vm)
      | Some _, _ -> Error Mig.err_bad_arguments
      | None, _ -> Error err_wrong_object)

let start ?(pages = 256) ?(name = "kernel") () =
  let ctx = Vm_map.make_context ~name ~pages () in
  let ktask = Task.create ~name:(name ^ ".task") ctx in
  let host = Port.create ~name:(name ^ ".host") () in
  let t =
    {
      ctx;
      ktask;
      host;
      reg = Mig.make_registry ();
      stop = ref false;
      servers = [];
      served_ports = [];
    }
  in
  install_routines t;
  serve_port t host;
  t

let shutdown t =
  t.stop := true;
  (* Killing the ports unblocks the servers' receives. *)
  List.iter Port.destroy t.served_ports;
  List.iter Engine.join t.servers;
  List.iter Port.release t.served_ports;
  t.served_ports <- [];
  t.servers <- [];
  Port.release t.host;
  ignore (Task.terminate t.ktask)

(* ------------------------------------------------------------------ *)
(* Client wrappers                                                      *)
(* ------------------------------------------------------------------ *)

let string_of_call_error = function
  | `Dead_port -> "dead port"
  | `Server_failure code -> Printf.sprintf "server failure %d" code

let rpc_task_create t =
  match Mig.call t.host ~id:Op.task_create [] with
  | Ok [ Port.Port_right p ] -> Ok p
  | Ok _ -> Error "malformed task_create reply"
  | Error e -> Error (string_of_call_error e)

let rpc_task_terminate port =
  match Mig.call port ~id:Op.task_terminate [] with
  | Ok _ -> Ok ()
  | Error e -> Error (string_of_call_error e)

let rpc_vm_allocate port ~size =
  match Mig.call port ~id:Op.vm_allocate [ Port.Int size ] with
  | Ok [ Port.Int va ] -> Ok va
  | Ok _ -> Error "malformed vm_allocate reply"
  | Error e -> Error (string_of_call_error e)

let rpc_vm_wire port ~va ~pages =
  match Mig.call port ~id:Op.vm_wire [ Port.Int va; Port.Int pages ] with
  | Ok _ -> Ok ()
  | Error e -> Error (string_of_call_error e)

let rpc_null t =
  match Mig.call t.host ~id:Op.null_op [] with
  | Ok _ -> Ok ()
  | Error e -> Error (string_of_call_error e)
