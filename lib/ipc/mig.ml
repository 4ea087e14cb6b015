module Kobj = Mach_ksync.Kobj

type args = Port.element list
type reply = (args, int) result

type routine = {
  routine_id : int;
  routine_name : string;
  handler : Kobj.t option -> args -> reply;
  consumes_reference : bool;
}

type registry = (int, routine) Hashtbl.t

let make_registry () = Hashtbl.create 32

let register reg ?(consumes_reference = false) ~id ~name handler =
  if Hashtbl.mem reg id then
    invalid_arg (Printf.sprintf "Mig.register: duplicate routine id %d" id);
  Hashtbl.replace reg id
    { routine_id = id; routine_name = name; handler; consumes_reference }

let lookup reg id = Hashtbl.find_opt reg id

let err_deactivated = 1001
let err_no_such_routine = 1002
let err_bad_arguments = 1003

(* Replies are encoded as: Int status :: results.  Status 0 = success. *)

type call_error = [ `Dead_port | `Server_failure of int ]

(* A per-call reply port costs a kernel-object allocation and two fresh
   events every RPC; Mach caches one reply port per thread instead
   (mig_get_reply_port).  [reply_port] opts into that reuse: the caller
   owns the port, guarantees it is used by one call at a time, and
   destroys it when the client thread is done.  The reply wait spins
   [poll] unlocked probes before blocking ({!Port.receive}'s
   spin-then-block), which on a loaded server skips the sleep/wakeup
   machinery for most calls. *)
let call ?(poll = 512) ?reply_port port ~id args =
  let rp, owned =
    match reply_port with
    | Some rp -> (rp, false)
    | None -> (Port.create ~name:"reply" ~queue_limit:1 (), true)
  in
  let finish r =
    if owned then begin
      Port.destroy rp;
      Port.release rp
    end;
    r
  in
  match Port.send port { Port.msg_op = id; reply_to = Some rp; body = args } with
  | Error `Dead_port -> finish (Error `Dead_port)
  | Ok () -> (
      match Port.receive ~spin:poll rp with
      | Error `Dead_port | Error `Would_block -> finish (Error `Dead_port)
      | Ok msg -> (
          (* Ownership of any port rights in the reply body transfers to
             the caller, which must release them when done. *)
          match msg.Port.body with
          | Port.Int 0 :: results -> finish (Ok results)
          | Port.Int code :: _ -> finish (Error (`Server_failure code))
          | _ -> finish (Error (`Server_failure err_bad_arguments))))

let send_async port ~id args =
  match Port.send port { Port.msg_op = id; reply_to = None; body = args } with
  | Error `Dead_port -> Error `Dead_port
  | Ok () -> Ok ()

let reply_to_message msg result =
  match msg.Port.reply_to with
  | None -> ()
  | Some rp ->
      let body =
        match result with
        | Ok results -> Port.Int 0 :: results
        | Error code -> [ Port.Int code ]
      in
      (* A dead reply port just drops the reply. *)
      ignore (Port.send rp { Port.msg_op = msg.Port.msg_op; reply_to = None; body });
      (* The receiver owned the reply-port reference carried by the
         request; sending cloned what it needed. *)
      Port.release rp

let release_body msg =
  List.iter
    (function
      | Port.Port_right p -> Port.release p
      | Port.Int _ | Port.Str _ -> ())
    msg.Port.body

(* The per-request steps 2–5 of the section 10 sequence (step 1, the
   receive, is the caller's). *)
let dispatch reg port msg =
  (* Step 2: determine the represented object from the port and obtain
     a reference to it. *)
  let obj = Port.translate port in
  match lookup reg msg.Port.msg_op with
  | None ->
      reply_to_message msg (Error err_no_such_routine);
      release_body msg;
      (match obj with Some o -> Kobj.release o | None -> ())
  | Some routine ->
      (* Step 3: the operation executes with the object reference
         preventing the object and its port from vanishing. *)
      let result = routine.handler obj msg.Port.body in
      (* Step 4: release the object reference.  Mach 3.0 style: a
         successful operation consumed it; release only on failure. *)
      (match (obj, result, routine.consumes_reference) with
      | Some o, Ok _, true -> ignore o
      | Some o, _, _ -> Kobj.release o
      | None, _, _ -> ());
      (* Step 5: the reply message returns the result. *)
      reply_to_message msg result;
      release_body msg

(* Batched dispatch: one port-lock acquisition yields up to [max]
   requests, each then dispatched without re-taking the port's message
   lock.  Returns how many were served. *)
let serve_batch ?spin reg port ~max =
  match Port.receive_batch ?spin port ~max with
  | Error `Dead_port | Error `Would_block -> Error `Dead_port
  | Ok msgs ->
      List.iter (fun msg -> dispatch reg port msg) msgs;
      Ok (List.length msgs)

let serve_loop ?(stop = fun () -> false) ?(batch = 1) ?(spin = 256) reg port =
  if batch < 1 then invalid_arg "Mig.serve_loop: batch must be >= 1";
  let rec loop () =
    if not (stop ()) then
      match serve_batch ~spin reg port ~max:batch with
      | Ok _ -> loop ()
      | Error `Dead_port -> ()
  in
  loop ()

(* Shutdown under load: deactivate the service port and answer every
   in-flight request with [err_deactivated] (section 9's "operations on a
   deactivated object return a failure code"), so no client sleeps
   forever on its reply port and no carried right leaks.  Returns the
   number of requests drained. *)
let drain port =
  let inflight = Port.destroy_drain port in
  List.iter
    (fun msg ->
      reply_to_message msg (Error err_deactivated);
      release_body msg)
    inflight;
  List.length inflight
