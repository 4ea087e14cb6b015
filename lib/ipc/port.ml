module K = Mach_ksync.Ksync
module Kobj = Mach_ksync.Kobj
module Obs_span = Mach_obs.Obs_span

(* The message queue is a classic front/rear two-list queue with an
   explicit length: enqueue conses onto [q_rear], dequeue pops [q_front]
   (reversing the rear into the front when it empties), and the
   queue-full check reads [q_len] — all O(1) amortized under the port
   lock, where the old single-list representation paid an O(n) append
   per send and an O(n) [List.length] per attempt on the RPC hot path. *)
type t = {
  pobj : Kobj.t;
  mutable object_ptr : Kobj.t option; (* represented object, with a ref *)
  mutable q_front : queued_message list; (* next to dequeue, in order *)
  mutable q_rear : queued_message list; (* most recent first *)
  mutable q_len : int;
  queue_limit : int;
  msg_event : K.Ev.event; (* receivers wait here *)
  space_event : K.Ev.event; (* senders wait here *)
  (* Waiter counts, maintained under the port lock, so the enqueue and
     dequeue paths only pay a thread_wakeup (event-bucket lock, unpark)
     when somebody is actually asleep — on the RPC hot path nobody is,
     and the unconditional wakeup was the dominant cost per message. *)
  mutable recv_waiters : int;
  mutable send_waiters : int;
}

and element = Int of int | Str of string | Port_right of t

and message = { msg_op : int; reply_to : t option; body : element list }

(* While queued, a message holds a reference to the destination port and
   to every port right it carries (section 10, steps 1 and 5). *)
and queued_message = { qm : message; dest : t }

type send_error = [ `Dead_port ]
type receive_error = [ `Dead_port | `Would_block ]

type Kobj.payload += Port_payload of t

let create ?name ?(queue_limit = 16) () =
  let p =
    {
      pobj = Kobj.make ?name Kobj.No_payload;
      object_ptr = None;
      q_front = [];
      q_rear = [];
      q_len = 0;
      queue_limit;
      msg_event = K.Ev.fresh_event ();
      space_event = K.Ev.fresh_event ();
      recv_waiters = 0;
      send_waiters = 0;
    }
  in
  Kobj.set_payload p.pobj (Port_payload p);
  p

let name t = Kobj.name t.pobj
let uid t = Kobj.uid t.pobj
let kobj t = t.pobj
let reference t = Kobj.reference t.pobj
let release t = Kobj.release t.pobj
let ref_count t = Kobj.ref_count t.pobj
let is_active t = Kobj.is_active t.pobj

(* ------------------------------------------------------------------ *)
(* The represented object                                               *)
(* ------------------------------------------------------------------ *)

let set_object t obj =
  Kobj.with_lock t.pobj (fun () -> t.object_ptr <- Some obj)

let clear_object t =
  Kobj.with_lock t.pobj (fun () ->
      let o = t.object_ptr in
      t.object_ptr <- None;
      o)

let translate t =
  Kobj.lock t.pobj;
  let result =
    if not (Kobj.is_active t.pobj) then None
    else
      match t.object_ptr with
      | None -> None
      | Some obj ->
          (* The existing reference held by the port's pointer ensures the
             object cannot vanish while we clone under the port lock. *)
          Kobj.reference_under (Kobj.object_lock t.pobj) obj;
          Some obj
  in
  Kobj.unlock t.pobj;
  result

(* ------------------------------------------------------------------ *)
(* Message references                                                   *)
(* ------------------------------------------------------------------ *)

let reference_rights msg =
  List.iter (function Port_right p -> reference p | Int _ | Str _ -> ()) msg.body;
  match msg.reply_to with Some p -> reference p | None -> ()

let release_rights msg =
  List.iter (function Port_right p -> release p | Int _ | Str _ -> ()) msg.body;
  match msg.reply_to with Some p -> release p | None -> ()

let destroy_message = release_rights

(* ------------------------------------------------------------------ *)
(* Send / receive                                                       *)
(* ------------------------------------------------------------------ *)

let enqueue_locked t msg =
  (* Clone the references the queued message holds. *)
  reference t;
  reference_rights msg;
  t.q_rear <- { qm = msg; dest = t } :: t.q_rear;
  t.q_len <- t.q_len + 1;
  if t.recv_waiters > 0 then ignore (K.Ev.thread_wakeup t.msg_event)

(* The send and receive spans cover the whole operation including
   queue-full / queue-empty sleeps, so span duration is the user-visible
   IPC latency (what the RPC scorecard measures), not just lock time. *)
let send t msg =
  let spans = Obs_span.enabled () in
  if spans then K.Span.enter Obs_span.Ipc ("send:" ^ name t);
  let rec attempt ~waited =
    Kobj.lock t.pobj;
    if waited then t.send_waiters <- t.send_waiters - 1;
    if not (Kobj.is_active t.pobj) then begin
      Kobj.unlock t.pobj;
      Error `Dead_port
    end
    else if t.q_len >= t.queue_limit then begin
      (* Queue full: release the port lock and wait for space. *)
      t.send_waiters <- t.send_waiters + 1;
      ignore (K.Ev.thread_sleep t.space_event (Kobj.object_lock t.pobj));
      attempt ~waited:true
    end
    else begin
      enqueue_locked t msg;
      Kobj.unlock t.pobj;
      Ok ()
    end
  in
  let r = attempt ~waited:false in
  if spans then K.Span.exit Obs_span.Ipc ("send:" ^ name t);
  r

let try_send t msg =
  Kobj.lock t.pobj;
  let r =
    if not (Kobj.is_active t.pobj) then Error `Dead_port
    else if t.q_len >= t.queue_limit then Error `Would_block
    else begin
      enqueue_locked t msg;
      Ok ()
    end
  in
  Kobj.unlock t.pobj;
  r

let dequeue_locked t =
  if t.q_len = 0 then None
  else begin
    (if t.q_front = [] then begin
       t.q_front <- List.rev t.q_rear;
       t.q_rear <- []
     end);
    match t.q_front with
    | q :: rest ->
        t.q_front <- rest;
        t.q_len <- t.q_len - 1;
        if t.send_waiters > 0 then ignore (K.Ev.thread_wakeup t.space_event);
        Some q
    | [] -> assert false (* q_len > 0 implies a non-empty side *)
  end

(* Spin-then-block: before committing to the sleep/wakeup machinery
   (waiter registration under a global lock, event-bucket locks,
   park/unpark — the dominant per-message cost once the queue work
   itself is cheap), probe the queue up to [spin] times with an
   UNLOCKED peek at [q_len]: a racy read costing one pause, confirmed
   under the lock only when it looks non-empty.  A dead port makes the
   peek loop exit through the locked path, so spinning receivers still
   observe destroy promptly. *)
let spin_for_message t spin =
  let pauses =
    K.Machine.spin_until ~budget:spin (fun () ->
        t.q_len > 0 || not (Kobj.is_active t.pobj))
  in
  if pauses < spin then `Try (spin - pauses - 1) else `Block

(* The one receive loop: up to [max] dequeues under ONE port-lock
   acquisition, in FIFO order, so a batch amortizes the Simple_lock hold
   (the E20 batching mechanism) and one message is a batch of one.  On
   an empty queue a non-blocking receive returns [`Would_block]; a
   blocking one probes [spin] times, then sleeps, and retries.  The
   destination-port references are released outside the lock; body
   rights and reply ports transfer to the receiver. *)
let receive_loop ~block ~spin t ~max =
  if max < 1 then invalid_arg "Port.receive_batch: max must be >= 1";
  let spans = block && Obs_span.enabled () in
  if spans then K.Span.enter Obs_span.Ipc ("recv:" ^ name t);
  let rec take n acc =
    if n = 0 then acc
    else
      match dequeue_locked t with
      | Some q -> take (n - 1) (q :: acc)
      | None -> acc
  in
  let rec attempt ~waited ~spin =
    Kobj.lock t.pobj;
    if waited then t.recv_waiters <- t.recv_waiters - 1;
    if not (Kobj.is_active t.pobj) then begin
      Kobj.unlock t.pobj;
      Error `Dead_port
    end
    else
      match take max [] with
      | [] when not block ->
          Kobj.unlock t.pobj;
          Error `Would_block
      | [] ->
          if spin > 0 then begin
            Kobj.unlock t.pobj;
            match spin_for_message t spin with
            | `Try rest -> attempt ~waited:false ~spin:rest
            | `Block -> attempt ~waited:false ~spin:0
          end
          else begin
            t.recv_waiters <- t.recv_waiters + 1;
            ignore (K.Ev.thread_sleep t.msg_event (Kobj.object_lock t.pobj));
            attempt ~waited:true ~spin:0
          end
      | batch_rev ->
          Kobj.unlock t.pobj;
          let batch = List.rev batch_rev in
          List.iter (fun q -> release q.dest) batch;
          Ok (List.map (fun q -> q.qm) batch)
  in
  let r = attempt ~waited:false ~spin in
  if spans then K.Span.exit Obs_span.Ipc ("recv:" ^ name t);
  r

let receive_batch ?(spin = 0) t ~max = receive_loop ~block:true ~spin t ~max
let try_receive_batch t ~max = receive_loop ~block:false ~spin:0 t ~max
let receive ?spin t = Result.map List.hd (receive_batch ?spin t ~max:1)
let try_receive t = Result.map List.hd (try_receive_batch t ~max:1)

let queued t = Kobj.with_lock t.pobj (fun () -> t.q_len)

(* ------------------------------------------------------------------ *)
(* Death                                                                *)
(* ------------------------------------------------------------------ *)

(* Deactivate under the port lock: empty the queue, take the object
   pointer and wake every waiter (they re-check the active flag and fail
   with Dead_port).  Returns the queued messages (FIFO) and the object,
   or None if the port was already dead. *)
let deactivate t =
  Kobj.lock t.pobj;
  if Kobj.deactivate t.pobj then begin
    let drained = t.q_front @ List.rev t.q_rear in
    t.q_front <- [];
    t.q_rear <- [];
    t.q_len <- 0;
    let obj = t.object_ptr in
    t.object_ptr <- None;
    ignore (K.Ev.thread_wakeup t.msg_event);
    ignore (K.Ev.thread_wakeup t.space_event);
    Kobj.unlock t.pobj;
    Some (drained, obj)
  end
  else begin
    Kobj.unlock t.pobj;
    None
  end

(* References are released outside the port lock (section 8). *)
let destroy t =
  match deactivate t with
  | None -> ()
  | Some (drained, obj) ->
      List.iter
        (fun q ->
          release q.dest;
          release_rights q.qm)
        drained;
      Option.iter Kobj.release obj

(* Shutdown under load: deactivate like [destroy], but hand the in-flight
   messages back (in FIFO order) instead of silently destroying their
   rights — a server drains these by replying "deactivated" to each, so
   clients blocked on their reply ports wake up instead of sleeping
   forever.  The queued messages' destination references are released
   here; body rights and reply ports transfer to the caller, who must
   consume them ([destroy_message] after replying). *)
let destroy_drain t =
  match deactivate t with
  | None -> []
  | Some (drained, obj) ->
      List.iter (fun q -> release q.dest) drained;
      Option.iter Kobj.release obj;
      List.map (fun q -> q.qm) drained
