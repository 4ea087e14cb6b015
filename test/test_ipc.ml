(* Ports, messages and the MiG-analog RPC layer (sections 3, 10). *)

module Engine = Mach_sim.Sim_engine
module Explore = Mach_sim.Sim_explore
module K = Mach_ksync.Ksync
module Kobj = Mach_ksync.Kobj
module Port = Mach_ipc.Port
module Mig = Mach_ipc.Mig
open Test_support

type Kobj.payload += Widget of int ref

(* ------------------------------------------------------------------ *)

let test_send_receive () =
  in_sim (fun () ->
      let p = Port.create ~name:"p" () in
      let msg = { Port.msg_op = 7; reply_to = None; body = [ Port.Int 42 ] } in
      (match Port.send p msg with
      | Ok () -> ()
      | Error `Dead_port -> Alcotest.fail "send failed");
      check_int "queued" 1 (Port.queued p);
      (match Port.receive p with
      | Ok m ->
          check_int "op" 7 m.Port.msg_op;
          check_bool "body" true (m.Port.body = [ Port.Int 42 ])
      | Error _ -> Alcotest.fail "receive failed");
      Port.destroy p;
      Port.release p)

let test_receive_blocks_until_send () =
  ignore
    (Engine.run (fun () ->
         let p = Port.create () in
         let got = ref None in
         let receiver =
           Engine.spawn ~name:"receiver" (fun () ->
               match Port.receive p with
               | Ok m -> got := Some m.Port.msg_op
               | Error _ -> ())
         in
         wait_until (fun () -> K.Ev.waiting_on receiver <> None);
         check_bool "not yet" true (!got = None);
         ignore (Port.send p { Port.msg_op = 9; reply_to = None; body = [] });
         Engine.join receiver;
         check_bool "received" true (!got = Some 9);
         Port.destroy p;
         Port.release p))

(* A receive probing an empty queue past the watchdog: the spin-deadlock
   report names the probed queue and the checks its budget has left,
   not the port lock the receiver last waited for. *)
let test_probe_named_in_report () =
  let cfg =
    { Mach_sim.Sim_config.default with cpus = 2; watchdog_steps = 200 }
  in
  match
    Engine.run_outcome ~cfg (fun () ->
        let p = Port.create ~name:"idle" () in
        Engine.join
          (Engine.spawn ~name:"receiver" (fun () ->
               ignore (Port.receive ~spin:100_000 p))))
  with
  | Engine.Deadlocked (Engine.Spin_deadlock, report) ->
      check_bool "names the queue and its checks left" true
        (contains report "receiver (spinning on idle.queue, 99"
        && contains report " checks left)")
  | _ -> Alcotest.fail "expected a spin deadlock"

let test_send_blocks_when_full () =
  ignore
    (Engine.run (fun () ->
         let p = Port.create ~queue_limit:2 () in
         let msg n = { Port.msg_op = n; reply_to = None; body = [] } in
         ignore (Port.send p (msg 1));
         ignore (Port.send p (msg 2));
         (match Port.try_send p (msg 3) with
         | Error `Would_block -> ()
         | _ -> Alcotest.fail "queue limit not enforced");
         let sender =
           Engine.spawn ~name:"sender" (fun () -> ignore (Port.send p (msg 3)))
         in
         wait_until (fun () -> K.Ev.waiting_on sender <> None);
         (* draining one slot lets the sender through *)
         ignore (Port.receive p);
         Engine.join sender;
         check_int "two queued" 2 (Port.queued p);
         Port.destroy p;
         Port.release p))

let test_dead_port_fails () =
  in_sim (fun () ->
      let p = Port.create () in
      Port.destroy p;
      (match Port.send p { Port.msg_op = 1; reply_to = None; body = [] } with
      | Error `Dead_port -> ()
      | Ok () -> Alcotest.fail "send to dead port succeeded");
      (match Port.try_receive p with
      | Error `Dead_port -> ()
      | _ -> Alcotest.fail "receive from dead port succeeded");
      Port.release p)

let test_destroy_wakes_blocked_receiver () =
  ignore
    (Engine.run (fun () ->
         let p = Port.create () in
         let outcome = ref None in
         let receiver =
           Engine.spawn ~name:"receiver" (fun () ->
               outcome := Some (Port.receive p))
         in
         wait_until (fun () -> K.Ev.waiting_on receiver <> None);
         Port.destroy p;
         Engine.join receiver;
         (match !outcome with
         | Some (Error `Dead_port) -> ()
         | _ -> Alcotest.fail "blocked receiver not failed with Dead_port");
         Port.release p))

let test_translation_and_deactivation () =
  in_sim (fun () ->
      let counter = ref 0 in
      let obj = Kobj.make ~name:"widget" (Widget counter) in
      let p = Port.create ~name:"widget-port" () in
      Kobj.reference obj;
      Port.set_object p obj;
      (* Translation clones a reference under the port lock. *)
      (match Port.translate p with
      | Some o ->
          check_bool "same object" true (Kobj.uid o = Kobj.uid obj);
          check_int "three refs: creator + pointer + translation" 3
            (Kobj.ref_count obj);
          Kobj.release o
      | None -> Alcotest.fail "translation failed");
      (* Shutdown step 2: strip the pointer; translation now fails. *)
      (match Port.clear_object p with
      | Some o -> Kobj.release o
      | None -> Alcotest.fail "no object to clear");
      check_bool "translation disabled" true (Port.translate p = None);
      check_int "creator ref remains" 1 (Kobj.ref_count obj);
      Port.destroy p;
      Port.release p;
      Kobj.release obj)

let test_message_carries_port_reference () =
  in_sim (fun () ->
      let dest = Port.create ~name:"dest" () in
      let carried = Port.create ~name:"carried" () in
      let base_dest = Port.ref_count dest in
      let base_carried = Port.ref_count carried in
      ignore
        (Port.send dest
           {
             Port.msg_op = 1;
             reply_to = None;
             body = [ Port.Port_right carried ];
           });
      check_int "queued message holds dest ref" (base_dest + 1)
        (Port.ref_count dest);
      check_int "queued message holds carried right" (base_carried + 1)
        (Port.ref_count carried);
      (match Port.receive dest with
      | Ok m ->
          check_int "dest ref released on dequeue" base_dest
            (Port.ref_count dest);
          (* the right transfers to the receiver *)
          check_int "carried right transferred" (base_carried + 1)
            (Port.ref_count carried);
          Port.destroy_message m;
          check_int "right released with message" base_carried
            (Port.ref_count carried)
      | Error _ -> Alcotest.fail "receive failed");
      Port.destroy dest;
      Port.release dest;
      Port.destroy carried;
      Port.release carried)

let test_destroy_releases_queued_refs () =
  in_sim (fun () ->
      let dest = Port.create ~name:"dest" () in
      let carried = Port.create ~name:"carried" () in
      let base = Port.ref_count carried in
      ignore
        (Port.send dest
           {
             Port.msg_op = 1;
             reply_to = None;
             body = [ Port.Port_right carried ];
           });
      Port.destroy dest;
      check_int "queued right released by destroy" base
        (Port.ref_count carried);
      Port.release dest;
      Port.destroy carried;
      Port.release carried)

let test_receive_batch () =
  in_sim (fun () ->
      let p = Port.create () in
      let msg n = { Port.msg_op = n; reply_to = None; body = [] } in
      List.iter (fun n -> ignore (Port.send p (msg n))) [ 1; 2; 3; 4; 5 ];
      (* One lock hold, FIFO, capped at [max]. *)
      (match Port.receive_batch p ~max:3 with
      | Ok ms ->
          check_bool "first three in order" true
            (List.map (fun m -> m.Port.msg_op) ms = [ 1; 2; 3 ])
      | Error _ -> Alcotest.fail "batch receive failed");
      (* A batch never over-claims: only the remainder comes back. *)
      (match Port.receive_batch p ~max:8 with
      | Ok ms ->
          check_bool "remainder in order" true
            (List.map (fun m -> m.Port.msg_op) ms = [ 4; 5 ])
      | Error _ -> Alcotest.fail "batch receive failed");
      (match Port.try_receive_batch p ~max:4 with
      | Error `Would_block -> ()
      | _ -> Alcotest.fail "empty queue must not yield a batch");
      Port.destroy p;
      Port.release p)

let test_receive_batch_blocks_until_send () =
  ignore
    (Engine.run (fun () ->
         let p = Port.create () in
         let got = ref [] in
         let receiver =
           Engine.spawn ~name:"receiver" (fun () ->
               match Port.receive_batch ~spin:0 p ~max:4 with
               | Ok ms -> got := List.map (fun m -> m.Port.msg_op) ms
               | Error _ -> ())
         in
         wait_until (fun () -> K.Ev.waiting_on receiver <> None);
         check_bool "not yet" true (!got = []);
         ignore (Port.send p { Port.msg_op = 6; reply_to = None; body = [] });
         Engine.join receiver;
         (* At least one message on Ok; a single send wakes the batch. *)
         check_bool "woke with the message" true (!got = [ 6 ]);
         Port.destroy p;
         Port.release p))

let test_destroy_drain_returns_in_flight () =
  in_sim (fun () ->
      let p = Port.create () in
      let carried = Port.create ~name:"carried" () in
      let base = Port.ref_count carried in
      ignore
        (Port.send p
           {
             Port.msg_op = 1;
             reply_to = None;
             body = [ Port.Port_right carried ];
           });
      ignore (Port.send p { Port.msg_op = 2; reply_to = None; body = [] });
      let drained = Port.destroy_drain p in
      check_bool "port is dead" true (not (Port.is_active p));
      check_int "both in-flight messages returned" 2 (List.length drained);
      check_bool "FIFO order preserved" true
        (List.map (fun m -> m.Port.msg_op) drained = [ 1; 2 ]);
      (* The caller now owns the carried rights and must destroy them. *)
      check_int "carried right survives the drain" (base + 1)
        (Port.ref_count carried);
      List.iter Port.destroy_message drained;
      check_int "right released with message" base (Port.ref_count carried);
      Port.release p;
      Port.destroy carried;
      Port.release carried)

(* ------------------------------------------------------------------ *)
(* MiG RPC                                                              *)
(* ------------------------------------------------------------------ *)

let test_rpc_roundtrip () =
  ignore
    (Engine.run (fun () ->
         let reg = Mig.make_registry () in
         Mig.register reg ~id:5 ~name:"add" (fun _obj args ->
             match args with
             | [ Port.Int a; Port.Int b ] -> Ok [ Port.Int (a + b) ]
             | _ -> Error Mig.err_bad_arguments);
         let service = Port.create ~name:"service" () in
         let stop = ref false in
         let server =
           Engine.spawn ~name:"server" (fun () ->
               Mig.serve_loop ~stop:(fun () -> !stop) reg service)
         in
         (match Mig.call service ~id:5 [ Port.Int 2; Port.Int 3 ] with
         | Ok [ Port.Int 5 ] -> ()
         | Ok _ -> Alcotest.fail "wrong reply"
         | Error _ -> Alcotest.fail "rpc failed");
         (* unknown routine *)
         (match Mig.call service ~id:999 [] with
         | Error (`Server_failure code) ->
             check_int "no such routine" Mig.err_no_such_routine code
         | _ -> Alcotest.fail "unknown routine not failed");
         stop := true;
         Port.destroy service;
         Engine.join server;
         Port.release service))

let test_rpc_object_reference_management () =
  (* The section 10 sequence: the object reference taken by translation
     is released after the operation; with consume-on-success, the
     handler keeps it. *)
  ignore
    (Engine.run (fun () ->
         let counter = ref 0 in
         let obj = Kobj.make ~name:"svc-obj" (Widget counter) in
         let service = Port.create ~name:"svc" () in
         Kobj.reference obj;
         Port.set_object service obj;
         let during = ref 0 in
         let reg = Mig.make_registry () in
         Mig.register reg ~id:1 ~name:"probe" (fun o _args ->
             (match o with
             | Some o -> during := Kobj.ref_count o
             | None -> ());
             Ok []);
         let stop = ref false in
         let server =
           Engine.spawn ~name:"server" (fun () ->
               Mig.serve_loop ~stop:(fun () -> !stop) reg service)
         in
         let base = Kobj.ref_count obj in
         (match Mig.call service ~id:1 [] with
         | Ok _ -> ()
         | Error _ -> Alcotest.fail "rpc failed");
         check_int "one extra ref during the operation" (base + 1) !during;
         check_int "reference released after the operation" base
           (Kobj.ref_count obj);
         stop := true;
         (* Destroying the port releases the pointer's object reference;
            only the creator's reference remains for us to drop. *)
         Port.destroy service;
         Engine.join server;
         Port.release service;
         Kobj.release obj))

let test_rpc_batched_server () =
  ignore
    (Engine.run (fun () ->
         let reg = Mig.make_registry () in
         Mig.register reg ~id:1 ~name:"double" (fun _obj args ->
             match args with
             | [ Port.Int n ] -> Ok [ Port.Int (2 * n) ]
             | _ -> Error Mig.err_bad_arguments);
         let service = Port.create ~name:"service" () in
         let stop = ref false in
         let server =
           Engine.spawn ~name:"server" (fun () ->
               Mig.serve_loop ~stop:(fun () -> !stop) ~batch:4 reg service)
         in
         let clients =
           List.init 3 (fun i ->
               Engine.spawn ~name:(Printf.sprintf "c%d" i) (fun () ->
                   for n = 1 to 5 do
                     match Mig.call service ~id:1 [ Port.Int n ] with
                     | Ok [ Port.Int r ] when r = 2 * n -> ()
                     | _ -> Engine.fatal "batched rpc wrong reply"
                   done))
         in
         List.iter Engine.join clients;
         stop := true;
         Port.destroy service;
         Engine.join server;
         Port.release service))

let test_rpc_cached_reply_port () =
  ignore
    (Engine.run (fun () ->
         let reg = Mig.make_registry () in
         Mig.register reg ~id:1 ~name:"echo" (fun _obj args -> Ok args);
         let service = Port.create ~name:"service" () in
         let stop = ref false in
         let server =
           Engine.spawn ~name:"server" (fun () ->
               Mig.serve_loop ~stop:(fun () -> !stop) reg service)
         in
         (* One reply port reused across calls — the per-call
            create/destroy disappears from the client's hot path. *)
         let reply_port = Port.create ~name:"reply" ~queue_limit:1 () in
         let base = Port.ref_count reply_port in
         for n = 1 to 4 do
           match Mig.call ~reply_port service ~id:1 [ Port.Int n ] with
           | Ok [ Port.Int r ] when r = n -> ()
           | _ -> Engine.fatal "cached-reply rpc failed"
         done;
         check_bool "reply port still live" true (Port.is_active reply_port);
         check_int "no reply-port references leaked across calls" base
           (Port.ref_count reply_port);
         stop := true;
         Port.destroy service;
         Engine.join server;
         Port.release service;
         Port.destroy reply_port;
         Port.release reply_port))

let test_rpc_drain_answers_in_flight () =
  ignore
    (Engine.run (fun () ->
         let reg = Mig.make_registry () in
         Mig.register reg ~id:1 ~name:"echo" (fun _obj args -> Ok args);
         let service = Port.create ~name:"service" () in
         let outcome = ref None in
         let client =
           Engine.spawn ~name:"client" (fun () ->
               outcome := Some (Mig.call ~poll:0 service ~id:1 [ Port.Int 7 ]))
         in
         (* Let the request land in the queue with no server running,
            then drain: the client must get err_deactivated, not sleep
            forever on its reply port. *)
         wait_until (fun () -> Port.queued service > 0);
         let n = Mig.drain service in
         check_int "one in-flight request drained" 1 n;
         Engine.join client;
         (match !outcome with
         | Some (Error (`Server_failure code)) ->
             check_int "deactivated" Mig.err_deactivated code
         | _ -> Alcotest.fail "drained client not answered err_deactivated");
         Port.release service))

let test_concurrent_senders_receivers_explored () =
  let v =
    Explore.run ~cpus:4
      ~seeds:(List.init 20 (fun i -> i + 1))
      (fun () ->
        let p = Port.create ~queue_limit:4 () in
        let received = Engine.Cell.make 0 in
        let senders =
          List.init 3 (fun i ->
              Engine.spawn ~name:(Printf.sprintf "s%d" i) (fun () ->
                  for j = 1 to 5 do
                    match
                      Port.send p
                        { Port.msg_op = (i * 10) + j; reply_to = None; body = [] }
                    with
                    | Ok () -> ()
                    | Error `Dead_port -> Engine.fatal "send failed"
                  done))
        in
        let receivers =
          List.init 2 (fun i ->
              Engine.spawn ~name:(Printf.sprintf "r%d" i) (fun () ->
                  let continue = ref true in
                  while !continue do
                    if Engine.Cell.get received >= 15 then continue := false
                    else
                      match Port.try_receive p with
                      | Ok _ -> ignore (Engine.Cell.fetch_and_add received 1)
                      | Error `Would_block -> Engine.pause ()
                      | Error `Dead_port -> continue := false
                  done))
        in
        List.iter Engine.join senders;
        List.iter Engine.join receivers;
        if Engine.Cell.get received <> 15 then
          Engine.fatal "messages lost or duplicated")
  in
  check_bool "all messages delivered exactly once" true
    (Explore.all_completed v)

let () =
  Alcotest.run "ipc"
    [
      ( "ports",
        [
          Alcotest.test_case "send/receive" `Quick test_send_receive;
          Alcotest.test_case "receive blocks" `Quick
            test_receive_blocks_until_send;
          Alcotest.test_case "send blocks when full" `Quick
            test_send_blocks_when_full;
          Alcotest.test_case "probe named in report" `Quick
            test_probe_named_in_report;
          Alcotest.test_case "dead port" `Quick test_dead_port_fails;
          Alcotest.test_case "destroy wakes receiver" `Quick
            test_destroy_wakes_blocked_receiver;
          Alcotest.test_case "batched receive" `Quick test_receive_batch;
          Alcotest.test_case "batched receive blocks" `Quick
            test_receive_batch_blocks_until_send;
          Alcotest.test_case "destroy_drain returns in-flight" `Quick
            test_destroy_drain_returns_in_flight;
        ] );
      ( "references",
        [
          Alcotest.test_case "translation + deactivation" `Quick
            test_translation_and_deactivation;
          Alcotest.test_case "message carries refs" `Quick
            test_message_carries_port_reference;
          Alcotest.test_case "destroy releases queued refs" `Quick
            test_destroy_releases_queued_refs;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "object reference management" `Quick
            test_rpc_object_reference_management;
          Alcotest.test_case "batched server" `Quick test_rpc_batched_server;
          Alcotest.test_case "cached reply port" `Quick
            test_rpc_cached_reply_port;
          Alcotest.test_case "drain answers in-flight" `Quick
            test_rpc_drain_answers_in_flight;
          Alcotest.test_case "concurrent senders/receivers" `Quick
            test_concurrent_senders_receivers_explored;
        ] );
    ]
