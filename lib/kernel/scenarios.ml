module Engine = Mach_sim.Sim_engine
module K = Mach_ksync.Ksync
module Spl = Mach_core.Spl
module Port = Mach_ipc.Port
module Mig = Mach_ipc.Mig

(* ------------------------------------------------------------------ *)
(* The section 7 three-processor interrupt deadlock                     *)
(* ------------------------------------------------------------------ *)

let interrupt_barrier_scenario ~disciplined () =
  if Engine.cpu_count () < 3 then
    invalid_arg "interrupt_barrier_scenario: needs at least 3 cpus";
  (* The same-spl rule is exactly what the buggy variant violates; its
     checker must stand down so we can observe the consequence. *)
  if not disciplined then K.Slock.set_checking false;
  Fun.protect ~finally:(fun () -> K.Slock.set_checking true)
  @@ fun () ->
  let lock = K.Slock.make ~name:"the-lock" () in
  let p1_has_lock = Engine.Cell.make ~name:"p1-has-lock" 0 in
  let p2_spinning = Engine.Cell.make ~name:"p2-spinning" 0 in
  let ipis_posted = Engine.Cell.make ~name:"ipis-posted" 0 in
  let checked_in = Engine.Cell.make ~name:"barrier-in" 0 in
  let barrier_go = Engine.Cell.make ~name:"barrier-go" 0 in
  (* Processor 1: holds the lock.  Disciplined: at splvm (interrupts
     that matter are masked while holding).  Buggy: at spl0 (interrupts
     enabled while holding the lock). *)
  let p1 =
    Engine.spawn ~name:"p1" ~bound:0 (fun () ->
        let old =
          if disciplined then Engine.set_spl Spl.Splvm
          else Engine.get_spl ()
        in
        K.Slock.lock lock;
        Engine.Cell.set p1_has_lock 1;
        (* Hold the lock until the initiator has posted its interrupts. *)
        Engine.spin_hint "ipis-posted";
        while Engine.Cell.get ipis_posted = 0 do
          Engine.pause ()
        done;
        Engine.cycles 100;
        K.Slock.unlock lock;
        if disciplined then ignore (Engine.set_spl old))
  in
  (* Processor 2: disables interrupts, then spins for the lock. *)
  let p2 =
    Engine.spawn ~name:"p2" ~bound:1 (fun () ->
        Engine.spin_hint "p1-has-lock";
        while Engine.Cell.get p1_has_lock = 0 do
          Engine.pause ()
        done;
        let old = Engine.set_spl Spl.Splvm in
        Engine.Cell.set p2_spinning 1;
        K.Slock.lock lock;
        Engine.cycles 50;
        K.Slock.unlock lock;
        ignore (Engine.set_spl old))
  in
  (* Processor 3: initiates barrier synchronization at interrupt level:
     all involved processors must enter the service routine before any
     can leave. *)
  let p3 =
    Engine.spawn ~name:"p3" ~bound:2 (fun () ->
        Engine.spin_hint "p2-spinning";
        while Engine.Cell.get p2_spinning = 0 do
          Engine.pause ()
        done;
        let handler () =
          ignore (Engine.Cell.fetch_and_add checked_in 1);
          Engine.spin_hint "barrier-go";
          while Engine.Cell.get barrier_go = 0 do
            Engine.pause ()
          done
        in
        Engine.post_interrupt ~name:"barrier" ~cpu:0 ~level:Spl.Splvm handler;
        Engine.post_interrupt ~name:"barrier" ~cpu:1 ~level:Spl.Splvm handler;
        Engine.Cell.set ipis_posted 1;
        (* Wait for both processors to enter the barrier. *)
        Engine.spin_hint "barrier-in";
        while Engine.Cell.get checked_in < 2 do
          Engine.pause ()
        done;
        Engine.Cell.set barrier_go 1)
  in
  Engine.join p1;
  Engine.join p2;
  Engine.join p3

(* ------------------------------------------------------------------ *)
(* The section 7 same-spl rule, minimal two-cpu version                 *)
(* ------------------------------------------------------------------ *)

let same_spl_holder ~disciplined () =
  if Engine.cpu_count () < 2 then
    invalid_arg "same_spl_holder: needs at least 2 cpus";
  if not disciplined then K.Slock.set_checking false;
  Fun.protect ~finally:(fun () -> K.Slock.set_checking true)
  @@ fun () ->
  let lock = K.Slock.make ~name:"vm-lock" () in
  let held = Engine.Cell.make ~name:"held" 0 in
  let posted = Engine.Cell.make ~name:"posted" 0 in
  let handled = Engine.Cell.make ~name:"handled" 0 in
  (* The holder takes the lock that the interrupt handler will also
     want.  Disciplined: at the interrupt's spl, so the interrupt stays
     masked for the whole critical section.  Buggy: at spl0, so the
     handler can preempt the critical section on this very cpu and spin
     on a lock its own interrupted thread holds -- unbreakable, because
     the handler runs above the holder's frame. *)
  let holder =
    Engine.spawn ~name:"holder" ~bound:0 (fun () ->
        let old =
          if disciplined then Engine.set_spl Spl.Splvm else Engine.get_spl ()
        in
        K.Slock.lock lock;
        Engine.Cell.set held 1;
        Engine.spin_hint "posted";
        while Engine.Cell.get posted = 0 do
          Engine.pause ()
        done;
        Engine.cycles 50;
        K.Slock.unlock lock;
        if disciplined then ignore (Engine.set_spl old);
        Engine.spin_hint "handled";
        while Engine.Cell.get handled = 0 do
          Engine.pause ()
        done)
  in
  (* The device: once the lock is held, fire an interrupt at the
     holder's cpu whose service routine takes the same lock. *)
  let device =
    Engine.spawn ~name:"device" ~bound:1 (fun () ->
        Engine.spin_hint "held";
        while Engine.Cell.get held = 0 do
          Engine.pause ()
        done;
        Engine.post_interrupt ~name:"vm-intr" ~cpu:0 ~level:Spl.Splvm
          (fun () ->
            K.Slock.lock lock;
            Engine.cycles 10;
            K.Slock.unlock lock;
            Engine.Cell.set handled 1);
        Engine.Cell.set posted 1)
  in
  Engine.join holder;
  Engine.join device

(* ------------------------------------------------------------------ *)
(* The section 6 event-wait handoff                                     *)
(* ------------------------------------------------------------------ *)

(* A correct assert_wait / thread_block / thread_wakeup handoff (the
   protocol section 6 prescribes): the producer publishes the datum, then
   wakes the event; the consumer re-checks the condition around every
   block, so no schedule alone can hang it.  Only an injected fault — a
   dropped or lost wakeup — leaves the consumer parked forever, which is
   exactly what the detector's orphaned-waiter analysis must explain. *)
let lost_wakeup_handoff () =
  let flag = Engine.Cell.make ~name:"handoff.flag" 0 in
  let ev = K.Ev.fresh_event () in
  let consumer =
    Engine.spawn ~name:"consumer" (fun () ->
        let rec wait () =
          if Engine.Cell.get flag = 0 then begin
            K.Ev.assert_wait ev;
            if Engine.Cell.get flag = 0 then ignore (K.Ev.thread_block ())
            else K.Ev.cancel_assert ();
            wait ()
          end
        in
        wait ())
  in
  let producer =
    Engine.spawn ~name:"producer" (fun () ->
        Engine.cycles 200;
        Engine.Cell.set flag 1;
        ignore (K.Ev.thread_wakeup ev))
  in
  Engine.join producer;
  Engine.join consumer

(* Several sleepers on one event woken by a single broadcast; widens the
   window for drop/delay injections (each sleeper's unpark is a separate
   opportunity). *)
let wakeup_herd ?(sleepers = 4) () =
  let flag = Engine.Cell.make ~name:"herd.flag" 0 in
  let ev = K.Ev.fresh_event () in
  let ts =
    List.init sleepers (fun i ->
        Engine.spawn ~name:(Printf.sprintf "sleeper%d" i) (fun () ->
            let rec wait () =
              if Engine.Cell.get flag = 0 then begin
                K.Ev.assert_wait ev;
                if Engine.Cell.get flag = 0 then ignore (K.Ev.thread_block ())
                else K.Ev.cancel_assert ();
                wait ()
              end
            in
            wait ()))
  in
  let waker =
    Engine.spawn ~name:"waker" (fun () ->
        Engine.cycles 300;
        Engine.Cell.set flag 1;
        ignore (K.Ev.thread_wakeup ev))
  in
  Engine.join waker;
  List.iter Engine.join ts

(* ------------------------------------------------------------------ *)
(* One contended lock                                                   *)
(* ------------------------------------------------------------------ *)

(* Every cpu takes [lock] [iters] times; the critical section updates
   four shared cells (so spin bus traffic delays useful work) and spends
   20 cycles. *)
let contention ~lock ~iters () =
  let data = Array.init 4 (fun _ -> Engine.Cell.make ~name:"d" 0) in
  let ts =
    List.init (Engine.cpu_count ()) (fun _ ->
        Engine.spawn (fun () ->
            for _ = 1 to iters do
              K.Slock.lock lock;
              Array.iter (fun d -> ignore (Engine.Cell.fetch_and_add d 1)) data;
              Engine.cycles 20;
              K.Slock.unlock lock
            done))
  in
  List.iter Engine.join ts

(* Workers contending a lock whose release is an explicit handoff: the
   MCS store to the successor's spin cell, or the scache grant that
   admits the next writer ticket.  Dropping that store ([Drop_handoff])
   strands a waiter spinning on a lock nobody holds — the queue-lock
   analogue of the lost wakeup, reported as a "lost handoff" by the
   waits-for analyzer's spin-deadlock orphan pass. *)
let handoff_workers ~name ~proto ?(workers = 3) () =
  let l = K.Slock.make ~name ~proto () in
  let c = Engine.Cell.make ~name:(name ^ ".count") 0 in
  let ts =
    List.init workers (fun i ->
        Engine.spawn ~name:(Printf.sprintf "worker%d" i) (fun () ->
            for _ = 1 to 3 do
              K.Slock.lock l;
              ignore (Engine.Cell.fetch_and_add c 1);
              Engine.cycles 30;
              K.Slock.unlock l
            done))
  in
  List.iter Engine.join ts

(* One contended critical section per queue-lock protocol, then a
   big-reader read burst. *)
let queue_locks () =
  let spawn_all body =
    let ts =
      List.init (Engine.cpu_count ()) (fun _ -> Engine.spawn body)
    in
    List.iter Engine.join ts
  in
  List.iter
    (fun proto ->
      let l =
        K.Slock.make ~name:("ql." ^ Mach_core.Lock_proto.name proto) ~proto ()
      in
      let c = Engine.Cell.make ~name:"ql.count" 0 in
      spawn_all (fun () ->
          for _ = 1 to 5 do
            K.Slock.lock l;
            ignore (Engine.Cell.fetch_and_add c 1);
            Engine.cycles 20;
            K.Slock.unlock l
          done))
    K.Locks.queue;
  let br = K.Locks.Brlock.make ~name:"ql.br" in
  spawn_all (fun () ->
      for _ = 1 to 5 do
        K.Locks.Brlock.with_read br (fun () -> Engine.cycles 10)
      done)

(* ------------------------------------------------------------------ *)
(* Locking granularity                                                  *)
(* ------------------------------------------------------------------ *)

type granularity = Coarse | Fine | Master_funnel

let granularity_name = function
  | Coarse -> "coarse"
  | Fine -> "fine"
  | Master_funnel -> "master-funnel"

type sim_object = {
  olock : K.Slock.t;
  counter : Engine.Cell.t;
}

let operate obj =
  (* An object operation: a shared-data update plus local work. *)
  ignore (Engine.Cell.fetch_and_add obj.counter 1);
  Engine.cycles 40

let object_ops_workload granularity ~objects ~workers ~ops_per_worker =
  let objs =
    Array.init objects (fun i ->
        {
          olock = K.Slock.make ~name:(Printf.sprintf "obj%d" i) ();
          counter = Engine.Cell.make ~name:(Printf.sprintf "ctr%d" i) 0;
        })
  in
  match granularity with
  | Coarse ->
      (* One lock protects all of the code/data: kernel execution is
         effectively restricted to one processor at a time. *)
      let big_lock = K.Slock.make ~name:"kernel-lock" () in
      let worker w () =
        for i = 0 to ops_per_worker - 1 do
          let obj = objs.((w + i) mod objects) in
          K.Slock.lock big_lock;
          operate obj;
          K.Slock.unlock big_lock
        done
      in
      let ts = List.init workers (fun w -> Engine.spawn (worker w)) in
      List.iter Engine.join ts
  | Fine ->
      (* Locks are associated with data structures: code runs in parallel
         with itself when different objects are involved (section 2). *)
      let worker w () =
        for i = 0 to ops_per_worker - 1 do
          let obj = objs.((w + i) mod objects) in
          K.Slock.lock obj.olock;
          operate obj;
          K.Slock.unlock obj.olock
        done
      in
      let ts = List.init workers (fun w -> Engine.spawn (worker w)) in
      List.iter Engine.join ts
  | Master_funnel ->
      (* A master processor executes every operation; other processors
         hand their work over, sleep, and are awakened with the result
         (the master-processor design the paper contrasts with,
         section 2).  The handoff uses the canonical event-wait pattern
         under a guard lock. *)
      let guard = K.Slock.make ~name:"funnel-guard" () in
      let req_ev = K.Ev.fresh_event () in
      let done_ev = K.Ev.fresh_event () in
      let slot_ev = K.Ev.fresh_event () in
      let pending = ref None (* (worker, object index), under guard *) in
      let completed = Array.make workers false (* under guard *) in
      let remaining = ref (workers * ops_per_worker) (* under guard *) in
      let master =
        Engine.spawn ~name:"master" ~bound:0 (fun () ->
            let continue = ref true in
            while !continue do
              K.Slock.lock guard;
              match !pending with
              | None ->
                  if !remaining = 0 then begin
                    continue := false;
                    K.Slock.unlock guard
                  end
                  else ignore (K.Ev.thread_sleep req_ev guard)
              | Some (w, idx) ->
                  pending := None;
                  K.Slock.unlock guard;
                  operate objs.(idx);
                  K.Slock.lock guard;
                  remaining := !remaining - 1;
                  completed.(w) <- true;
                  ignore (K.Ev.thread_wakeup done_ev);
                  ignore (K.Ev.thread_wakeup slot_ev);
                  K.Slock.unlock guard
            done)
      in
      let worker w () =
        for i = 0 to ops_per_worker - 1 do
          K.Slock.lock guard;
          while !pending <> None do
            ignore (K.Ev.thread_sleep slot_ev guard);
            K.Slock.lock guard
          done;
          pending := Some (w, (w + i) mod objects);
          ignore (K.Ev.thread_wakeup req_ev);
          while not completed.(w) do
            ignore (K.Ev.thread_sleep done_ev guard);
            K.Slock.lock guard
          done;
          completed.(w) <- false;
          K.Slock.unlock guard
        done
      in
      let ts = List.init workers (fun w -> Engine.spawn (worker w)) in
      List.iter Engine.join ts;
      (* All work submitted and acknowledged; let the master observe
         remaining = 0. *)
      ignore (K.Ev.thread_wakeup req_ev);
      Engine.join master

(* ------------------------------------------------------------------ *)
(* RPC null round-trip                                                  *)
(* ------------------------------------------------------------------ *)

let null_rpc_workload kernel ~clients ~calls_each =
  let client i () =
    for _ = 1 to calls_each do
      match Kernel.rpc_null kernel with
      | Ok () -> ()
      | Error e ->
          Engine.fatal (Printf.sprintf "client %d: null rpc failed: %s" i e)
    done
  in
  let ts =
    List.init clients (fun i ->
        Engine.spawn ~name:(Printf.sprintf "client%d" i) (client i))
  in
  List.iter Engine.join ts

(* ------------------------------------------------------------------ *)
(* TLB shootdown and vm_map_pageable (experiments E10, E6)              *)
(* ------------------------------------------------------------------ *)

module Pmap = Mach_vm.Pmap
module Vm_map = Mach_vm.Vm_map
module Vm_fault = Mach_vm.Vm_fault
module Vm_pageout = Mach_vm.Vm_pageout

(* Victims on every other cpu activate the pmap and spin at spl0; the
   initiator, pinned to cpu0 so it cannot occupy (and starve) a victim's
   cpu while it busy-waits, must rendezvous with all of them at interrupt
   level for each of its removals. *)
let shootdown ?(removals = 8) () =
  let pm = Pmap.create () in
  (* On a uniprocessor there is nobody to shoot down: the removals still
     run (local invalidates only) rather than waiting forever for a victim
     that can never be dispatched. *)
  let participants = Int.max 0 (Engine.cpu_count () - 1) in
  let stop = Engine.Cell.make ~name:"stop" 0 in
  let victims =
    List.init participants (fun k ->
        let cpu = k + 1 in
        Engine.spawn ~name:(Printf.sprintf "victim%d" cpu) ~bound:cpu
          (fun () ->
            Pmap.activate pm ~cpu;
            Engine.spin_hint "stop";
            while Engine.Cell.get stop = 0 do
              Engine.pause ()
            done))
  in
  let initiator =
    Engine.spawn ~name:"initiator" ~bound:0 (fun () ->
        for j = 0 to removals - 1 do
          Pmap.enter pm ~va:(0x1000 + j) ~ppn:j ~prot:Mach_vm.Tlb.Read_write
        done;
        Engine.spin_hint "activation";
        while List.length (Pmap.active_cpus pm) < participants do
          Engine.pause ()
        done;
        for j = 0 to removals - 1 do
          ignore (Pmap.remove pm ~va:(0x1000 + j))
        done;
        Engine.Cell.set stop 1)
  in
  Engine.join initiator;
  List.iter Engine.join victims

(* Wire three pages of a four-page machine while the pageout daemon
   reclaims the other three. *)
let pageable ~use_recursive () =
  let ctx = Vm_map.make_context ~pages:4 () in
  let map = Vm_map.create ctx in
  let reclaimable = Vm_map.vm_allocate map ~size:3 in
  for i = 0 to 2 do
    match Vm_fault.fault map ~va:(reclaimable + i) with
    | Ok _ -> ()
    | Error _ -> Engine.fatal "populate failed"
  done;
  let wired_va = Vm_map.vm_allocate map ~size:3 in
  let daemon = Vm_pageout.start_daemon ~victims:[ map ] in
  let wire =
    if use_recursive then Mach_vm.Vm_pageable.wire_recursive
    else Mach_vm.Vm_pageable.wire_rewritten
  in
  (match wire map ~va:wired_va ~pages:3 with
  | Ok () -> ()
  | Error _ -> Engine.fatal "wire failed");
  Vm_pageout.stop_daemon daemon;
  Vm_map.release map

(* ------------------------------------------------------------------ *)
(* Range locks over the VM map (experiment E16)                         *)
(* ------------------------------------------------------------------ *)

module RL = Mach_locks.Range_lock

(* One cell of the 2-cpu range matrix: two threads acquire one range
   each and meet in the critical section if the lock lets them.
   Conflicting requests held concurrently are fatal (so Mc.check proves
   overlap serializes on every schedule); the returned flag witnesses
   that some schedule did interleave the holds (so Mc.check over the
   disjoint cells proves disjoint ranges are not serialized). *)
let range_pair ~r1 ~m1 ~r2 ~m2 ~expect_parallel () =
  let l = K.Rlock.make ~name:"matrix.range" () in
  (* The occupancy count is an engine cell, not a plain ref: every
     access is a visible operation, so the model checker has choice
     points inside the critical section and can actually interleave the
     two holds.  With an invisible ref the incr..decr window would fuse
     into one transition and concurrency could never be witnessed. *)
  let active = Engine.Cell.make ~name:"matrix.active" 0 in
  let witnessed = ref false in
  let worker name (lo, hi) m =
    Engine.spawn ~name (fun () ->
        let h = K.Rlock.acquire l ~lo ~hi m in
        if Engine.Cell.fetch_and_add active 1 > 0 then begin
          witnessed := true;
          if not expect_parallel then
            Engine.fatal
              "range matrix: conflicting ranges held concurrently"
        end;
        Engine.cycles 5;
        ignore (Engine.Cell.fetch_and_add active (-1));
        K.Rlock.release l h)
  in
  let a = worker "req-a" r1 m1 in
  let b = worker "req-b" r2 m2 in
  Engine.join a;
  Engine.join b;
  !witnessed

let range_disjoint () =
  ignore
    (range_pair ~r1:(0, 4) ~m1:RL.Write ~r2:(8, 12) ~m2:RL.Write
       ~expect_parallel:true ())

let range_overlap () =
  ignore
    (range_pair ~r1:(0, 8) ~m1:RL.Write ~r2:(4, 12) ~m2:RL.Write
       ~expect_parallel:false ())

(* ABBA across two ranges of one lock: each thread holds its first range
   and then wants the other's.  Deadlocks on every schedule once both
   first acquisitions are in — the point is the report: the waits-for
   edges name the exact ranges, so the detector prints the cycle through
   "range lock abba.range [0x0,0x4)" rather than a bare event. *)
let range_abba () =
  let l = K.Rlock.make ~name:"abba.range" () in
  let ready = Engine.Cell.make ~name:"abba.ready" 0 in
  let worker name (lo1, hi1) (lo2, hi2) =
    Engine.spawn ~name (fun () ->
        let h1 = K.Rlock.acquire l ~lo:lo1 ~hi:hi1 RL.Write in
        ignore (Engine.Cell.fetch_and_add ready 1);
        Engine.spin_hint "abba.ready";
        while Engine.Cell.get ready < 2 do
          Engine.pause ()
        done;
        let h2 = K.Rlock.acquire l ~lo:lo2 ~hi:hi2 RL.Write in
        K.Rlock.release l h2;
        K.Rlock.release l h1)
  in
  let a = worker "abba-a" (0, 4) (8, 12) in
  let b = worker "abba-b" (8, 12) (0, 4) in
  Engine.join a;
  Engine.join b

(* The E16 workload: every thread owns a disjoint slice of a huge
   address space and repeatedly allocates, faults and deallocates there.
   Under the coarse map lock the allocate/deallocate writes serialize
   everything; under range locks the threads never conflict. *)
let vm_fault_storm ?(locking = Vm_map.Coarse) ?threads
    ?(pages_per_thread = 4) ?(rounds = 2) () =
  let threads =
    match threads with Some t -> t | None -> Engine.cpu_count ()
  in
  let ctx =
    Vm_map.make_context ~name:"storm" ~pages:(threads * pages_per_thread) ()
  in
  let map = Vm_map.create ~name:"storm" ~locking ctx in
  let ts =
    List.init threads (fun w ->
        Engine.spawn ~name:(Printf.sprintf "faulter%d" w) (fun () ->
            let va = 0x1000 + (w * pages_per_thread) in
            for _ = 1 to rounds do
              (match Vm_map.vm_allocate_at map ~va ~size:pages_per_thread with
              | Ok _ -> ()
              | Error `Overlap -> Engine.fatal "storm: unexpected overlap");
              for i = 0 to pages_per_thread - 1 do
                match Vm_fault.fault map ~va:(va + i) with
                | Ok _ -> ()
                | Error _ -> Engine.fatal "storm: fault failed"
              done;
              match Vm_map.vm_deallocate map ~va with
              | Ok () -> ()
              | Error `No_entry -> Engine.fatal "storm: deallocate failed"
            done))
  in
  List.iter Engine.join ts;
  Vm_map.release map

(* The vm-level matrix cell: one thread faults a region while another
   deallocates a region that either overlaps it or not.  Checks the
   deallocate revalidation path: the fault must see the entry fully or
   not at all, and a disjoint deallocate must never disturb it. *)
let vm_fault_vs_deallocate ~overlapping () =
  let ctx = Vm_map.make_context ~name:"pair" ~pages:8 () in
  let map = Vm_map.create ~name:"pair" ~locking:Vm_map.Range ctx in
  let a = Vm_map.vm_allocate map ~size:2 in
  let b = if overlapping then a else Vm_map.vm_allocate map ~size:2 in
  let faulter =
    Engine.spawn ~name:"faulter" (fun () ->
        match Vm_fault.fault map ~va:a with
        | Ok _ -> ()
        | Error `Bad_address when overlapping ->
            (* the deallocate won the race; legal *)
            ()
        | Error `Bad_address -> Engine.fatal "pair: disjoint fault lost entry"
        | Error `Object_terminated when overlapping -> ()
        | Error `Object_terminated -> Engine.fatal "pair: object terminated")
  in
  let deallocator =
    Engine.spawn ~name:"deallocator" (fun () ->
        match Vm_map.vm_deallocate map ~va:b with
        | Ok () -> ()
        | Error `No_entry -> Engine.fatal "pair: deallocate lost entry")
  in
  Engine.join faulter;
  Engine.join deallocator;
  (match Vm_map.lookup_entry map ~va:a with
  | Some _ when overlapping -> Engine.fatal "pair: deallocated entry survived"
  | None when not overlapping -> Engine.fatal "pair: disjoint entry vanished"
  | _ -> ());
  Vm_map.release map

module Vm_page = Mach_vm.Vm_page
module Vm_cache = Mach_vm.Vm_cache

(* One cell of the 2-cpu scache matrix: two threads take the given sides
   of one Scache_rwlock and meet in the critical section if the protocol
   admits them.  Same shape as [range_pair]: the occupancy count is an
   engine cell so the model checker has choice points inside the
   critical section; conflicting sides held concurrently are fatal, and
   the returned flag witnesses that some schedule interleaved the holds
   (reader parallelism). *)
let scache_pair ~m1 ~m2 ~expect_parallel () =
  let l = K.Locks.Scache.make ~name:"matrix.scache" in
  let active = Engine.Cell.make ~name:"matrix.active" 0 in
  let witnessed = ref false in
  let side name m =
    Engine.spawn ~name (fun () ->
        let release =
          match m with
          | `Read ->
              let slot = K.Locks.Scache.read_lock l in
              fun () -> K.Locks.Scache.read_unlock l ~slot
          | `Write ->
              ignore (K.Locks.Scache.write_lock l);
              fun () -> K.Locks.Scache.write_unlock l
        in
        if Engine.Cell.fetch_and_add active 1 > 0 then begin
          witnessed := true;
          if not expect_parallel then
            Engine.fatal
              "scache matrix: conflicting sides held concurrently"
        end;
        Engine.cycles 5;
        ignore (Engine.Cell.fetch_and_add active (-1));
        release ())
  in
  let a = side "side-a" m1 in
  let b = side "side-b" m2 in
  Engine.join a;
  Engine.join b;
  !witnessed

let scache_rw () =
  ignore (scache_pair ~m1:`Read ~m2:`Write ~expect_parallel:false ())

let scache_ww () =
  ignore (scache_pair ~m1:`Write ~m2:`Write ~expect_parallel:false ())

let scache_rr () =
  ignore (scache_pair ~m1:`Read ~m2:`Read ~expect_parallel:true ())

let write_every = 32

(* The E19 workload: a page cache warmed to full residency, then
   [threads] workers doing read-mostly lookups with an occasional
   evict-and-refill (1 in [write_every] ops takes the write side).
   Under the scache index lock the lookups touch only the caller's own
   refcount slot; under the mutex baseline every lookup serializes. *)
let vm_cache_ops ?(locking = Vm_cache.Scache) ?threads ?(pages = 64)
    ?(ops = 64) () =
  let threads =
    match threads with Some t -> t | None -> Engine.cpu_count ()
  in
  let pool = Vm_page.create ~name:"cache.pool" ~pages:(pages + 4) () in
  let cache = Vm_cache.create ~name:"cache" ~locking ~pool ~size:pages () in
  for offset = 0 to pages - 1 do
    match Vm_cache.lookup_or_fill cache ~offset with
    | Ok _ -> ()
    | Error _ -> Engine.fatal "vm_cache: warm fill failed"
  done;
  let ts =
    List.init threads (fun w ->
        Engine.spawn ~name:(Printf.sprintf "cache%d" w) (fun () ->
            for i = 1 to ops do
              (* Staggered writes (no convoy): each worker evicts and
                 refills only its own stripe page; everyone reads the
                 whole cache.  A read that races an eviction just counts
                 the miss — the owner refills it — so the read path
                 never escalates to the write side. *)
              if (i + (w * 7)) mod write_every = 0 then begin
                let offset = w mod pages in
                ignore (Vm_cache.evict cache ~offset);
                match Vm_cache.lookup_or_fill cache ~offset with
                | Ok _ -> ()
                | Error `No_memory -> Engine.fatal "vm_cache: out of memory"
                | Error `Terminating -> Engine.fatal "vm_cache: terminating"
              end
              else
                match
                  Vm_cache.lookup cache ~offset:(((w * 13) + (i * 7)) mod pages)
                with
                | Some _ -> Engine.cycles 2
                | None -> () (* raced an eviction; owner will refill *)
            done))
  in
  List.iter Engine.join ts;
  Vm_cache.terminate cache

(* ------------------------------------------------------------------ *)
(* The 3-cpu scache matrix cell: two readers racing one writer          *)
(* ------------------------------------------------------------------ *)

module Kobj = Mach_ksync.Kobj
module Port_space = Mach_ipc.Port_space
module Obs_metrics = Mach_obs.Obs_metrics

(* Two readers race one writer on a single Scache_rwlock.  Occupancy is
   one engine cell with weighted increments — readers add 1, the writer
   adds 100 — so every entry is a single atomic visible op: any count
   >= 100 seen by a reader, or > 0 seen by the writer, is a
   reader/writer (or writer/writer) overlap and is fatal.  The returned
   flag witnesses that some schedule interleaved the two READERS (0 <
   prior count < 100), so DPOR over this one scenario both refutes
   writer conflicts and proves the protocol still admits reader
   parallelism with a writer contending — the 2-cpu matrix cannot show
   that, because its reader-parallel cell has no writer in the mix. *)
let scache_rrw () =
  let l = K.Locks.Scache.make ~name:"matrix.scache" in
  let active = Engine.Cell.make ~name:"rrw.active" 0 in
  let witnessed = ref false in
  let reader name =
    Engine.spawn ~name (fun () ->
        let slot = K.Locks.Scache.read_lock l in
        let prior = Engine.Cell.fetch_and_add active 1 in
        if prior >= 100 then
          Engine.fatal "scache rrw: reader and writer held concurrently"
        else if prior > 0 then witnessed := true;
        ignore (Engine.Cell.fetch_and_add active (-1));
        K.Locks.Scache.read_unlock l ~slot)
  in
  let a = reader "reader-a" in
  let b = reader "reader-b" in
  (* The writer runs on the main thread: a fourth thread would multiply
     the schedule tree for no extra coverage, and the 3-cpu search is
     already the expensive cell of the matrix. *)
  ignore (K.Locks.Scache.write_lock l);
  if Engine.Cell.fetch_and_add active 100 > 0 then
    Engine.fatal "scache rrw: writer entered an occupied section";
  ignore (Engine.Cell.fetch_and_add active (-100));
  K.Locks.Scache.write_unlock l;
  Engine.join a;
  Engine.join b;
  !witnessed

(* ------------------------------------------------------------------ *)
(* High-throughput RPC serving (experiment E20)                         *)
(* ------------------------------------------------------------------ *)

(* Simulated cycles of one name-table walk under its shard lock, and of
   the echo routine's work. *)
let walk_cycles = 64
let work_cycles = 4

(* The first end-to-end workload: one client thread per cpu not serving
   hammers [cpus / 8] (at least one) port-based RPC servers through the
   full section 10 reference protocol — name-to-port translation
   ({!Mach_ipc.Port_space.lookup} clones a port reference under a shard
   lock, walking [walk_cycles] inside it), send (the queued message
   references the port and its rights), server receive, port-to-object
   translation (an object reference per request), dispatch, reply, and
   reference releases at every step.  The two throughput mechanisms
   under test: [shards] splits the translation table's lock ([shards] =
   1 is the single global registry), and [batch] > 1 dequeues up to
   [batch] requests per port-lock acquisition (Mig.serve_batch).

   Shutdown always runs under the drain protocol: names are unregistered,
   then each service port is deactivated with its in-flight requests
   answered [err_deactivated] (Mig.drain), so no client sleeps forever on
   its reply port.  With [drain_under_load] a terminator thread does this
   while clients are still calling, and clients treat dead-port /
   deactivated failures as the signal to stop.  Either way the scenario
   ends by checking every port and represented object for the section 4
   failure modes: a leaked reference (count above the creator's) or a
   double release (count below it) is fatal.

   Returns (completed RPCs, requests drained in flight). *)
let rpc_serve ?(shards = 1) ?(batch = 1) ?(calls_each = 8) ?(spin = 8192)
    ?(drain_under_load = false) () =
  let cpus = Engine.cpu_count () in
  let servers = max 1 (cpus / 8) in
  let clients = max 1 (cpus - servers) in
  let space = Port_space.create ~name:"rpc.space" ~shards ~walk_cycles () in
  let lat = Obs_metrics.histogram "rpc.latency_cycles" in
  let completed = Engine.Cell.make ~name:"rpc.completed" 0 in
  let reg = Mig.make_registry () in
  Mig.register reg ~id:1 ~name:"echo" (fun obj args ->
      match obj with
      | None ->
          (* Port drained between receive and translate: the object
             pointer is gone, so fail the request like section 9 says. *)
          Error Mig.err_deactivated
      | Some _ ->
          Engine.cycles work_cycles;
          Ok args);
  let ports =
    Array.init servers (fun j ->
        let p =
          Port.create ~name:(Printf.sprintf "svc%d" j) ~queue_limit:16 ()
        in
        let obj = Kobj.make ~name:(Printf.sprintf "svcobj%d" j) Kobj.No_payload in
        (* The port's object pointer takes its own reference; keep the
           creator's so the object outlives the drain for the final
           refcount audit. *)
        Kobj.reference obj;
        Port.set_object p obj;
        (match Port_space.insert space ~pname:(j + 1) p with
        | Ok () -> ()
        | Error `Name_in_use -> Engine.fatal "rpc: duplicate name");
        (p, obj))
  in
  let server_threads =
    Array.to_list
      (Array.mapi
         (fun j (p, _) ->
           Engine.spawn ~name:(Printf.sprintf "server%d" j) (fun () ->
               (* Spin-then-block with a budget that covers steady-state
                  request gaps: an RPC server parks only when traffic
                  actually stops (or the port dies at drain).  [spin = 0]
                  forces the park-on-every-wait path — the chaos tests
                  use it to make dropped wakeups lethal. *)
               Mig.serve_loop ~batch ~spin reg p))
         ports)
  in
  let drained = ref 0 in
  let shutdown () =
    for j = 1 to servers do
      ignore (Port_space.remove space ~pname:j)
    done;
    Array.iter (fun (p, _) -> drained := !drained + Mig.drain p) ports
  in
  let client i () =
    (* Mach's per-thread cached reply port: one allocation per client,
       not one per call. *)
    let reply_port =
      Port.create ~name:(Printf.sprintf "reply%d" i) ~queue_limit:1 ()
    in
    let rec go k =
      if k > 0 then
        let pname = 1 + ((i + k) mod servers) in
        match Port_space.lookup space ~pname with
        | None ->
            if not drain_under_load then
              Engine.fatal "rpc: name vanished before shutdown"
        | Some port -> (
            let t0 = Engine.now_cycles () in
            let r =
              Mig.call ~poll:spin ~reply_port port ~id:1
                [ Port.Int i; Port.Int k ]
            in
            Port.release port;
            match r with
            | Ok reply ->
                (match reply with
                | [ Port.Int a; Port.Int b ] when a = i && b = k -> ()
                | _ -> Engine.fatal "rpc: reply does not echo the request");
                Obs_metrics.observe 0 lat (Engine.now_cycles () - t0);
                ignore (Engine.Cell.fetch_and_add completed 1);
                go (k - 1)
            | Error `Dead_port when drain_under_load -> ()
            | Error (`Server_failure code)
              when drain_under_load && code = Mig.err_deactivated ->
                ()
            | Error `Dead_port -> Engine.fatal "rpc: dead port before shutdown"
            | Error (`Server_failure code) ->
                Engine.fatal (Printf.sprintf "rpc: server failure %d" code))
    in
    go calls_each;
    Port.destroy reply_port;
    let rc = Port.ref_count reply_port in
    if rc <> 1 then
      Engine.fatal
        (Printf.sprintf "rpc: reply port refcount %d at client exit (leak)" rc);
    Port.release reply_port
  in
  let client_threads =
    List.init clients (fun i ->
        Engine.spawn ~name:(Printf.sprintf "client%d" i) (client i))
  in
  let terminator =
    if not drain_under_load then None
    else
      (* Deactivate mid-run, once enough calls have completed that the
         queues are hot: what's in flight must be answered, not leaked. *)
      let threshold = max 1 (clients * calls_each / 4) in
      Some
        (Engine.spawn ~name:"terminator" (fun () ->
             Engine.spin_hint "rpc.completed";
             (* Bounded wait: under fault injection (chaos) a client can
                be orphaned before [threshold] completions ever happen.
                Giving up and draining anyway converts that hang into a
                parked waiter the deadlock analyzer can attribute — a
                terminator spinning forever would mask it as livelock. *)
             let budget = ref 50_000 in
             while Engine.Cell.get completed < threshold && !budget > 0 do
               decr budget;
               Engine.pause ()
             done;
             shutdown ()))
  in
  List.iter Engine.join client_threads;
  (match terminator with
  | None -> shutdown ()
  | Some t -> Engine.join t);
  List.iter Engine.join server_threads;
  let total = Engine.Cell.get completed in
  if (not drain_under_load) && total <> clients * calls_each then
    Engine.fatal
      (Printf.sprintf "rpc: %d of %d calls completed" total
         (clients * calls_each));
  Array.iter
    (fun (p, obj) ->
      (* The section 4 audit: exactly the creator's reference must
         remain on the port and on the represented object.  More is a
         leak (some path cloned without releasing); fewer is the
         double-free. *)
      let pc = Port.ref_count p in
      if pc <> 1 then
        Engine.fatal
          (Printf.sprintf "rpc: port %s refcount %d at shutdown (leak)"
             (Port.name p) pc);
      Port.release p;
      let oc = Kobj.ref_count obj in
      if oc <> 1 then
        Engine.fatal
          (Printf.sprintf "rpc: object %s refcount %d at shutdown (leak)"
             (Kobj.name obj) oc);
      Kobj.release obj)
    ports;
  (total, !drained)

(* ------------------------------------------------------------------ *)
(* The registry                                                         *)
(* ------------------------------------------------------------------ *)

type expect = Completes | Deadlocks

type entry = {
  name : string;
  doc : string;
  min_cpus : int;
  expect : expect;
  run : unit -> unit;
}

let entry ?(min_cpus = 1) ?(expect = Completes) name doc run =
  { name; doc; min_cpus; expect; run }

let null_rpc () =
  let kernel = Kernel.start ~pages:64 () in
  null_rpc_workload kernel ~clients:4 ~calls_each:25;
  Kernel.shutdown kernel

let task_lifecycle () =
  let kernel = Kernel.start ~pages:128 () in
  let ok = function Ok v -> v | Error e -> Engine.fatal e in
  let ports = List.init 4 (fun _ -> ok (Kernel.rpc_task_create kernel)) in
  List.iter
    (fun p ->
      let va = ok (Kernel.rpc_vm_allocate p ~size:8) in
      ok (Kernel.rpc_vm_wire p ~va ~pages:4);
      ok (Kernel.rpc_task_terminate p);
      Port.release p)
    ports;
  Kernel.shutdown kernel

let object_ops granularity () =
  object_ops_workload granularity ~objects:16 ~workers:(Engine.cpu_count ())
    ~ops_per_worker:30

(* The report golden pins this line. *)
let serve ?shards ?batch ?drain_under_load () =
  let served, drained =
    rpc_serve ?shards ?batch ~calls_each:16 ?drain_under_load ()
  in
  Printf.printf "rpc-serve: served %d drained %d\n" served drained

let all =
  [
    entry "rpc" "boot the kernel; 4 clients make null RPCs to the host port"
      null_rpc;
    entry "task-lifecycle"
      "create tasks over RPC, allocate+wire memory, terminate them"
      task_lifecycle;
    entry "coarse" "object operations under one global kernel lock"
      (object_ops Coarse);
    entry "fine" "object operations under per-object locks (the Mach way)"
      (object_ops Fine);
    entry "funnel" "object operations funnelled through a master processor"
      (object_ops Master_funnel);
    entry "contention"
      "every cpu hammers one ttas lock (the E1/E15 workload shape)" (fun () ->
        contention
          ~lock:(K.Slock.make ~name:"contended" ~proto:K.Locks.ttas ())
          ~iters:10 ());
    entry "interrupt-deadlock" ~min_cpus:3 ~expect:Deadlocks
      "the section 7 three-processor barrier deadlock (buggy variant)"
      (interrupt_barrier_scenario ~disciplined:false);
    entry "interrupt-disciplined" ~min_cpus:3
      "the same scenario under the same-spl rule (never deadlocks)"
      (interrupt_barrier_scenario ~disciplined:true);
    entry "wire-recursive" ~expect:Deadlocks
      "vm_map_pageable with recursive locks vs pageout (section 7.1 bug)"
      (pageable ~use_recursive:true);
    entry "wire-rewritten"
      "the Mach 3.0 vm_map_pageable rewrite vs pageout (deadlock-free)"
      (pageable ~use_recursive:false);
    entry "vm-fault"
      "disjoint-slice allocate/fault/deallocate storm on a range-locked map"
      (fun () -> vm_fault_storm ~locking:Vm_map.Range ());
    entry "vm-fault-coarse"
      "the same storm under the paper's single coarse map lock" (fun () ->
        vm_fault_storm ~locking:Vm_map.Coarse ());
    entry "range-disjoint"
      "two threads hold disjoint ranges of one range lock concurrently"
      range_disjoint;
    entry "range-overlap"
      "two threads contend overlapping write ranges (must serialize)"
      range_overlap;
    (* On one cpu abba-a spins on abba.ready while abba-b waits on the
       run queue: the run hangs before the second range is asked for, so
       there is no inversion to show. *)
    entry "range-deadlock" ~min_cpus:2 ~expect:Deadlocks
      "ABBA across two ranges: the report names the exact ranges held"
      range_abba;
    entry "shootdown"
      "TLB shootdowns: pmap removals rendezvous with every other cpu"
      (fun () -> shootdown ());
    entry "same-spl" ~min_cpus:2
      "minimal section 7 same-spl rule: holder at interrupt spl (safe)"
      (same_spl_holder ~disciplined:true);
    entry "same-spl-buggy" ~min_cpus:2 ~expect:Deadlocks
      "the same scenario holding at spl0: the handler spins on its own \
       interrupted holder"
      (same_spl_holder ~disciplined:false);
    entry "handoff"
      "section 6 event-wait handoff: producer hands a flag to a consumer"
      lost_wakeup_handoff;
    entry "herd" "section 6 broadcast wakeup: several sleepers woken at once"
      (fun () -> wakeup_herd ~sleepers:2 ());
    entry "lost-wakeup-handoff"
      "the handoff under its chaos-set name (drop-wakeup injection hangs it)"
      lost_wakeup_handoff;
    entry "wakeup-herd"
      "the chaos set's broadcast wakeup: four sleepers woken at once"
      (fun () -> wakeup_herd ());
    entry "mcs-handoff"
      "workers contending an MCS queue lock (explicit successor handoff)"
      (handoff_workers ~name:"mcs" ~proto:K.Locks.mcs);
    entry "scache-handoff"
      "workers contending the scache writer side (FIFO grant handoff)"
      (handoff_workers ~name:"scache" ~proto:K.Locks.scache_writer);
    entry "scache-rw"
      "scache matrix: reader vs writer on one scache RW lock (must serialize)"
      scache_rw;
    entry "scache-ww"
      "scache matrix: writer vs writer through the FIFO ticket gate (must \
       serialize)"
      scache_ww;
    entry "scache-rr"
      "scache matrix: two readers on their own refcount slots (may \
       interleave)"
      scache_rr;
    entry "vm-cache"
      "read-mostly page-lookup storm on a scache-locked page cache"
      (fun () -> vm_cache_ops ());
    entry "vm-cache-mutex"
      "the same storm with the cache index under one flat mutex" (fun () ->
        vm_cache_ops ~locking:Vm_cache.Mutex ());
    entry "scache-rrw"
      "scache matrix, 3 cpus: two readers racing one writer (readers may \
       interleave; a writer overlap is fatal)"
      (fun () -> ignore (scache_rrw ()));
    entry "rpc-serve"
      "E20 RPC serving: clients hammer MiG servers through a sharded \
       namespace with batched dispatch, then drain cleanly"
      (serve ~shards:8 ~batch:8);
    entry "rpc-serve-flat"
      "the same workload through the single global registry, batch=1 (the \
       unsharded baseline)"
      (fun () -> serve ());
    entry "rpc-serve-drain"
      "RPC serving terminated under load: in-flight requests are answered \
       err_deactivated, refcounts audited"
      (serve ~shards:4 ~batch:4 ~drain_under_load:true);
    entry "queue-locks"
      "one contended critical section per queue-lock protocol (ticket, MCS, \
       Anderson) plus a big-reader read burst"
      queue_locks;
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let get name =
  match find name with
  | Some e -> e
  | None -> invalid_arg ("Scenarios.get: no scenario named " ^ name)
