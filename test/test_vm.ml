(* The VM subsystem: page pool, pmaps/pv-lists and their lock orders, TLB
   shootdown, memory objects, maps, faults, and the vm_map_pageable
   deadlock of section 7.1 (experiment E6). *)

module Engine = Mach_sim.Sim_engine
module Explore = Mach_sim.Sim_explore
module K = Mach_ksync.Ksync
module Spl = Mach_core.Spl
module Vm = Mach_vm
module Scenarios = Mach_kernel.Scenarios
open Test_support

let mk_ctx ?(pages = 64) () = Vm.Vm_map.make_context ~pages ()

(* ------------------------------------------------------------------ *)
(* Page pool                                                            *)
(* ------------------------------------------------------------------ *)

let test_pool_alloc_free () =
  in_sim (fun () ->
      let pool = Vm.Vm_page.create ~pages:4 () in
      check_int "all free" 4 (Vm.Vm_page.free_count pool);
      let pages = List.init 4 (fun _ -> Option.get (Vm.Vm_page.alloc pool)) in
      check_bool "exhausted" true (Vm.Vm_page.alloc pool = None);
      List.iter (Vm.Vm_page.free pool) pages;
      check_int "all free again" 4 (Vm.Vm_page.free_count pool))

let test_pool_blocking_alloc () =
  ignore
    (Engine.run (fun () ->
         let pool = Vm.Vm_page.create ~pages:1 () in
         let p0 = Option.get (Vm.Vm_page.alloc pool) in
         let got = ref None in
         let waiter =
           Engine.spawn ~name:"allocator" (fun () ->
               got := Some (Vm.Vm_page.alloc_blocking pool))
         in
         wait_until (fun () -> Vm.Vm_page.free_wanted pool);
         check_bool "still blocked" true (!got = None);
         Vm.Vm_page.free pool p0;
         Engine.join waiter;
         check_bool "served" true (!got = Some p0)))

(* Freeing a page twice, one never allocated or one outside the pool is
   the fatal [vm_page: bad free]; a good free goes back on top of the
   free list. *)
let test_pool_double_free_panics () =
  List.iter
    (fun page ->
      match
        Engine.run_outcome (fun () ->
            let pool = Vm.Vm_page.create ~pages:4 () in
            let p = Option.get (Vm.Vm_page.alloc pool) in
            let q = Option.get (Vm.Vm_page.alloc pool) in
            Vm.Vm_page.free pool q;
            Vm.Vm_page.free pool p;
            check_int "last freed, first allocated" p
              (Option.get (Vm.Vm_page.alloc pool));
            Vm.Vm_page.free pool p;
            Vm.Vm_page.free pool page)
      with
      | Engine.Panicked msg ->
          check_bool
            (Printf.sprintf "page %d: %s" page msg)
            true
            (contains msg (Printf.sprintf "vm_page: bad free of page %d" page))
      | _ -> Alcotest.failf "freeing page %d must panic" page)
    (* page 0 is the one just freed, 3 was never allocated *)
    [ 0; 3; -1; 4 ]

(* ------------------------------------------------------------------ *)
(* Pmap + TLB + shootdown                                               *)
(* ------------------------------------------------------------------ *)

let test_pmap_enter_translate_remove () =
  in_sim (fun () ->
      let pm = Vm.Pmap.create ~name:"pm" () in
      Vm.Pmap.enter pm ~va:0x1000 ~ppn:7 ~prot:Vm.Tlb.Read_write;
      (match Vm.Pmap.translate pm ~va:0x1000 with
      | Some e ->
          check_int "ppn" 7 e.Vm.Tlb.ppn;
          check_bool "prot" true (e.Vm.Tlb.prot = Vm.Tlb.Read_write)
      | None -> Alcotest.fail "translation missing");
      check_int "resident" 1 (Vm.Pmap.resident_count pm);
      check_bool "remove returns page" true (Vm.Pmap.remove pm ~va:0x1000 = Some 7);
      check_bool "gone" true (Vm.Pmap.translate pm ~va:0x1000 = None))

let test_shootdown_invalidates_remote_tlb () =
  ignore
    (Engine.run
       ~cfg:{ Mach_sim.Sim_config.default with Mach_sim.Sim_config.cpus = 3 }
       (fun () ->
         let pm = Vm.Pmap.create () in
         let loaded = Engine.Cell.make 0 in
         let proceed = Engine.Cell.make 0 in
         (* A thread on cpu 1 uses the mapping, loading its TLB. *)
         let user =
           Engine.spawn ~name:"user" ~bound:1 (fun () ->
               Vm.Pmap.activate pm ~cpu:1;
               Vm.Pmap.enter pm ~va:0x2000 ~ppn:3 ~prot:Vm.Tlb.Read_write;
               ignore (Vm.Pmap.translate pm ~va:0x2000);
               Engine.Cell.set loaded 1;
               (* Spin at spl0 so the shootdown IPI can arrive. *)
               Engine.spin_hint "proceed";
               while Engine.Cell.get proceed = 0 do
                 Engine.pause ()
               done;
               (* After the shootdown, the stale translation must be gone
                  from this cpu's TLB. *)
               if
                 Vm.Tlb.lookup ~cpu:(Engine.current_cpu ())
                   ~pmap_id:(Vm.Pmap.id pm) ~va:0x2000
                 <> None
               then Engine.fatal "stale TLB entry survived the shootdown")
         in
         let remover =
           Engine.spawn ~name:"remover" ~bound:2 (fun () ->
               Engine.spin_hint "loaded";
               while Engine.Cell.get loaded = 0 do
                 Engine.pause ()
               done;
               Vm.Pmap.activate pm ~cpu:2;
               check_bool "remove" true (Vm.Pmap.remove pm ~va:0x2000 = Some 3);
               Engine.Cell.set proceed 1)
         in
         Engine.join remover;
         Engine.join user;
         check_bool "a shootdown happened" true
           (Vm.Tlb_shootdown.shootdowns_performed () > 0)))

let test_shootdown_requires_splvm () =
  match
    Engine.run_outcome (fun () ->
        Vm.Tlb_shootdown.shootdown ~pmap_id:0 ~targets:[]
          ~invalidate:(fun ~cpu -> ignore cpu)
          ~commit:(fun () -> ()))
  with
  | Engine.Panicked msg -> check_bool "spl rule" true (contains msg "splvm")
  | _ -> Alcotest.fail "shootdown below splvm must panic"

let test_shootdown_skips_pmap_critical_cpu () =
  (* The section 7 special logic: a cpu spinning on a pmap lock at splvm
     cannot take the barrier interrupt and must be excluded, otherwise
     the shootdown initiator (holding that pmap lock) deadlocks. *)
  let v =
    Explore.run ~cpus:3
      ~seeds:(List.init 15 (fun i -> i + 1))
      (fun () ->
        let pm = Vm.Pmap.create () in
        Vm.Pmap.enter pm ~va:0x3000 ~ppn:1 ~prot:Vm.Tlb.Read_write;
        let spinner_started = Engine.Cell.make 0 in
        (* cpu 1 and cpu 2 both use the pmap. *)
        Vm.Pmap.activate pm ~cpu:1;
        Vm.Pmap.activate pm ~cpu:2;
        (* A thread bound to cpu 1 hammers the pmap (it will often be in
           a pmap critical section when the shootdown fires). *)
        let stop = Engine.Cell.make 0 in
        let hammer =
          Engine.spawn ~name:"hammer" ~bound:1 (fun () ->
              Engine.Cell.set spinner_started 1;
              while Engine.Cell.get stop = 0 do
                ignore (Vm.Pmap.translate pm ~va:0x3000);
                Engine.pause ()
              done)
        in
        (* The initiator removes the mapping (shootdown inside). *)
        let initiator =
          Engine.spawn ~name:"initiator" ~bound:0 (fun () ->
              Engine.spin_hint "spinner-started";
              while Engine.Cell.get spinner_started = 0 do
                Engine.pause ()
              done;
              ignore (Vm.Pmap.remove pm ~va:0x3000);
              Engine.Cell.set stop 1)
        in
        Engine.join initiator;
        Engine.join hammer)
  in
  check_bool "no schedule deadlocks" true (Explore.all_completed v)

(* ------------------------------------------------------------------ *)
(* pv lists and the pmap system lock                                    *)
(* ------------------------------------------------------------------ *)

let test_pv_list_tracks_mappings () =
  in_sim (fun () ->
      let pv = Vm.Pv_list.create () in
      let pm1 = Vm.Pmap.create () and pm2 = Vm.Pmap.create () in
      Vm.Pv_list.enter pv ~ppn:5 ~pmap:pm1 ~va:0x1000;
      Vm.Pv_list.enter pv ~ppn:5 ~pmap:pm2 ~va:0x8000;
      check_int "two mappings" 2 (List.length (Vm.Pv_list.mappings pv ~ppn:5));
      Vm.Pv_list.remove pv ~ppn:5 ~pmap:pm1 ~va:0x1000;
      check_int "one left" 1 (List.length (Vm.Pv_list.mappings pv ~ppn:5)))

let test_pv_remove_all_breaks_mappings () =
  in_sim (fun () ->
      let pv = Vm.Pv_list.create () in
      let psys = Vm.Pmap_system.create () in
      let pm1 = Vm.Pmap.create () and pm2 = Vm.Pmap.create () in
      Vm.Pmap.enter pm1 ~va:0x1000 ~ppn:5 ~prot:Vm.Tlb.Read_write;
      Vm.Pmap.enter pm2 ~va:0x8000 ~ppn:5 ~prot:Vm.Tlb.Read_only;
      Vm.Pv_list.enter pv ~ppn:5 ~pmap:pm1 ~va:0x1000;
      Vm.Pv_list.enter pv ~ppn:5 ~pmap:pm2 ~va:0x8000;
      let broken =
        Vm.Pmap_system.reverse psys (fun () ->
            Vm.Pv_list.remove_all_mappings pv ~ppn:5)
      in
      check_int "both broken" 2 broken;
      check_bool "pm1 empty" true (Vm.Pmap.translate pm1 ~va:0x1000 = None);
      check_bool "pm2 empty" true (Vm.Pmap.translate pm2 ~va:0x8000 = None))

let test_fault_vs_pageout_orders_explored () =
  (* Forward (pmap->pv) and reverse (pv->pmap) orders running
     concurrently, arbitrated by the pmap system lock: no deadlock on any
     schedule (experiment E12's correctness side). *)
  let v =
    Explore.run ~cpus:3
      ~seeds:(List.init 15 (fun i -> i + 1))
      (fun () ->
        let ctx = mk_ctx ~pages:16 () in
        let map = Vm.Vm_map.create ctx in
        let va = Vm.Vm_map.vm_allocate map ~size:4 in
        (* populate *)
        for i = 0 to 3 do
          match Vm.Vm_fault.fault map ~va:(va + i) with
          | Ok _ -> ()
          | Error _ -> Engine.fatal "populate fault failed"
        done;
        let faulter =
          Engine.spawn ~name:"faulter" (fun () ->
              for i = 0 to 3 do
                ignore (Vm.Vm_fault.fault map ~va:(va + i))
              done)
        in
        let pageout =
          Engine.spawn ~name:"pageout" (fun () ->
              ignore (Vm.Vm_pageout.reclaim_from_map map))
        in
        Engine.join faulter;
        Engine.join pageout;
        Vm.Vm_map.release map)
  in
  check_bool "no deadlocks across orders" true (Explore.all_completed v)

(* ------------------------------------------------------------------ *)
(* Memory objects                                                       *)
(* ------------------------------------------------------------------ *)

let test_object_pages_and_termination () =
  in_sim (fun () ->
      let pool = Vm.Vm_page.create ~pages:8 () in
      let obj = Vm.Vm_object.create ~name:"obj" ~pool ~size:4 () in
      Vm.Vm_object.with_lock obj (fun () ->
          let ppn = Option.get (Vm.Vm_page.alloc pool) in
          ignore (Vm.Vm_object.insert_page obj ~offset:0 ~ppn);
          check_bool "resident" true (Vm.Vm_object.page_at obj ~offset:0 <> None));
      check_int "one page held" 7 (Vm.Vm_page.free_count pool);
      Vm.Vm_object.terminate obj;
      check_int "pages returned on termination" 8 (Vm.Vm_page.free_count pool);
      check_bool "inactive" false (Vm.Vm_object.is_active obj);
      Vm.Vm_object.release obj)

let test_paging_count_excludes_termination () =
  ignore
    (Engine.run (fun () ->
         let pool = Vm.Vm_page.create ~pages:8 () in
         let obj = Vm.Vm_object.create ~pool ~size:4 () in
         Vm.Vm_object.lock obj;
         check_bool "paging starts" true (Vm.Vm_object.paging_begin obj);
         Vm.Vm_object.unlock obj;
         let terminated = ref false in
         let terminator =
           Engine.spawn ~name:"terminator" (fun () ->
               Vm.Vm_object.terminate obj;
               terminated := true)
         in
         wait_until (fun () -> K.Ev.waiting_on terminator <> None);
         check_bool "termination waits for paging" false !terminated;
         Vm.Vm_object.lock obj;
         Vm.Vm_object.paging_end obj;
         Vm.Vm_object.unlock obj;
         Engine.join terminator;
         check_bool "terminated after drain" true !terminated;
         Vm.Vm_object.release obj))

let test_pager_ports_created_once () =
  (* The section 5 customized lock: concurrent callers, one creation. *)
  let v =
    Explore.run ~cpus:4
      ~seeds:(List.init 15 (fun i -> i + 1))
      (fun () ->
        let pool = Vm.Vm_page.create ~pages:4 () in
        let obj = Vm.Vm_object.create ~pool ~size:4 () in
        let ports = Array.make 4 None in
        let ts =
          List.init 4 (fun i ->
              Engine.spawn (fun () ->
                  let p, _, _ = Vm.Vm_object.ensure_pager_ports obj in
                  ports.(i) <- Some (Mach_ipc.Port.uid p)))
        in
        List.iter Engine.join ts;
        let uids =
          Array.to_list ports |> List.filter_map Fun.id |> List.sort_uniq compare
        in
        if List.length uids <> 1 then
          Engine.fatal "pager ports created more than once")
  in
  check_bool "at most once on all schedules" true (Explore.all_completed v)

(* ------------------------------------------------------------------ *)
(* Maps and faults                                                      *)
(* ------------------------------------------------------------------ *)

let test_allocate_fault_deallocate () =
  in_sim (fun () ->
      let ctx = mk_ctx () in
      let map = Vm.Vm_map.create ctx in
      let va = Vm.Vm_map.vm_allocate map ~size:8 in
      (match Vm.Vm_fault.fault map ~va with
      | Ok ppn ->
          (* the translation is installed *)
          (match Vm.Pmap.translate (Vm.Vm_map.pmap map) ~va with
          | Some e -> check_int "mapped" ppn e.Vm.Tlb.ppn
          | None -> Alcotest.fail "no translation after fault")
      | Error _ -> Alcotest.fail "fault failed");
      let free_before = Vm.Vm_page.free_count ctx.Vm.Vm_map.pool in
      (match Vm.Vm_map.vm_deallocate map ~va with
      | Ok () -> ()
      | Error `No_entry -> Alcotest.fail "deallocate failed");
      check_int "page freed" (free_before + 1)
        (Vm.Vm_page.free_count ctx.Vm.Vm_map.pool);
      check_bool "translation gone" true
        (Vm.Pmap.translate (Vm.Vm_map.pmap map) ~va = None);
      Vm.Vm_map.release map)

let test_fault_bad_address () =
  in_sim (fun () ->
      let ctx = mk_ctx () in
      let map = Vm.Vm_map.create ctx in
      (match Vm.Vm_fault.fault map ~va:0xdead000 with
      | Error `Bad_address -> ()
      | _ -> Alcotest.fail "expected Bad_address");
      Vm.Vm_map.release map)

let test_fault_waits_for_memory_then_completes () =
  ignore
    (Engine.run (fun () ->
         let ctx = mk_ctx ~pages:2 () in
         let map = Vm.Vm_map.create ctx in
         let va = Vm.Vm_map.vm_allocate map ~size:4 in
         (* exhaust the pool *)
         ignore (Vm.Vm_fault.fault map ~va);
         ignore (Vm.Vm_fault.fault map ~va:(va + 1));
         let done_flag = ref false in
         let faulter =
           Engine.spawn ~name:"faulter" (fun () ->
               (match Vm.Vm_fault.fault map ~va:(va + 2) with
               | Ok _ -> ()
               | Error _ -> Engine.fatal "fault failed");
               done_flag := true)
         in
         wait_until (fun () -> Vm.Vm_page.free_wanted ctx.Vm.Vm_map.pool);
         check_bool "fault is waiting for memory" false !done_flag;
         (* a pageout pass frees memory (nothing is wired) *)
         let freed = Vm.Vm_pageout.reclaim_from_map map in
         check_bool "something reclaimed" true (freed > 0);
         Engine.join faulter;
         check_bool "fault completed after reclaim" true !done_flag;
         Vm.Vm_map.release map))

(* ------------------------------------------------------------------ *)
(* vm_map_pageable: the section 7.1 deadlock and its rewrite (E6)       *)
(* ------------------------------------------------------------------ *)

let test_recursive_wire_deadlocks () =
  (* The paper: "While these deadlocks are difficult to cause, they have
     been observed in practice."  Exploration finds a schedule. *)
  match
    Explore.find_first_deadlock ~cpus:3 ~max_seeds:60
      (Scenarios.pageable ~use_recursive:true)
  with
  | Some (_seed, report) ->
      check_bool "pageout is part of the deadlock" true
        (contains report "pageout")
  | None ->
      Alcotest.fail
        "the recursive vm_map_pageable should deadlock on some schedule"

let test_rewritten_wire_never_deadlocks () =
  let v =
    Explore.run ~cpus:3
      ~seeds:(List.init 60 (fun i -> i + 1))
      (Scenarios.pageable ~use_recursive:false)
  in
  check_bool "the section 7.1 rewrite never deadlocks" true
    (Explore.all_completed v)

let test_wire_pins_pages () =
  in_sim (fun () ->
      let ctx = mk_ctx ~pages:8 () in
      let map = Vm.Vm_map.create ctx in
      let va = Vm.Vm_map.vm_allocate map ~size:3 in
      (match Vm.Vm_pageable.wire_rewritten map ~va ~pages:3 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "wire failed");
      check_int "three wired pages" 3 (Vm.Vm_pageable.wired_page_count map);
      (* pageout cannot touch them *)
      check_int "nothing reclaimable" 0 (Vm.Vm_pageout.reclaim_from_map map);
      Vm.Vm_pageable.unwire map ~va ~pages:3;
      check_int "unwired" 0 (Vm.Vm_pageable.wired_page_count map);
      check_int "now reclaimable" 3 (Vm.Vm_pageout.reclaim_from_map map);
      Vm.Vm_map.release map)

(* ------------------------------------------------------------------ *)
(* Range-locked maps (experiment E16)                                   *)
(* ------------------------------------------------------------------ *)


let test_range_allocate_fault_deallocate () =
  in_sim (fun () ->
      let ctx = mk_ctx () in
      let map = Vm.Vm_map.create ~locking:Vm.Vm_map.Range ctx in
      check_bool "range mode" true (Vm.Vm_map.locking map = Vm.Vm_map.Range);
      let va = Vm.Vm_map.vm_allocate map ~size:8 in
      (match Vm.Vm_fault.fault map ~va with
      | Ok ppn -> (
          match Vm.Pmap.translate (Vm.Vm_map.pmap map) ~va with
          | Some e -> check_int "mapped" ppn e.Vm.Tlb.ppn
          | None -> Alcotest.fail "no translation after fault")
      | Error _ -> Alcotest.fail "fault failed");
      (match Vm.Vm_map.vm_allocate_at map ~va ~size:2 with
      | Error `Overlap -> ()
      | Ok _ -> Alcotest.fail "overlapping allocate_at admitted");
      let free_before = Vm.Vm_page.free_count ctx.Vm.Vm_map.pool in
      (match Vm.Vm_map.vm_deallocate map ~va with
      | Ok () -> ()
      | Error `No_entry -> Alcotest.fail "deallocate failed");
      check_int "page freed" (free_before + 1)
        (Vm.Vm_page.free_count ctx.Vm.Vm_map.pool);
      check_bool "translation gone" true
        (Vm.Pmap.translate (Vm.Vm_map.pmap map) ~va = None);
      Vm.Vm_map.release map)

let test_range_wire_pins_pages () =
  in_sim (fun () ->
      let ctx = mk_ctx ~pages:8 () in
      let map = Vm.Vm_map.create ~locking:Vm.Vm_map.Range ctx in
      let va = Vm.Vm_map.vm_allocate map ~size:3 in
      (* wire_recursive dispatches to the rewrite under Range locking:
         recursion is a property of the coarse map lock. *)
      (match Vm.Vm_pageable.wire_recursive map ~va ~pages:3 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "wire failed");
      check_int "three wired pages" 3 (Vm.Vm_pageable.wired_page_count map);
      check_int "nothing reclaimable" 0 (Vm.Vm_pageout.reclaim_from_map map);
      Vm.Vm_pageable.unwire map ~va ~pages:3;
      check_int "unwired" 0 (Vm.Vm_pageable.wired_page_count map);
      Vm.Vm_map.release map)

let test_range_storm_explored () =
  (* Disjoint per-thread slices of one Range map, allocate_at / fault /
     deallocate in a loop, across seeds: no deadlock, no panic, and the
     map invariants hold on every schedule (the scenario is fatal on any
     unexpected outcome). *)
  let v =
    Explore.run ~cpus:4
      ~seeds:(List.init 20 (fun i -> i + 1))
      (fun () ->
        Scenarios.vm_fault_storm ~locking:Vm.Vm_map.Range ~threads:4
          ~pages_per_thread:2 ~rounds:2 ())
  in
  check_bool "storm completes on all schedules" true (Explore.all_completed v)

let test_range_deadlock_names_ranges () =
  (* The waits-for integration: an ABBA deadlock across two ranges of
     one lock is reported with the exact [lo,hi) of each range. *)
  let cfg = { Mach_sim.Sim_config.default with Mach_sim.Sim_config.cpus = 2 } in
  match Engine.run_outcome ~cfg Scenarios.range_abba with
  | Engine.Deadlocked (Engine.Sleep_deadlock, report) ->
      check_bool "cycle names the range lock" true
        (contains report "range lock abba.range");
      check_bool "cycle names the exact range" true
        (contains report "[0,0x4)")
  | _ -> Alcotest.fail "range ABBA must sleep-deadlock"

(* ------------------------------------------------------------------ *)
(* Terminate/release pairing and unconditional underflow detection      *)
(* ------------------------------------------------------------------ *)

(* A full map lifecycle — including release with live entries, the
   terminate-then-release path — is reference-balanced: with checking
   disabled the only trap still armed is the refcount underflow one, so
   completing cleanly proves no double release hides in the pairing. *)
let test_terminate_release_pairing_balanced () =
  K.Ref.set_checking false;
  let outcome =
    Engine.run_outcome (fun () ->
        List.iter
          (fun locking ->
            let ctx = mk_ctx () in
            let map = Vm.Vm_map.create ~locking ctx in
            let va = Vm.Vm_map.vm_allocate map ~size:4 in
            ignore (Vm.Vm_fault.fault map ~va);
            (match Vm.Vm_map.vm_deallocate map ~va with
            | Ok () -> ()
            | Error `No_entry -> Engine.fatal "deallocate failed");
            let va2 = Vm.Vm_map.vm_allocate map ~size:2 in
            ignore (Vm.Vm_fault.fault map ~va:va2);
            (* live entry at release: destroy_entry terminates and
               releases the object exactly once *)
            Vm.Vm_map.release map)
          [ Vm.Vm_map.Coarse; Vm.Vm_map.Range ])
  in
  K.Ref.set_checking true;
  match outcome with
  | Engine.Completed _ -> ()
  | Engine.Panicked msg -> Alcotest.failf "unbalanced pairing: %s" msg
  | _ -> Alcotest.fail "map lifecycle did not complete"

(* The regression half: an actual double release must still panic with
   checking disabled — underflow detection is not debug-only. *)
let test_double_release_trapped_unconditionally () =
  K.Ref.set_checking false;
  let outcome =
    Engine.run_outcome (fun () ->
        let pool = Vm.Vm_page.create ~pages:4 () in
        let obj = Vm.Vm_object.create ~pool ~size:2 () in
        Vm.Vm_object.terminate obj;
        Vm.Vm_object.release obj;
        Vm.Vm_object.release obj)
  in
  K.Ref.set_checking true;
  match outcome with
  | Engine.Panicked msg ->
      check_bool "underflow trapped" true (contains msg "double free")
  | _ -> Alcotest.fail "double release must panic even with checking off"

let () =
  Alcotest.run "vm"
    [
      ( "page pool",
        [
          Alcotest.test_case "alloc/free" `Quick test_pool_alloc_free;
          Alcotest.test_case "blocking alloc" `Quick test_pool_blocking_alloc;
          Alcotest.test_case "double free" `Quick test_pool_double_free_panics;
        ] );
      ( "pmap + shootdown",
        [
          Alcotest.test_case "enter/translate/remove" `Quick
            test_pmap_enter_translate_remove;
          Alcotest.test_case "shootdown invalidates remote TLB" `Quick
            test_shootdown_invalidates_remote_tlb;
          Alcotest.test_case "shootdown needs splvm" `Quick
            test_shootdown_requires_splvm;
          Alcotest.test_case "pmap-critical special logic" `Slow
            test_shootdown_skips_pmap_critical_cpu;
        ] );
      ( "pv lists + system lock",
        [
          Alcotest.test_case "tracking" `Quick test_pv_list_tracks_mappings;
          Alcotest.test_case "remove_all breaks mappings" `Quick
            test_pv_remove_all_breaks_mappings;
          Alcotest.test_case "fault vs pageout orders" `Slow
            test_fault_vs_pageout_orders_explored;
        ] );
      ( "memory objects",
        [
          Alcotest.test_case "pages + termination" `Quick
            test_object_pages_and_termination;
          Alcotest.test_case "paging count excludes termination" `Quick
            test_paging_count_excludes_termination;
          Alcotest.test_case "pager ports once" `Slow
            test_pager_ports_created_once;
        ] );
      ( "maps + faults",
        [
          Alcotest.test_case "allocate/fault/deallocate" `Quick
            test_allocate_fault_deallocate;
          Alcotest.test_case "bad address" `Quick test_fault_bad_address;
          Alcotest.test_case "fault waits for memory" `Quick
            test_fault_waits_for_memory_then_completes;
        ] );
      ( "vm_map_pageable (section 7.1)",
        [
          Alcotest.test_case "recursive wire deadlocks" `Quick
            test_recursive_wire_deadlocks;
          Alcotest.test_case "rewrite never deadlocks" `Slow
            test_rewritten_wire_never_deadlocks;
          Alcotest.test_case "wire pins pages" `Quick test_wire_pins_pages;
        ] );
      ( "range-locked maps (E16)",
        [
          Alcotest.test_case "allocate/fault/deallocate under Range" `Quick
            test_range_allocate_fault_deallocate;
          Alcotest.test_case "wire pins pages under Range" `Quick
            test_range_wire_pins_pages;
          Alcotest.test_case "fault storm explored" `Slow
            test_range_storm_explored;
          Alcotest.test_case "deadlock report names exact ranges" `Quick
            test_range_deadlock_names_ranges;
        ] );
      ( "refcount pairing",
        [
          Alcotest.test_case "terminate/release pairing balanced" `Quick
            test_terminate_release_pairing_balanced;
          Alcotest.test_case "double release trapped with checking off" `Quick
            test_double_release_trapped_unconditionally;
        ] );
    ]
