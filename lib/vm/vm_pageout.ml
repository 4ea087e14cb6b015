module Engine = Mach_sim.Sim_engine

let reclaim_from_map map =
  let ctx = Vm_map.context map in
  (* "Obtaining more memory requires a write lock on the same map"
     (section 7.1) — the pageout scans every entry, so on a Range map
     this is a full-range write. *)
  let h = Vm_map.lock_map_write map in
  let victims =
    List.concat_map
      (fun e ->
        if e.Vm_map.e_wired then []
        else
          Vm_object.with_lock e.Vm_map.e_object (fun () ->
              List.filter_map
                (fun (p : Vm_object.page) ->
                  if p.Vm_object.wired = 0 then
                    Some (e, p.Vm_object.offset, p.Vm_object.ppn)
                  else None)
                (Vm_object.resident_pages e.Vm_map.e_object)))
      (Vm_map.entries map)
  in
  let freed = ref 0 in
  List.iter
    (fun (e, offset, ppn) ->
      (* Reverse order (pv list, then pmaps): exclusive access to the pv
         lists via the write side of the pmap system lock (section 5). *)
      Pmap_system.reverse ctx.psys (fun () ->
          ignore (Pv_list.remove_all_mappings ctx.pv ~ppn));
      let removed =
        Vm_object.with_lock e.Vm_map.e_object (fun () ->
            match Vm_object.page_at e.Vm_map.e_object ~offset with
            | Some p when p.Vm_object.wired = 0 ->
                Vm_object.remove_page e.Vm_map.e_object ~offset
            | Some _ | None -> None)
      in
      match removed with
      | Some ppn' ->
          Vm_page.free ctx.pool ppn';
          incr freed
      | None -> ())
    victims;
  Vm_map.bump_version map;
  Vm_map.unlock_range map h;
  !freed

type daemon = { thread : Engine.thread; stop_flag : bool ref; pool : Vm_page.t }

let start_daemon ~victims =
  let pool =
    match victims with
    | [] -> invalid_arg "Vm_pageout.start_daemon: no victim maps"
    | m :: _ -> (Vm_map.context m).Vm_map.pool
  in
  let stop_flag = ref false in
  let thread =
    Engine.spawn ~name:"pageout" (fun () ->
        while not !stop_flag do
          Vm_page.wait_free_wanted pool;
          if not !stop_flag then
            List.iter (fun m -> ignore (reclaim_from_map m)) victims
        done)
  in
  { thread; stop_flag; pool }

let stop_daemon d =
  d.stop_flag := true;
  Vm_page.shortage_event_kick d.pool;
  Engine.join d.thread
