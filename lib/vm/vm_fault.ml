module K = Mach_ksync.Ksync
module Obs_span = Mach_obs.Obs_span

type fault_error = [ `Bad_address | `Object_terminated ]

(* The fault holds only the faulting page's range ([va, va+1)) for
   reading: on a Range map, faults on different pages — and allocations
   of disjoint regions — proceed in parallel; on a Coarse map this is
   the classic whole-map read lock. *)
let rec fault_inner ~wire ~prealloc map ~va =
  let ctx = Vm_map.context map in
  let h = Vm_map.lock_range_read map ~lo:va ~hi:(va + 1) in
  match Vm_map.lookup_entry map ~va with
  | None ->
      Vm_map.unlock_range map h;
      (match prealloc with Some ppn -> Vm_page.free ctx.pool ppn | None -> ());
      Error `Bad_address
  | Some e -> (
      let offset = e.Vm_map.e_offset + (va - e.Vm_map.va_start) in
      let obj = e.Vm_map.e_object in
      Vm_object.lock obj;
      if not (Vm_object.paging_begin obj) then begin
        Vm_object.unlock obj;
        Vm_map.unlock_range map h;
        (match prealloc with
        | Some ppn -> Vm_page.free ctx.pool ppn
        | None -> ());
        Error `Object_terminated
      end
      else
        let finish page =
          if wire then Vm_object.wire page;
          let ppn = page.Vm_object.ppn in
          Vm_object.unlock obj;
          (* Install the translation with the paging count held: the
             object cannot be terminated under us. *)
          Vm_map.map_page map e ~va ~ppn;
          Vm_object.lock obj;
          Vm_object.paging_end obj;
          Vm_object.unlock obj;
          Vm_map.unlock_range map h;
          Ok ppn
        in
        match Vm_object.page_at obj ~offset with
        | Some page ->
            (match prealloc with
            | Some ppn ->
                (* We raced: the page appeared while we waited.  Put the
                   spare back (without locks held). *)
                Vm_object.paging_end obj;
                Vm_object.unlock obj;
                Vm_map.unlock_range map h;
                Vm_page.free ctx.pool ppn;
                fault_inner ~wire ~prealloc:None map ~va
            | None -> finish page)
        | None -> (
            let grabbed =
              match prealloc with
              | Some ppn -> Some ppn
              | None -> Vm_page.alloc ctx.pool
            in
            match grabbed with
            | Some ppn -> finish (Vm_object.insert_page obj ~offset ~ppn)
            | None ->
                (* Physical memory shortage: the fault routine drops its
                   locks to wait for memory (section 7.1), then retries.
                   Note that only the fault's OWN read lock is dropped —
                   an enclosing recursive read hold remains. *)
                Vm_object.paging_end obj;
                Vm_object.unlock obj;
                Vm_map.unlock_range map h;
                let ppn = Vm_page.alloc_blocking ctx.pool in
                fault_inner ~wire ~prealloc:(Some ppn) map ~va))

(* The fault->resolve span covers memory-shortage retries too: its
   duration is the full latency the faulting thread observed. *)
let fault ?(wire = false) map ~va =
  let spans = Obs_span.enabled () in
  if spans then K.Span.enter (Vm_map.fault_tag map);
  let r = fault_inner ~wire ~prealloc:None map ~va in
  if spans then K.Span.exit (Vm_map.fault_tag map);
  r
