(* Page cache over Vm_object: a resident-page index under a distributed
   readers/writer lock (see vm_cache.mli).

   Locking order: cache RW lock, then the backing object's simple lock.
   The index (offset -> ppn) mirrors the object's residency exactly; the
   pair only changes under the cache's write side plus the object lock,
   so a mismatch is a fatal invariant violation, not a race to retry. *)

module K = Mach_ksync.Ksync

type locking = Scache | Brlock_rw | Mutex

type rw =
  | Rw_scache of K.Locks.Scache.t
  | Rw_brlock of K.Locks.Brlock.t
  | Rw_mutex of K.Slock.t

type t = {
  cname : string;
  vobj : Vm_object.t;
  pool : Vm_page.t;
  index : (int, int) Hashtbl.t; (* offset -> ppn, mirrors residency *)
  rw : rw;
  mutable n_hits : int;
  mutable n_misses : int;
}

let create ?(name = "vm_cache") ?(locking = Scache) ~pool ~size () =
  {
    cname = name;
    vobj = Vm_object.create ~name:(name ^ ".obj") ~pool ~size ();
    pool;
    index = Hashtbl.create 64;
    rw =
      (match locking with
      | Scache -> Rw_scache (K.Locks.Scache.make ~name:(name ^ ".rw"))
      | Brlock_rw -> Rw_brlock (K.Locks.Brlock.make ~name:(name ^ ".rw"))
      | Mutex -> Rw_mutex (K.Slock.make ~name:(name ^ ".mu") ()));
    n_hits = 0;
    n_misses = 0;
  }

let name t = t.cname
let obj t = t.vobj

let with_read t f =
  match t.rw with
  | Rw_scache l -> K.Locks.Scache.with_read l f
  | Rw_brlock l -> K.Locks.Brlock.with_read l f
  | Rw_mutex l -> K.Slock.with_lock l f

let with_write t f =
  match t.rw with
  | Rw_scache l -> K.Locks.Scache.with_write l f
  | Rw_brlock l -> K.Locks.Brlock.with_write l f
  | Rw_mutex l -> K.Slock.with_lock l f

let lookup t ~offset =
  with_read t (fun () ->
      match Hashtbl.find_opt t.index offset with
      | Some ppn ->
          t.n_hits <- t.n_hits + 1;
          Some ppn
      | None -> None)

(* Caller holds the write side.  Returns the freed ppn, if any. *)
let evict_locked t ~offset =
  match Hashtbl.find_opt t.index offset with
  | None -> None
  | Some _ ->
      Vm_object.with_lock t.vobj (fun () ->
          match Vm_object.page_at t.vobj ~offset with
          | None ->
              K.Machine.fatal
                (Printf.sprintf
                   "vm_cache %s: index has offset %d but object does not"
                   t.cname offset)
          | Some page when page.Vm_object.wired > 0 -> None
          | Some _ ->
              let ppn = Option.get (Vm_object.remove_page t.vobj ~offset) in
              Hashtbl.remove t.index offset;
              Some ppn)

(* Shortage path, caller holds the write side: steal any unwired page. *)
let evict_any_locked t =
  let victim =
    Hashtbl.fold
      (fun offset _ acc -> match acc with Some _ -> acc | None -> Some offset)
      t.index None
  in
  match victim with None -> None | Some offset -> evict_locked t ~offset

let lookup_or_fill t ~offset =
  match lookup t ~offset with
  | Some ppn -> Ok ppn
  | None ->
      with_write t (fun () ->
          match Hashtbl.find_opt t.index offset with
          | Some ppn ->
              (* Filled while we waited for the write side: a late hit. *)
              t.n_hits <- t.n_hits + 1;
              Ok ppn
          | None ->
              t.n_misses <- t.n_misses + 1;
              (* The fill is a paging operation on the backing object:
                 termination excludes it (the section 8 hybrid count). *)
              if not (Vm_object.with_lock t.vobj (fun () ->
                          Vm_object.paging_begin t.vobj))
              then Error `Terminating
              else begin
                let ppn =
                  match Vm_page.alloc t.pool with
                  | Some ppn -> Some ppn
                  | None -> (
                      (* Pool empty: evict one of our own unwired pages
                         (cooperating with pageout, which reclaims from
                         maps on the same shortage signal). *)
                      match evict_any_locked t with
                      | Some freed ->
                          Vm_page.free t.pool freed;
                          Vm_page.alloc t.pool
                      | None -> None)
                in
                match ppn with
                | None ->
                    Vm_object.with_lock t.vobj (fun () ->
                        Vm_object.paging_end t.vobj);
                    Error `No_memory
                | Some ppn ->
                    Vm_object.with_lock t.vobj (fun () ->
                        ignore (Vm_object.insert_page t.vobj ~offset ~ppn);
                        Vm_object.paging_end t.vobj);
                    Hashtbl.replace t.index offset ppn;
                    Ok ppn
              end)

let evict t ~offset =
  with_write t (fun () ->
      match evict_locked t ~offset with
      | None -> false
      | Some ppn ->
          Vm_page.free t.pool ppn;
          true)

let reclaim t ~target =
  with_write t (fun () ->
      let freed = ref 0 in
      let continue_ = ref true in
      while !continue_ && !freed < target do
        match evict_any_locked t with
        | Some ppn ->
            Vm_page.free t.pool ppn;
            incr freed
        | None -> continue_ := false
      done;
      !freed)

let wire t ~offset =
  with_read t (fun () ->
      Vm_object.with_lock t.vobj (fun () ->
          match Vm_object.page_at t.vobj ~offset with
          | None -> false
          | Some page ->
              Vm_object.wire page;
              true))

let unwire t ~offset =
  with_read t (fun () ->
      Vm_object.with_lock t.vobj (fun () ->
          match Vm_object.page_at t.vobj ~offset with
          | None ->
              K.Machine.fatal
                (Printf.sprintf "vm_cache %s: unwire of non-resident offset %d"
                   t.cname offset)
          | Some page -> Vm_object.unwire page))

let terminate t =
  with_write t (fun () -> Hashtbl.reset t.index);
  (* Vm_object.terminate drains paging operations and frees the
     remaining resident pages back to the pool itself. *)
  Vm_object.terminate t.vobj

let resident t = Vm_object.resident_count t.vobj
let hits t = t.n_hits
let misses t = t.n_misses
