module K = Mach_ksync.Ksync
module Obs_span = Mach_obs.Obs_span

type context = {
  pool : Vm_page.t;
  pv : Pv_list.t;
  psys : Pmap_system.t;
}

let make_context ?(name = "vm") ~pages () =
  {
    pool = Vm_page.create ~name:(name ^ ".pool") ~pages ();
    pv = Pv_list.create ~name:(name ^ ".pv") ();
    psys = Pmap_system.create ~name:(name ^ ".pmap-system") ();
  }

type entry = {
  mutable va_start : int;
  mutable va_end : int;
  e_object : Vm_object.t;
  mutable e_offset : int;
  mutable e_wired : bool;
  mutable e_prot : Tlb.prot;
}

(* Which lock protects the map: the paper's single sleep complex lock
   (Coarse, section 4), or a range lock where operations hold only the
   address range they touch (Kogan et al., PAPERS.md).  Coarse stays the
   default so existing scenarios and goldens are unchanged. *)
type locking = Coarse | Range

let locking_name = function Coarse -> "coarse" | Range -> "range"

type t = {
  mname : string;
  ctx : context;
  locking : locking;
  lock : K.Clock.t; (* Coarse: protects everything below *)
  rlock : K.Rlock.t; (* Range: ranges of the address space *)
  elock : K.Slock.t; (* Range: entry list / next_va / ver / reserved *)
  mutable map_entries : entry list; (* sorted by va_start *)
  map_pmap : Pmap.t;
  refs : K.Ref.t;
  mutable ver : int;
  mutable next_va : int; (* naive address allocator *)
  (* Range mode: address ranges claimed by an in-flight allocation whose
     entry is not inserted yet, so a concurrent vm_allocate_at cannot
     hand out an overlapping region.  Always empty in Coarse mode. *)
  mutable reserved : (int * int) list;
  mutable tags : tags option; (* built at the map's first span *)
}

(* The map's span tags, one per operation, built once per map. *)
and tags = {
  alloc_at_tag : Obs_span.tag;
  alloc_tag : Obs_span.tag;
  dealloc_tag : Obs_span.tag;
  fault_tag : Obs_span.tag;
}

(* Unnamed maps are numbered per run, as thread contexts number their
   acquisitions, so a report's lock and span names do not depend on what
   ran earlier in the process. *)
let unnamed_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let () =
  Mach_core.Run_reset.register (fun () -> Domain.DLS.get unnamed_key := 0)

let create ?name ?(locking = Coarse) ctx =
  let mname =
    match name with
    | Some n -> n
    | None ->
        let r = Domain.DLS.get unnamed_key in
        let id = !r in
        r := id + 1;
        Printf.sprintf "map%d" id
  in
  {
    mname;
    ctx;
    locking;
    lock = K.Clock.make ~name:(mname ^ ".lock") ~can_sleep:true ();
    rlock = K.Rlock.make ~name:(mname ^ ".range") ();
    elock = K.Slock.make ~name:(mname ^ ".entries") ();
    map_entries = [];
    map_pmap = Pmap.create ~name:(mname ^ ".pmap") ();
    refs = K.Ref.make ~name:(mname ^ ".refs") ();
    ver = 0;
    next_va = 0x1000;
    reserved = [];
    tags = None;
  }

let name t = t.mname

let tags t =
  match t.tags with
  | Some g -> g
  | None ->
      let tag op = Obs_span.tag Obs_span.Vm (op ^ ":" ^ t.mname) in
      let g =
        {
          alloc_at_tag = tag "alloc_at";
          alloc_tag = tag "alloc";
          dealloc_tag = tag "dealloc";
          fault_tag = tag "fault";
        }
      in
      t.tags <- Some g;
      g

let fault_tag t = (tags t).fault_tag
let context t = t.ctx
let pmap t = t.map_pmap
let map_lock t = t.lock
let locking t = t.locking
let reference t = K.Ref.clone t.refs

(* Entry-list access: in Coarse mode the complex lock the caller already
   holds covers the list; in Range mode range holders only exclude
   overlapping ranges, so list walks and mutations take the entry simple
   lock.  Must not block under [f] in Range mode. *)
let with_entries t f =
  match t.locking with
  | Coarse -> f ()
  | Range -> K.Slock.with_lock t.elock f

let version t = t.ver
let bump_version t = with_entries t (fun () -> t.ver <- t.ver + 1)

(* ------------------------------------------------------------------ *)
(* Range-lock dispatch                                                  *)
(*                                                                      *)
(* Every locked section goes through these handles.  Coarse mode maps   *)
(* them 1:1 onto the old complex-lock calls (the range arguments are    *)
(* ignored), so coarse behaviour — and golden output — is unchanged.    *)
(* ------------------------------------------------------------------ *)

type rhandle = H_coarse | H_range of K.Rlock.handle

let whole_lo = Mach_locks.Range_lock.whole_lo
let whole_hi = Mach_locks.Range_lock.whole_hi

let lock_range_read t ~lo ~hi =
  match t.locking with
  | Coarse ->
      K.Clock.lock_read t.lock;
      H_coarse
  | Range -> H_range (K.Rlock.acquire t.rlock ~lo ~hi Mach_locks.Range_lock.Read)

let lock_range_write t ~lo ~hi =
  match t.locking with
  | Coarse ->
      K.Clock.lock_write t.lock;
      H_coarse
  | Range -> H_range (K.Rlock.acquire t.rlock ~lo ~hi Mach_locks.Range_lock.Write)

let lock_map_read t = lock_range_read t ~lo:whole_lo ~hi:whole_hi
let lock_map_write t = lock_range_write t ~lo:whole_lo ~hi:whole_hi

let unlock_range t = function
  | H_coarse -> K.Clock.lock_done t.lock
  | H_range h -> K.Rlock.release t.rlock h

(* ------------------------------------------------------------------ *)
(* Mapping helpers: forward (pmap-then-pv) order under the read side of
   the pmap system lock (section 5).                                    *)
(* ------------------------------------------------------------------ *)

let map_page t entry ~va ~ppn =
  Pmap_system.forward t.ctx.psys (fun () ->
      Pmap.enter t.map_pmap ~va ~ppn ~prot:entry.e_prot;
      Pv_list.enter t.ctx.pv ~ppn ~pmap:t.map_pmap ~va)

let unmap_page t ~va ~ppn =
  Pmap_system.forward t.ctx.psys (fun () ->
      ignore (Pmap.remove t.map_pmap ~va);
      Pv_list.remove t.ctx.pv ~ppn ~pmap:t.map_pmap ~va)

(* ------------------------------------------------------------------ *)
(* Entries                                                              *)
(* ------------------------------------------------------------------ *)

let lookup_entry_unlocked t ~va =
  List.find_opt (fun e -> va >= e.va_start && va < e.va_end) t.map_entries

let lookup_entry t ~va = with_entries t (fun () -> lookup_entry_unlocked t ~va)
let entries t = with_entries t (fun () -> t.map_entries)

let size t =
  with_entries t (fun () ->
      List.fold_left
        (fun acc e -> acc + (e.va_end - e.va_start))
        0 t.map_entries)

let overlap_unlocked t ~va ~size =
  List.exists
    (fun e -> va < e.va_end && va + size > e.va_start)
    t.map_entries
  || List.exists (fun (lo, hi) -> va < hi && va + size > lo) t.reserved

let overlap t ~va ~size = with_entries t (fun () -> overlap_unlocked t ~va ~size)

let insert_entry_unlocked t e =
  t.map_entries <-
    List.sort (fun a b -> compare a.va_start b.va_start) (e :: t.map_entries);
  t.ver <- t.ver + 1

let make_object t ~va ~size =
  Vm_object.create
    ~name:(Printf.sprintf "%s.obj@%x" t.mname va)
    ~pool:t.ctx.pool ~size ()

let fresh_entry ~va ~size obj =
  {
    va_start = va;
    va_end = va + size;
    e_object = obj;
    e_offset = 0;
    e_wired = false;
    e_prot = Tlb.Read_write;
  }

(* Reservations are pairwise disjoint, so the start address identifies
   one uniquely. *)
let unreserve t ~va =
  t.reserved <- List.filter (fun (lo, _) -> lo <> va) t.reserved

let vm_allocate_at t ~va ~size =
  let spans = Obs_span.enabled () in
  if spans then K.Span.enter (tags t).alloc_at_tag;
  let r =
    match t.locking with
    | Coarse ->
        K.Clock.lock_write t.lock;
        if overlap_unlocked t ~va ~size then begin
          K.Clock.lock_done t.lock;
          Error `Overlap
        end
        else begin
          let obj = make_object t ~va ~size in
          insert_entry_unlocked t (fresh_entry ~va ~size obj);
          if va + size > t.next_va then t.next_va <- va + size;
          K.Clock.lock_done t.lock;
          Ok va
        end
    | Range ->
        let h = K.Rlock.acquire t.rlock ~lo:va ~hi:(va + size) Mach_locks.Range_lock.Write in
        (* Claiming (overlap check + reservation + next_va bump) is one
           entry-lock section, atomic against vm_allocate's reservation
           from next_va. *)
        let clash =
          K.Slock.with_lock t.elock (fun () ->
              if overlap_unlocked t ~va ~size then true
              else begin
                t.reserved <- (va, va + size) :: t.reserved;
                if va + size > t.next_va then t.next_va <- va + size;
                false
              end)
        in
        if clash then begin
          K.Rlock.release t.rlock h;
          Error `Overlap
        end
        else begin
          let obj = make_object t ~va ~size in
          K.Slock.with_lock t.elock (fun () ->
              unreserve t ~va;
              insert_entry_unlocked t (fresh_entry ~va ~size obj));
          K.Rlock.release t.rlock h;
          Ok va
        end
  in
  if spans then K.Span.exit (tags t).alloc_at_tag;
  r

let vm_allocate t ~size =
  let spans = Obs_span.enabled () in
  if spans then K.Span.enter (tags t).alloc_tag;
  let va =
    match t.locking with
    | Coarse ->
        K.Clock.lock_write t.lock;
        let va = t.next_va in
        t.next_va <- va + size;
        let obj = make_object t ~va ~size in
        insert_entry_unlocked t (fresh_entry ~va ~size obj);
        K.Clock.lock_done t.lock;
        va
    | Range ->
        (* Reserve a fresh region first (invariant: every entry and
           reservation lies below next_va, so the region overlaps
           nothing), then take only that region's range. *)
        let va =
          K.Slock.with_lock t.elock (fun () ->
              let va = t.next_va in
              t.next_va <- va + size;
              t.reserved <- (va, va + size) :: t.reserved;
              va)
        in
        let h = K.Rlock.acquire t.rlock ~lo:va ~hi:(va + size) Mach_locks.Range_lock.Write in
        let obj = make_object t ~va ~size in
        K.Slock.with_lock t.elock (fun () ->
            unreserve t ~va;
            insert_entry_unlocked t (fresh_entry ~va ~size obj));
        K.Rlock.release t.rlock h;
        va
  in
  if spans then K.Span.exit (tags t).alloc_tag;
  va

(* Tear one entry down: break its mappings, free its resident pages,
   terminate the object.  Caller holds the map lock for writing (Coarse)
   or a write hold on the entry's range (Range); the entry is already
   off the list in the Range case.

   Refcount discipline (audited for ISSUE 8): the entry's object starts
   life with the single reference [Vm_object.create] returns.
   [Vm_object.terminate] shuts the object down but does NOT consume that
   reference; the caller drops it with exactly one [Vm_object.release]
   after the lock is gone.  One create-reference, one release — no
   double release.  [K.Ref] now traps underflow unconditionally, so a
   future double release dies loudly instead of wrapping. *)
let destroy_entry_locked t e =
  let resident =
    Vm_object.with_lock e.e_object (fun () ->
        Vm_object.resident_pages e.e_object)
  in
  List.iter
    (fun (p : Vm_object.page) ->
      let va = e.va_start + (p.Vm_object.offset - e.e_offset) in
      unmap_page t ~va ~ppn:p.Vm_object.ppn)
    resident;
  bump_version t;
  Vm_object.terminate e.e_object

let vm_deallocate t ~va =
  let spans = Obs_span.enabled () in
  if spans then K.Span.enter (tags t).dealloc_tag;
  let r =
    match t.locking with
    | Coarse -> (
        K.Clock.lock_write t.lock;
        match lookup_entry_unlocked t ~va with
        | None ->
            K.Clock.lock_done t.lock;
            Error `No_entry
        | Some e ->
            t.map_entries <- List.filter (fun e' -> e' != e) t.map_entries;
            destroy_entry_locked t e;
            K.Clock.lock_done t.lock;
            (* The entry's object reference is dropped outside the map lock
               (releasing may destroy, section 8 — the map lock is a sleep
               lock so this is belt-and-braces rather than required). *)
            Vm_object.release e.e_object;
            Ok ())
    | Range ->
        (* Find the entry, lock its range, then revalidate: the entry can
           be deallocated by someone else between the lookup and the
           range acquisition. *)
        let rec attempt () =
          match
            K.Slock.with_lock t.elock (fun () -> lookup_entry_unlocked t ~va)
          with
          | None -> Error `No_entry
          | Some e -> (
              let lo = e.va_start and hi = e.va_end in
              let h = K.Rlock.acquire t.rlock ~lo ~hi Mach_locks.Range_lock.Write in
              let still =
                K.Slock.with_lock t.elock (fun () ->
                    match lookup_entry_unlocked t ~va with
                    | Some e' when e' == e ->
                        t.map_entries <-
                          List.filter (fun x -> x != e) t.map_entries;
                        true
                    | Some _ | None -> false)
              in
              match still with
              | true ->
                  destroy_entry_locked t e;
                  K.Rlock.release t.rlock h;
                  Vm_object.release e.e_object;
                  Ok ()
              | false ->
                  (* Raced with another deallocate (or a realloc of the
                     same address): retry against the current entry. *)
                  K.Rlock.release t.rlock h;
                  attempt ())
        in
        attempt ()
  in
  if spans then K.Span.exit (tags t).dealloc_tag;
  r

let release t =
  match K.Ref.release t.refs with
  | `Live -> ()
  | `Last -> (
      (* Passive destruction: no deactivation flag (section 9). *)
      match t.locking with
      | Coarse ->
          K.Clock.lock_write t.lock;
          let doomed = t.map_entries in
          t.map_entries <- [];
          List.iter (destroy_entry_locked t) doomed;
          Pmap.remove_all t.map_pmap;
          K.Clock.lock_done t.lock;
          List.iter (fun e -> Vm_object.release e.e_object) doomed
      | Range ->
          let h =
            K.Rlock.acquire t.rlock ~lo:whole_lo ~hi:whole_hi Mach_locks.Range_lock.Write
          in
          let doomed =
            K.Slock.with_lock t.elock (fun () ->
                let d = t.map_entries in
                t.map_entries <- [];
                d)
          in
          List.iter (destroy_entry_locked t) doomed;
          Pmap.remove_all t.map_pmap;
          K.Rlock.release t.rlock h;
          List.iter (fun e -> Vm_object.release e.e_object) doomed)
