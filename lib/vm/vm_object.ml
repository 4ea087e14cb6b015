module Engine = Mach_sim.Sim_engine
module K = Mach_ksync.Ksync
module Kobj = Mach_ksync.Kobj
module Port = Mach_ipc.Port

type page = {
  offset : int;
  mutable ppn : int;
  mutable wired : int;
  mutable dirty : bool;
}

type t = {
  obj : Kobj.t;
  pool : Vm_page.t;
  mutable osize : int;
  pages : (int, page) Hashtbl.t;
  paging : K.Ref.Gated.g;
  (* Pager ports, created lazily via the two-flag customized lock. *)
  mutable pager : Port.t option;
  mutable pager_request : Port.t option;
  mutable pager_name : Port.t option;
  mutable ports_created : bool;
  mutable ports_creating : bool;
  ports_event : K.Ev.event;
}

type Kobj.payload += Vm_object_payload of t

let create ?name ~pool ~size () =
  let obj = Kobj.make ?name Kobj.No_payload in
  let t =
    {
      obj;
      pool;
      osize = size;
      pages = Hashtbl.create 16;
      paging =
        K.Ref.Gated.make ~name:"paging" ~object_lock:(Kobj.object_lock obj) ();
      pager = None;
      pager_request = None;
      pager_name = None;
      ports_created = false;
      ports_creating = false;
      ports_event = K.Ev.fresh_event ();
    }
  in
  Kobj.set_payload obj (Vm_object_payload t);
  t

let name t = Kobj.name t.obj
let size t = t.osize
let kobj t = t.obj
let reference t = Kobj.reference t.obj
let release t = Kobj.release t.obj
let ref_count t = Kobj.ref_count t.obj
let lock t = Kobj.lock t.obj
let unlock t = Kobj.unlock t.obj
let with_lock t f = Kobj.with_lock t.obj f

let check_locked t what =
  if
    K.Slock.checking ()
    && not (K.Slock.held_by_self (Kobj.object_lock t.obj))
  then
    K.Machine.fatal
      (Printf.sprintf "vm_object %s: %s without the object lock" (name t)
         what)

let page_at t ~offset =
  check_locked t "page_at";
  Hashtbl.find_opt t.pages offset

let insert_page t ~offset ~ppn =
  check_locked t "insert_page";
  if Hashtbl.mem t.pages offset then
    K.Machine.fatal
      (Printf.sprintf "vm_object %s: duplicate page at offset %d" (name t)
         offset);
  let page = { offset; ppn; wired = 0; dirty = false } in
  Hashtbl.replace t.pages offset page;
  page

let remove_page t ~offset =
  check_locked t "remove_page";
  match Hashtbl.find_opt t.pages offset with
  | None -> None
  | Some page ->
      if page.wired > 0 then
        K.Machine.fatal
          (Printf.sprintf "vm_object %s: removing wired page at %d" (name t)
             offset);
      Hashtbl.remove t.pages offset;
      Some page.ppn

let resident_pages t =
  check_locked t "resident_pages";
  Hashtbl.fold (fun _ p acc -> p :: acc) t.pages []

let resident_count t = Hashtbl.length t.pages
let wire page = page.wired <- page.wired + 1

let unwire page =
  if page.wired <= 0 then
    K.Machine.fatal "vm_object: unwiring a page that is not wired";
  page.wired <- page.wired - 1

let paging_begin t =
  check_locked t "paging_begin";
  K.Ref.Gated.enter t.paging

let paging_end t =
  check_locked t "paging_end";
  K.Ref.Gated.exit t.paging

let paging_in_progress t = K.Ref.Gated.in_progress t.paging

(* The section 5 customized lock: the port allocations may block, so they
   run outside the object's simple lock, guarded by the two flags. *)
let ensure_pager_ports t =
  let rec wait_created () =
    lock t;
    if t.ports_created then begin
      unlock t;
      (Option.get t.pager, Option.get t.pager_request, Option.get t.pager_name)
    end
    else if t.ports_creating then begin
      (* Someone else is creating them: wait. *)
      ignore (K.Ev.thread_sleep t.ports_event (Kobj.object_lock t.obj));
      wait_created ()
    end
    else begin
      t.ports_creating <- true;
      unlock t;
      (* Blocking allocations, performed with no simple lock held. *)
      let mk suffix = Port.create ~name:(name t ^ suffix) () in
      Engine.cycles 200;
      Engine.pause ();
      let pager = mk ".pager" in
      let request = mk ".pager-request" in
      let pname = mk ".pager-name" in
      (* The port's object pointer holds its own reference (section 10). *)
      Kobj.reference t.obj;
      Port.set_object pager t.obj;
      lock t;
      t.pager <- Some pager;
      t.pager_request <- Some request;
      t.pager_name <- Some pname;
      t.ports_created <- true;
      t.ports_creating <- false;
      unlock t;
      ignore (K.Ev.thread_wakeup t.ports_event);
      (pager, request, pname)
    end
  in
  wait_created ()

let terminate t =
  lock t;
  if Kobj.deactivate t.obj then begin
    (* Termination is excluded while paging operations are in progress:
       close the gate and drain (the hybrid count's lock half). *)
    K.Ref.Gated.close_and_drain t.paging;
    let doomed = Hashtbl.fold (fun _ p acc -> p :: acc) t.pages [] in
    Hashtbl.reset t.pages;
    let ports = [ t.pager; t.pager_request; t.pager_name ] in
    t.pager <- None;
    t.pager_request <- None;
    t.pager_name <- None;
    unlock t;
    List.iter (fun p -> Vm_page.free t.pool p.ppn) doomed;
    List.iter
      (function
        | Some p ->
            Port.destroy p;
            Port.release p
        | None -> ())
      ports
  end
  else unlock t

let is_active t = Kobj.is_active t.obj
