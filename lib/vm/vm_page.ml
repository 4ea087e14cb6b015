module K = Mach_ksync.Ksync

type t = {
  lock : K.Slock.t;
  mutable free_pages : int list; (* LIFO: the last page freed goes first *)
  is_free : Bytes.t; (* one byte per page, '\001' while it is free *)
  total : int;
  mutable free_wanted : bool;
  page_event : K.Ev.event; (* allocators wait here *)
  shortage_event : K.Ev.event; (* the pageout daemon waits here *)
}

let create ?(name = "page-pool") ~pages () =
  {
    lock = K.Slock.make ~name:(name ^ ".lock") ();
    free_pages = List.init pages (fun i -> i);
    is_free = Bytes.make pages '\001';
    total = pages;
    free_wanted = false;
    page_event = K.Ev.fresh_event ();
    shortage_event = K.Ev.fresh_event ();
  }

let total t = t.total

let free_count t =
  K.Slock.with_lock t.lock (fun () -> List.length t.free_pages)

let take t p rest =
  t.free_pages <- rest;
  Bytes.set t.is_free p '\000'

let alloc t =
  K.Slock.with_lock t.lock (fun () ->
      match t.free_pages with
      | [] -> None
      | p :: rest ->
          take t p rest;
          Some p)

let alloc_blocking t =
  let rec attempt () =
    K.Slock.lock t.lock;
    match t.free_pages with
    | p :: rest ->
        take t p rest;
        K.Slock.unlock t.lock;
        p
    | [] ->
        (* Signal the shortage, then sleep until a page is freed. *)
        t.free_wanted <- true;
        ignore (K.Ev.thread_wakeup t.shortage_event);
        ignore (K.Ev.thread_sleep t.page_event t.lock);
        attempt ()
  in
  attempt ()

let free t page =
  K.Slock.lock t.lock;
  if page < 0 || page >= t.total || Bytes.get t.is_free page <> '\000'
  then begin
    K.Slock.unlock t.lock;
    K.Machine.fatal (Printf.sprintf "vm_page: bad free of page %d" page)
  end
  else begin
    t.free_pages <- page :: t.free_pages;
    Bytes.set t.is_free page '\001';
    t.free_wanted <- false;
    ignore (K.Ev.thread_wakeup t.page_event);
    K.Slock.unlock t.lock
  end

let free_wanted t = t.free_wanted

let wait_free_wanted t =
  K.Slock.lock t.lock;
  if t.free_wanted then K.Slock.unlock t.lock
  else ignore (K.Ev.thread_sleep t.shortage_event t.lock)

let shortage_event_kick t = ignore (K.Ev.thread_wakeup t.shortage_event)
