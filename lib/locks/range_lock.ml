(* Range locks: readers/writer locks over address ranges (Kogan, Dice &
   Issa, "Scalable Range Locks for Scalable Address Spaces").

   This is the list-based variant: every request — granted or waiting —
   sits in one list ordered by arrival, protected by an internal simple
   lock.  A request for [lo, hi) conflicts with another iff the ranges
   overlap and at least one side wants write access, and it is granted
   exactly when no EARLIER request conflicts with it.  Grant order is
   therefore FIFO-fair: a writer cannot be starved by a stream of later
   readers, and a reader never overtakes a queued writer it overlaps
   (the same no-barging rule the paper's complex locks get from
   want_write/want_upgrade).

   Waiting is the standard sleep protocol: assert_wait on the lock's
   (broadcast) event, drop the interlock, thread_block, retry.  Because
   grants are monotone — requests only ever leave the list ahead of us —
   a request that becomes grantable stays grantable.

   The RANGE_LOCK signature ([S]) deliberately hides the list so a
   skip-list variant (the paper's scalable implementation) can slot in
   behind the same interface later. *)

module Waits_for = Mach_core.Waits_for
module Lock_events = Mach_core.Lock_events

type mode = Read | Write

let mode_name = function Read -> "read" | Write -> "write"

(* Whole-lock range: acquiring [whole_lo, whole_hi) in write mode is the
   coarse lock's lock_write — it conflicts with every other request. *)
let whole_lo = 0
let whole_hi = max_int

module type S = sig
  type t
  type handle

  val proto_name : string
  val make : ?name:string -> unit -> t
  val name : t -> string

  val acquire : t -> lo:int -> hi:int -> mode -> handle
  (** Block until no earlier conflicting request exists, then hold
      [lo, hi) in [mode].  Ranges are half-open; [hi <= lo] is an error. *)

  val try_acquire : t -> lo:int -> hi:int -> mode -> handle option
  (** Acquire only if no conflicting request (granted or queued — no
      barging past FIFO waiters) exists right now. *)

  val release : t -> handle -> unit
  (** Drop a held range and wake conflicting waiters.  Must be called by
      the acquiring thread (spans and profile holds are per-thread). *)

  val holders : t -> (int * int * mode) list
  (** Diagnostic: currently granted ranges. *)

  val waiting_requests : t -> int
  (** Diagnostic: momentary number of queued (not yet granted) requests. *)
end

module Make
    (M : Mach_core.Machine_intf.MACHINE)
    (Slock : module type of Mach_core.Simple_lock.Make (M))
    (E : module type of Mach_core.Event.Make (M) (Slock)) : S = struct
  module Ev = Lock_events.Make (M)

  let proto_name = "range-list"

  type req = {
    r_lo : int;
    r_hi : int;
    r_mode : mode;
    r_seq : int; (* arrival order; grants strictly respect it *)
    r_thread : M.thread;
    r_site : Lock_events.site; (* the lock's site, keyed by this range *)
    mutable r_acquired_at : int; (* cycle clock at grant *)
  }

  type handle = req

  type t = {
    rl_id : int;
    lname : string;
    site : Lock_events.site; (* whole range; requests re-key it *)
    il : Slock.t; (* protects reqs / next_seq / waiting *)
    event : E.event;
    mutable reqs : req list; (* ascending r_seq *)
    mutable next_seq : int;
    mutable waiting : bool; (* someone is blocked on [event] *)
  }

  let next_id = Atomic.make 0

  let make ?name () =
    let id = Atomic.fetch_and_add next_id 1 in
    let lname =
      match name with Some n -> n | None -> Printf.sprintf "range%d" id
    in
    let event = E.fresh_event () in
    let whole =
      Waits_for.Range { uid = id; name = lname; lo = whole_lo; hi = whole_hi }
    in
    (* Sleep waits surface as waits on [event]; alias it to the lock's
       whole-range node so the deadlock detector names the lock even
       when the finer per-range edges are not being tracked. *)
    Waits_for.note_event_resource ~event whole;
    {
      rl_id = id;
      lname;
      site = Lock_events.site ~name:lname whole;
      il = Slock.make ~name:(lname ^ ".interlock") ();
      event;
      reqs = [];
      next_seq = 0;
      waiting = false;
    }

  let name t = t.lname

  let conflicts a b =
    a.r_lo < b.r_hi && b.r_lo < a.r_hi
    && (a.r_mode = Write || b.r_mode = Write)

  (* Requests ahead of [r] (in arrival order) that exclude it.  Caller
     holds the interlock. *)
  let earlier_conflicts t r =
    List.filter (fun r' -> r'.r_seq < r.r_seq && conflicts r' r) t.reqs

  let granted t r =
    List.for_all (fun r' -> r'.r_seq >= r.r_seq || not (conflicts r' r)) t.reqs

  (* Every request waits for and holds its exact range, so deadlock
     reports name the ranges involved. *)
  let request t ~lo ~hi mode ~seq =
    {
      r_lo = lo;
      r_hi = hi;
      r_mode = mode;
      r_seq = seq;
      r_thread = M.self ();
      r_site =
        Lock_events.with_res t.site
          (Waits_for.Range { uid = t.rl_id; name = t.lname; lo; hi });
      r_acquired_at = 0;
    }

  let acquire t ~lo ~hi mode =
    if hi <= lo then
      invalid_arg
        (Printf.sprintf "Range_lock.acquire %s: empty range [%d,%d)" t.lname lo
           hi);
    Ev.attempt t.site;
    Slock.lock t.il;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let r = request t ~lo ~hi mode ~seq in
    t.reqs <- t.reqs @ [ r ];
    let t0 = M.now_cycles () in
    (* Blocked-by attribution: the earliest conflicting request's thread
       (usually a granted holder; with a FIFO chain, the head of the
       chain we are queued behind). *)
    let blocker =
      match earlier_conflicts t r with [] -> None | b :: _ -> Some b.r_thread
    in
    let waits = ref 0 in
    let rec wait_loop () =
      match earlier_conflicts t r with
      | [] -> ()
      | blockers ->
          incr waits;
          (* One wait edge per conflicting holder's exact range node, so
             deadlock cycles thread through the ranges actually held. *)
          List.iter (fun b -> Ev.wait_begin b.r_site) blockers;
          t.waiting <- true;
          E.assert_wait t.event;
          Slock.unlock t.il;
          ignore (E.thread_block ());
          Slock.lock t.il;
          List.iter (fun b -> Ev.wait_end b.r_site) blockers;
          wait_loop ()
    in
    wait_loop ();
    r.r_acquired_at <- M.now_cycles ();
    Ev.acquired ?blocker r.r_site ~spins:!waits
      ~wait_cycles:(if !waits > 0 then Int.max 0 (M.now_cycles () - t0) else 0);
    Slock.unlock t.il;
    r

  let try_acquire t ~lo ~hi mode =
    if hi <= lo then
      invalid_arg
        (Printf.sprintf "Range_lock.try_acquire %s: empty range [%d,%d)"
           t.lname lo hi);
    Slock.lock t.il;
    let r = request t ~lo ~hi mode ~seq:t.next_seq in
    if List.exists (fun r' -> conflicts r' r) t.reqs then begin
      Slock.unlock t.il;
      None
    end
    else begin
      t.next_seq <- r.r_seq + 1;
      t.reqs <- t.reqs @ [ r ];
      r.r_acquired_at <- M.now_cycles ();
      Ev.acquired r.r_site ~spins:0 ~wait_cycles:0;
      Slock.unlock t.il;
      Some r
    end

  let release t r =
    Slock.lock t.il;
    if not (List.memq r t.reqs) then begin
      Slock.unlock t.il;
      M.fatal
        (Printf.sprintf
           "range lock %s: release of a request not held ([%#x,%#x) %s)"
           t.lname r.r_lo r.r_hi (mode_name r.r_mode))
    end;
    t.reqs <- List.filter (fun r' -> r' != r) t.reqs;
    Ev.released r.r_site
      ~held_cycles:(Int.max 0 (M.now_cycles () - r.r_acquired_at));
    (* Mach's wakeup is broadcast: every waiter re-checks its own grant
       condition; newly admissible disjoint requests all proceed. *)
    if t.waiting then begin
      t.waiting <- false;
      ignore (E.thread_wakeup t.event)
    end;
    Slock.unlock t.il

  let holders t =
    Slock.with_lock t.il (fun () ->
        List.filter_map
          (fun r ->
            if granted t r then Some (r.r_lo, r.r_hi, r.r_mode) else None)
          t.reqs)

  let waiting_requests t =
    Slock.with_lock t.il (fun () ->
        List.length (List.filter (fun r -> not (granted t r)) t.reqs))
end
