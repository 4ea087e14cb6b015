(* Model-based property tests (qcheck): random operation sequences
   executed against the real modules and simple reference models in
   lockstep.  These run single-threaded inside the simulator (concurrency
   properties live in the exploration tests); what they pin down is the
   sequential semantics of each protocol. *)

module Engine = Mach_sim.Sim_engine
module K = Mach_ksync.Ksync
module Zalloc = Mach_kern.Zalloc
module Vm_page = Mach_vm.Vm_page
open Test_support

let prop name gen f = QCheck.Test.make ~count:300 ~name gen f

(* Scripts are plain lists of small non-negative ints, interpreted as a
   choice among the ops legal in the current model state ([choice mod
   n_legal]).  This keeps the generators shrink-friendly: qcheck shrinks
   by dropping elements and shrinking ints towards zero, and any
   shrunken script is still a valid (shorter, more canonical)
   operation sequence rather than a precondition violation. *)
let script_gen len = QCheck.(list_of_size (Gen.int_range 1 len) (int_range 0 11))

(* ------------------------------------------------------------------ *)
(* Zone allocator vs a set model                                        *)
(* ------------------------------------------------------------------ *)

let zalloc_ops_gen =
  QCheck.(list_of_size (Gen.int_range 1 60) (int_range 0 2))
  (* 0 = try_alloc, 1 = free one allocated element, 2 = query in_use *)

let zalloc_conformance ops =
  in_sim (fun () ->
      let capacity = 5 in
      let z = Zalloc.create ~capacity () in
      let model = Hashtbl.create 8 in
      List.for_all
        (fun op ->
          match op with
          | 0 -> (
              match Zalloc.try_alloc z with
              | Some e ->
                  (* must be fresh and capacity respected *)
                  let fresh = not (Hashtbl.mem model e) in
                  Hashtbl.replace model e ();
                  fresh && Hashtbl.length model <= capacity
              | None -> Hashtbl.length model = capacity)
          | 1 -> (
              match Hashtbl.fold (fun e () _ -> Some e) model None with
              | Some e ->
                  Zalloc.free z e;
                  Hashtbl.remove model e;
                  true
              | None -> true)
          | _ -> Zalloc.in_use z = Hashtbl.length model)
        ops)

(* ------------------------------------------------------------------ *)
(* Page pool vs a counter model                                         *)
(* ------------------------------------------------------------------ *)

let pool_conformance ops =
  in_sim (fun () ->
      let pages = 6 in
      let pool = Vm_page.create ~pages () in
      let held = ref [] in
      List.for_all
        (fun op ->
          match op with
          | 0 -> (
              match Vm_page.alloc pool with
              | Some p ->
                  let fresh = not (List.mem p !held) in
                  held := p :: !held;
                  fresh
              | None -> List.length !held = pages)
          | 1 -> (
              match !held with
              | p :: rest ->
                  Vm_page.free pool p;
                  held := rest;
                  true
              | [] -> true)
          | _ -> Vm_page.free_count pool = pages - List.length !held)
        ops)

(* ------------------------------------------------------------------ *)
(* Refcount balance                                                     *)
(* ------------------------------------------------------------------ *)

let refcount_balance clones =
  in_sim (fun () ->
      let r = K.Ref.make () in
      List.iter (fun () -> K.Ref.clone r) (List.init clones (fun _ -> ()));
      let ok_count = K.Ref.count r = clones + 1 in
      (* release all clones: never `Last while the creator ref remains *)
      let all_live =
        List.for_all
          (fun () -> K.Ref.release r = `Live)
          (List.init clones (fun _ -> ()))
      in
      ok_count && all_live && K.Ref.release r = `Last)

(* ------------------------------------------------------------------ *)
(* Complex lock vs a readers/writer state model (single thread, so only
   non-blocking transitions are generated)                              *)
(* ------------------------------------------------------------------ *)

type rw_model = { mutable m_readers : int; mutable m_writer : bool }

let rw_conformance script =
  in_sim (fun () ->
      let l = K.Clock.make ~can_sleep:true () in
      let m = { m_readers = 0; m_writer = false } in
      (* each script element picks among the currently-legal ops *)
      List.for_all
        (fun choice ->
          let legal =
            List.concat
              [
                (if (not m.m_writer) && m.m_readers = 0 then
                   [
                     (fun () ->
                       K.Clock.lock_write l;
                       m.m_writer <- true;
                       true);
                   ]
                 else []);
                (if not m.m_writer then
                   [
                     (fun () ->
                       K.Clock.lock_read l;
                       m.m_readers <- m.m_readers + 1;
                       true);
                   ]
                 else []);
                (if m.m_writer then
                   [
                     (fun () ->
                       K.Clock.lock_done l;
                       m.m_writer <- false;
                       true);
                     (fun () ->
                       K.Clock.lock_write_to_read l;
                       m.m_writer <- false;
                       m.m_readers <- 1;
                       true);
                   ]
                 else []);
                (if m.m_readers > 0 && not m.m_writer then
                   [
                     (fun () ->
                       K.Clock.lock_done l;
                       m.m_readers <- m.m_readers - 1;
                       true);
                   ]
                 else []);
                (if m.m_readers = 1 && not m.m_writer then
                   [
                     (fun () ->
                       (* single reader: upgrade always succeeds *)
                       let failed = K.Clock.lock_read_to_write l in
                       m.m_readers <- 0;
                       m.m_writer <- true;
                       not failed);
                   ]
                 else []);
              ]
          in
          let conforms =
            match legal with
            | [] -> true
            | ops -> (List.nth ops (choice mod List.length ops)) ()
          in
          (* observable state must agree with the model after every op *)
          conforms
          && K.Clock.read_count l = m.m_readers
          && K.Clock.held_for_write l = m.m_writer
          && K.Clock.lock_try_write l
             = ((not m.m_writer) && m.m_readers = 0)
          && (* undo the probe if it succeeded *)
          (if (not m.m_writer) && m.m_readers = 0 then begin
             K.Clock.lock_done l;
             true
           end
           else true))
        script)

(* ------------------------------------------------------------------ *)
(* Complex lock option matrix (Sleep x Recursive) vs a lockstep model   *)
(* ------------------------------------------------------------------ *)

(* Unlike [rw_conformance] above (plain readers/writer), this drives the
   full Appendix B option matrix: recursive write re-acquisition depth,
   recursive reads, downgrade, and the persistence of the recursive
   holder across a full release — each op mirrored into a model whose
   observable fields must agree after every step. *)
type cx_model = {
  mutable x_readers : int;  (* read_count, recursive reads included *)
  mutable x_rec_reads : int;  (* reads taken via the recursive path *)
  mutable x_writer : bool;
  mutable x_depth : int;  (* recursive re-acquisitions of the write side *)
  mutable x_recursive : bool;  (* recursive holder is (still) this thread *)
}

let cx_conformance ~can_sleep ~use_recursive script =
  in_sim (fun () ->
      let l = K.Clock.make ~can_sleep () in
      let m =
        {
          x_readers = 0;
          x_rec_reads = 0;
          x_writer = false;
          x_depth = 0;
          x_recursive = false;
        }
      in
      List.for_all
        (fun choice ->
          let ops = ref [] in
          let op f = ops := f :: !ops in
          (* write acquire blocks unless the lock is entirely free *)
          if (not m.x_writer) && m.x_readers = 0 then
            op (fun () ->
                K.Clock.lock_write l;
                m.x_writer <- true);
          (* recursive re-acquisition and recursive reads *)
          if use_recursive && m.x_writer && not m.x_recursive then
            op (fun () ->
                K.Clock.lock_set_recursive l;
                m.x_recursive <- true);
          if m.x_recursive && m.x_writer then begin
            op (fun () ->
                K.Clock.lock_write l;
                m.x_depth <- m.x_depth + 1);
            op (fun () ->
                K.Clock.lock_read l;
                m.x_readers <- m.x_readers + 1;
                m.x_rec_reads <- m.x_rec_reads + 1)
          end;
          (* clearing with recursive reads outstanding is refused *)
          if m.x_recursive && m.x_depth = 0 && m.x_rec_reads = 0 then
            op (fun () ->
                K.Clock.lock_clear_recursive l;
                m.x_recursive <- false);
          (* plain read acquire: the recursive holder takes the recursive
             path even when it no longer holds the write side *)
          if not m.x_writer then
            op (fun () ->
                K.Clock.lock_read l;
                m.x_readers <- m.x_readers + 1;
                if m.x_recursive then m.x_rec_reads <- m.x_rec_reads + 1);
          (* release: mirrors lock_done's branch order (reads drain
             first, then recursion depth, then the write slot) *)
          if m.x_readers > 0 || m.x_writer then
            op (fun () ->
                K.Clock.lock_done l;
                if m.x_readers > 0 then begin
                  m.x_readers <- m.x_readers - 1;
                  if m.x_recursive && m.x_rec_reads > 0 then
                    m.x_rec_reads <- m.x_rec_reads - 1
                end
                else if m.x_depth > 0 then m.x_depth <- m.x_depth - 1
                else m.x_writer <- false);
          (* downgrade (fatal with outstanding recursive writes) *)
          if m.x_writer && m.x_depth = 0 then
            op (fun () ->
                K.Clock.lock_write_to_read l;
                m.x_writer <- false;
                m.x_readers <- m.x_readers + 1);
          (* upgrade: single reader, never from the recursive path *)
          if m.x_readers = 1 && (not m.x_writer) && not m.x_recursive then
            op (fun () ->
                let failed = K.Clock.lock_read_to_write l in
                m.x_readers <- 0;
                m.x_writer <- true;
                if failed then Engine.fatal "single-reader upgrade failed");
          let ops = List.rev !ops in
          (match ops with
          | [] -> ()
          | _ -> (List.nth ops (choice mod List.length ops)) ());
          K.Clock.read_count l = m.x_readers
          && K.Clock.held_for_write l = m.x_writer
          && K.Clock.can_sleep l = can_sleep)
        script)

(* ------------------------------------------------------------------ *)
(* Gated (deactivate-style) reference count vs a lockstep model         *)
(* ------------------------------------------------------------------ *)

let gated_conformance script =
  in_sim (fun () ->
      let obj = K.Slock.make ~name:"gated-obj" () in
      let g = K.Ref.Gated.make ~name:"gated" ~object_lock:obj () in
      let m_open = ref true and m_n = ref 0 in
      List.for_all
        (fun choice ->
          K.Slock.lock obj;
          let ops = ref [] in
          let op f = ops := f :: !ops in
          op (fun () ->
              (* enter succeeds iff the gate is open *)
              let entered = K.Ref.Gated.enter g in
              if entered <> !m_open then
                Engine.fatal "enter result disagrees with model";
              if entered then incr m_n);
          if !m_n > 0 then
            op (fun () ->
                K.Ref.Gated.exit g;
                decr m_n);
          (* single-threaded: draining and waiting are only legal when
             nothing is in progress (they would block forever) *)
          if !m_n = 0 then begin
            op (fun () ->
                K.Ref.Gated.close_and_drain g;
                m_open := false);
            op (fun () -> K.Ref.Gated.wait_until_zero g)
          end;
          if not !m_open then
            op (fun () ->
                K.Ref.Gated.reopen g;
                m_open := true);
          (List.nth !ops (choice mod List.length !ops)) ();
          let ok = K.Ref.Gated.in_progress g = !m_n in
          K.Slock.unlock obj;
          ok)
        script)

(* ------------------------------------------------------------------ *)
(* Event ids                                                            *)
(* ------------------------------------------------------------------ *)

let fresh_events_unique n =
  in_sim (fun () ->
      let evs = List.init n (fun _ -> K.Ev.fresh_event ()) in
      List.length (List.sort_uniq compare evs) = n
      && List.for_all (fun e -> e <> K.Ev.null_event) evs)

let wakeup_no_waiters_is_zero ev =
  in_sim (fun () -> K.Ev.thread_wakeup (abs ev + 1) = 0)

(* ------------------------------------------------------------------ *)
(* VM map vs an interval model, and Coarse/Range lockstep               *)
(* ------------------------------------------------------------------ *)

module Vm_map = Mach_vm.Vm_map
module Vm_fault = Mach_vm.Vm_fault

let spans m = List.map (fun e -> (e.Vm_map.va_start, e.Vm_map.va_end)) (Vm_map.entries m)

(* Random allocate / allocate_at / deallocate sequences against a
   reference model: entries stay sorted and disjoint, match the model
   exactly, and the naive address allocator (next_va) hands out exactly
   the model's addresses.  Run for both locking disciplines. *)
let map_conformance locking script =
  in_sim (fun () ->
      let ctx = Vm_map.make_context ~pages:64 () in
      let map = Vm_map.create ~locking ctx in
      let model = ref [] (* (va, size), sorted by va *) in
      let model_next = ref 0x1000 in
      let model_overlap va size =
        List.exists (fun (v, s) -> va < v + s && v < va + size) !model
      in
      let model_insert va size =
        model := List.sort compare ((va, size) :: !model)
      in
      let entries_agree () =
        spans map = List.map (fun (v, s) -> (v, v + s)) !model
      in
      let sorted_disjoint () =
        let rec ok = function
          | (s1, e1) :: ((s2, _) :: _ as rest) ->
              s1 < e1 && e1 <= s2 && ok rest
          | [ (s1, e1) ] -> s1 < e1
          | [] -> true
        in
        ok (spans map)
      in
      let step choice =
        match choice mod 4 with
        | 0 ->
            let size = 1 + (choice mod 3) in
            let va = Vm_map.vm_allocate map ~size in
            let ok = va = !model_next && not (model_overlap va size) in
            model_insert va size;
            model_next := va + size;
            ok
        | 1 -> (
            let size = 1 + (choice mod 3) in
            let va = 0x1000 + (choice mod 24) in
            match Vm_map.vm_allocate_at map ~va ~size with
            | Ok got ->
                let ok = got = va && not (model_overlap va size) in
                model_insert va size;
                if va + size > !model_next then model_next := va + size;
                ok
            | Error `Overlap -> model_overlap va size)
        | 2 -> (
            match !model with
            | (va, _) :: rest -> (
                match Vm_map.vm_deallocate map ~va with
                | Ok () ->
                    model := rest;
                    true
                | Error `No_entry -> false)
            | [] -> Vm_map.vm_deallocate map ~va:0x9999 = Error `No_entry)
        | _ ->
            Vm_map.size map
            = List.fold_left (fun acc (_, s) -> acc + s) 0 !model
      in
      let ok =
        List.for_all
          (fun c -> step c && sorted_disjoint () && entries_agree ())
          script
      in
      Vm_map.release map;
      ok)

(* Lockstep: the same op script on a Coarse map and a Range map must
   produce identical results and identical entry lists — the range-lock
   conversion may not change the map's sequential semantics. *)
let map_lockstep script =
  in_sim (fun () ->
      let cm = Vm_map.create ~locking:Vm_map.Coarse (Vm_map.make_context ~pages:64 ()) in
      let rm = Vm_map.create ~locking:Vm_map.Range (Vm_map.make_context ~pages:64 ()) in
      let agree () = spans cm = spans rm in
      let step choice =
        match choice mod 5 with
        | 0 ->
            let size = 1 + (choice mod 3) in
            Vm_map.vm_allocate cm ~size = Vm_map.vm_allocate rm ~size
        | 1 ->
            let size = 1 + (choice mod 3) in
            let va = 0x1000 + (choice mod 24) in
            Vm_map.vm_allocate_at cm ~va ~size
            = Vm_map.vm_allocate_at rm ~va ~size
        | 2 ->
            let va = 0x1000 + (choice mod 32) in
            Vm_map.vm_deallocate cm ~va = Vm_map.vm_deallocate rm ~va
        | 3 -> (
            let va = 0x1000 + (choice mod 32) in
            match (Vm_fault.fault cm ~va, Vm_fault.fault rm ~va) with
            | Ok _, Ok _ -> true
            | Error a, Error b -> a = b
            | _ -> false)
        | _ -> Vm_map.size cm = Vm_map.size rm
      in
      let ok = List.for_all (fun c -> step c && agree ()) script in
      Vm_map.release cm;
      Vm_map.release rm;
      ok)

(* ------------------------------------------------------------------ *)
(* Scache vs Brlock vs a sequential RW-lock model, in lockstep          *)
(* ------------------------------------------------------------------ *)

(* One op script drives both distributed RW locks and a plain
   {readers; writer} model; every observable must agree after every op.
   Single-threaded, so only non-blocking transitions are generated (a
   read under our own write side would spin forever).  The try-write
   probe exercises both protocols' non-barging try paths: it must
   succeed exactly when the model says the lock is entirely free. *)
let rwlock_lockstep script =
  in_sim (fun () ->
      let module S = K.Locks.Scache in
      let module B = K.Locks.Brlock in
      let sc = S.make ~name:"ls.sc" in
      let br = B.make ~name:"ls.br" in
      let readers = ref [] (* (scache slot, brlock slot) tokens *) in
      let writer = ref false in
      List.for_all
        (fun choice ->
          let ops = ref [] in
          let op f = ops := f :: !ops in
          if not !writer then
            op (fun () ->
                let s = S.read_lock sc in
                let b = B.read_lock br in
                readers := (s, b) :: !readers);
          (match !readers with
          | (s, b) :: rest when not !writer ->
              op (fun () ->
                  S.read_unlock sc ~slot:s;
                  B.read_unlock br ~slot:b;
                  readers := rest)
          | _ -> ());
          if (not !writer) && !readers = [] then
            op (fun () ->
                ignore (S.write_lock sc);
                ignore (B.write_lock br);
                writer := true);
          if !writer then
            op (fun () ->
                S.write_unlock sc;
                B.write_unlock br;
                writer := false);
          (List.nth !ops (choice mod List.length !ops)) ();
          let model_locked = !writer || !readers <> [] in
          let model_free = (not !writer) && !readers = [] in
          let try_agrees =
            let a = S.Writer.try_acquire sc in
            if a then S.Writer.release sc;
            let b = B.Writer.try_acquire br in
            if b then B.Writer.release br;
            a = model_free && b = model_free
          in
          S.is_locked sc = model_locked
          && B.is_locked br = model_locked
          && try_agrees)
        script)

(* ------------------------------------------------------------------ *)
(* The context's lock holds vs a held-set model, over every lock type    *)
(* ------------------------------------------------------------------ *)

(* One single-thread op script over every lock type: simple (flat and
   over MCS), complex (read, write, try, upgrade, downgrade, recursive,
   including try_read by the recursive holder), range, and the raw
   brlock and scache sides.  Only ops that cannot block are generated.
   After every step the lock holds on the thread's context must equal
   the model's held set, and once everything is released there must be
   none.  A complex
   lock reports one entry per write and per non-recursive read, so its
   share of the model is [readers - rec_reads + writer]. *)
let held_lockstep script =
  in_sim (fun () ->
      let module RL = Mach_locks.Range_lock in
      let module B = K.Locks.Brlock in
      let module S = K.Locks.Scache in
      let ctx = Engine.context (Engine.self ()) in
      let simple =
        [
          (K.Slock.make ~name:"ls.flat" (), ref false);
          (K.Slock.make ~name:"ls.mcs" ~proto:K.Locks.mcs (), ref false);
        ]
      in
      let cx = K.Clock.make ~name:"ls.cx" ~can_sleep:false () in
      let m =
        {
          x_readers = 0;
          x_rec_reads = 0;
          x_writer = false;
          x_depth = 0;
          x_recursive = false;
        }
      in
      let rl = K.Rlock.make ~name:"ls.rl" () in
      let ranges = ref [] (* (handle, lo, hi, mode), newest first *) in
      let br = B.make ~name:"ls.br" and sc = S.make ~name:"ls.sc" in
      let br_reads = ref [] and br_write = ref false in
      let sc_reads = ref [] and sc_write = ref false in
      let model () =
        List.filter_map
          (fun (l, h) -> if !h then Some (K.Slock.name l) else None)
          simple
        @ List.init (m.x_readers - m.x_rec_reads + Bool.to_int m.x_writer)
            (fun _ -> "ls.cx")
        @ List.map (fun (_, lo, hi, _) -> Printf.sprintf "ls.rl[%d,%d)" lo hi)
            !ranges
        @ List.map (fun _ -> "ls.br.read") !br_reads
        @ (if !br_write then [ "ls.br.write" ] else [])
        @ List.map (fun _ -> "ls.sc.read") !sc_reads
        @ if !sc_write then [ "ls.sc.write" ] else []
      in
      let recorded () =
        List.map
          (fun (name, res) ->
            match res with
            | Mach_core.Waits_for.Range { lo; hi; _ } ->
                Printf.sprintf "%s[%d,%d)" name lo hi
            | _ -> name)
          (Mach_core.Thread_ctx.held ctx)
      in
      let agrees () =
        List.sort compare (recorded ()) = List.sort compare (model ())
      in
      let cx_done () =
        K.Clock.lock_done cx;
        if m.x_readers > 0 then begin
          m.x_readers <- m.x_readers - 1;
          if m.x_recursive && m.x_rec_reads > 0 then
            m.x_rec_reads <- m.x_rec_reads - 1
        end
        else if m.x_depth > 0 then m.x_depth <- m.x_depth - 1
        else m.x_writer <- false
      in
      let cx_read () =
        m.x_readers <- m.x_readers + 1;
        if m.x_recursive then m.x_rec_reads <- m.x_rec_reads + 1
      in
      let conflicts lo hi mode =
        List.exists
          (fun (_, lo', hi', mode') ->
            lo < hi' && lo' < hi && (mode = RL.Write || mode' = RL.Write))
          !ranges
      in
      let step choice =
        let ops = ref [] in
        let op f = ops := f :: !ops in
        List.iter
          (fun (l, h) ->
            if !h then
              op (fun () ->
                  K.Slock.unlock l;
                  h := false)
            else
              op (fun () ->
                  K.Slock.lock l;
                  h := true);
            op (fun () -> if K.Slock.try_lock l then h := true))
          simple;
        (* complex: write, recursion, reads, tries, downgrade, upgrade *)
        if (not m.x_writer) && m.x_readers = 0 then
          op (fun () ->
              K.Clock.lock_write cx;
              m.x_writer <- true);
        if m.x_writer && not m.x_recursive then
          op (fun () ->
              K.Clock.lock_set_recursive cx;
              m.x_recursive <- true);
        if m.x_recursive && m.x_writer then
          op (fun () ->
              K.Clock.lock_write cx;
              m.x_depth <- m.x_depth + 1);
        (* Clearing with recursive reads outstanding is refused. *)
        if m.x_recursive && m.x_depth = 0 && m.x_rec_reads = 0 then
          op (fun () ->
              K.Clock.lock_clear_recursive cx;
              m.x_recursive <- false);
        if m.x_recursive || not m.x_writer then
          op (fun () ->
              K.Clock.lock_read cx;
              cx_read ());
        op (fun () ->
            if K.Clock.lock_try_read cx then cx_read ()
            else if m.x_recursive || not m.x_writer then
              Engine.fatal "try_read refused");
        op (fun () ->
            if K.Clock.lock_try_write cx then
              if m.x_writer then m.x_depth <- m.x_depth + 1
              else m.x_writer <- true);
        if m.x_readers > 0 || m.x_writer then op cx_done;
        if m.x_writer && m.x_depth = 0 then
          op (fun () ->
              K.Clock.lock_write_to_read cx;
              m.x_writer <- false;
              m.x_readers <- m.x_readers + 1);
        if m.x_readers = 1 && (not m.x_writer) && not m.x_recursive then begin
          op (fun () ->
              if K.Clock.lock_read_to_write cx then
                Engine.fatal "single-reader upgrade failed";
              m.x_readers <- 0;
              m.x_writer <- true);
          op (fun () ->
              if not (K.Clock.lock_try_read_to_write cx) then
                Engine.fatal "single-reader try-upgrade failed";
              m.x_readers <- 0;
              m.x_writer <- true)
        end;
        (* range: blocking acquires only when nothing conflicts *)
        List.iter
          (fun (lo, hi) ->
            List.iter
              (fun mode ->
                if not (conflicts lo hi mode) then
                  op (fun () ->
                      let h = K.Rlock.acquire rl ~lo ~hi mode in
                      ranges := (h, lo, hi, mode) :: !ranges);
                op (fun () ->
                    match K.Rlock.try_acquire rl ~lo ~hi mode with
                    | Some h -> ranges := (h, lo, hi, mode) :: !ranges
                    | None -> ()))
              [ RL.Read; RL.Write ])
          [ (0, 4); (2, 6); (8, 12) ];
        (match !ranges with
        | (h, _, _, _) :: rest ->
            op (fun () ->
                K.Rlock.release rl h;
                ranges := rest)
        | [] -> ());
        (* raw brlock and scache sides *)
        let rw ~reads ~write ~read_lock ~read_unlock ~write_lock ~write_unlock
            =
          if not !write then
            op (fun () -> reads := read_lock () :: !reads);
          (match !reads with
          | slot :: rest ->
              op (fun () ->
                  read_unlock slot;
                  reads := rest)
          | [] -> ());
          if (not !write) && !reads = [] then
            op (fun () ->
                write_lock ();
                write := true);
          if !write then
            op (fun () ->
                write_unlock ();
                write := false)
        in
        rw ~reads:br_reads ~write:br_write
          ~read_lock:(fun () -> B.read_lock br)
          ~read_unlock:(fun slot -> B.read_unlock br ~slot)
          ~write_lock:(fun () -> ignore (B.write_lock br))
          ~write_unlock:(fun () -> B.write_unlock br);
        rw ~reads:sc_reads ~write:sc_write
          ~read_lock:(fun () -> S.read_lock sc)
          ~read_unlock:(fun slot -> S.read_unlock sc ~slot)
          ~write_lock:(fun () -> ignore (S.write_lock sc))
          ~write_unlock:(fun () -> S.write_unlock sc);
        let ops = List.rev !ops in
        (List.nth ops (choice mod List.length ops)) ()
      in
      let stepwise =
        List.for_all
          (fun choice ->
            step choice;
            agrees ())
          script
      in
      (* Release everything; the record must then be empty. *)
      List.iter (fun (l, h) -> if !h then K.Slock.unlock l) simple;
      while m.x_readers > 0 || m.x_depth > 0 do
        cx_done ()
      done;
      if m.x_recursive then K.Clock.lock_clear_recursive cx;
      if m.x_writer then cx_done ();
      List.iter (fun (h, _, _, _) -> K.Rlock.release rl h) !ranges;
      List.iter (fun slot -> B.read_unlock br ~slot) !br_reads;
      if !br_write then B.write_unlock br;
      List.iter (fun slot -> S.read_unlock sc ~slot) !sc_reads;
      if !sc_write then S.write_unlock sc;
      stepwise && Mach_core.Thread_ctx.held ctx = [])

(* ------------------------------------------------------------------ *)
(* vm_cache vs an association-map model                                 *)
(* ------------------------------------------------------------------ *)

module Vm_cache = Mach_vm.Vm_cache

(* Random lookup / fill / evict / wire / unwire sequences against an
   offset -> ppn assoc model (plus a wired set): lookups must return
   exactly the model's binding (same ppn the fill produced), evict must
   refuse wired pages, and residency must track the model's cardinality.
   The pool has headroom so the implicit evict-on-shortage path never
   fires (its policy choice is not part of the sequential contract).
   Run for all three index-locking disciplines. *)
let cache_conformance locking script =
  in_sim (fun () ->
      let pages = 8 in
      let pool = Vm_page.create ~pages:(pages + 4) () in
      let cache = Vm_cache.create ~locking ~pool ~size:pages () in
      let model = Hashtbl.create 8 (* offset -> ppn *) in
      let wired = Hashtbl.create 8 in
      let step choice =
        let offset = choice mod pages in
        match choice mod 5 with
        | 0 -> (
            match Vm_cache.lookup cache ~offset with
            | Some ppn -> Hashtbl.find_opt model offset = Some ppn
            | None -> not (Hashtbl.mem model offset))
        | 1 -> (
            match Vm_cache.lookup_or_fill cache ~offset with
            | Ok ppn -> (
                match Hashtbl.find_opt model offset with
                | Some m -> m = ppn (* hit: the binding is stable *)
                | None ->
                    Hashtbl.replace model offset ppn;
                    true)
            | Error _ -> false (* headroom: a fill can never fail here *))
        | 2 ->
            let ok = Vm_cache.evict cache ~offset in
            let expected =
              Hashtbl.mem model offset && not (Hashtbl.mem wired offset)
            in
            if ok then Hashtbl.remove model offset;
            ok = expected
        | 3 ->
            let ok = Vm_cache.wire cache ~offset in
            let expected = Hashtbl.mem model offset in
            if ok then Hashtbl.replace wired offset ();
            ok = expected
        | _ -> (
            match Hashtbl.mem wired offset with
            | true ->
                Vm_cache.unwire cache ~offset;
                Hashtbl.remove wired offset;
                true
            | false -> true)
      in
      let ok =
        List.for_all
          (fun c ->
            step c && Vm_cache.resident cache = Hashtbl.length model)
          script
      in
      (* Wired pages pin residency; unwire them so terminate can drain. *)
      Hashtbl.iter (fun offset () -> Vm_cache.unwire cache ~offset) wired;
      Vm_cache.terminate cache;
      ok && Vm_cache.resident cache = 0)

(* ------------------------------------------------------------------ *)
(* Sharded port name space vs the single-table space, in lockstep       *)
(* ------------------------------------------------------------------ *)

module Port = Mach_ipc.Port
module Port_space = Mach_ipc.Port_space

(* One op script drives a 4-shard space and the single-table reference
   space; every observable must agree after every op.  The same ports
   are registered in both, so lookups must return identical identities,
   and a destroy-while-registered (the dead-name race a server
   termination creates) must be lazily purged by BOTH spaces' next
   lookup.  The final audit is the section 4 balance: after clearing
   both tables every surviving port is back to exactly its creator's
   reference — one table leaking or double-releasing its reference
   cannot pass. *)
let port_space_lockstep script =
  in_sim (fun () ->
      let s4 = Port_space.create ~name:"ls.sharded" ~shards:4 () in
      let s1 = Port_space.create ~name:"ls.flat" ~shards:1 () in
      let created = ref [] in
      let step choice =
        let pname = 1 + (choice mod 4) in
        match choice mod 5 with
        | 0 -> (
            let p = Port.create ~name:(Printf.sprintf "p%d" pname) () in
            match
              (Port_space.insert s4 ~pname p, Port_space.insert s1 ~pname p)
            with
            | Ok (), Ok () ->
                created := p :: !created;
                true
            | Error `Name_in_use, Error `Name_in_use ->
                Port.release p;
                true
            | _ ->
                Port.release p;
                false)
        | 1 -> (
            match
              (Port_space.lookup s4 ~pname, Port_space.lookup s1 ~pname)
            with
            | Some a, Some b ->
                let ok = Port.uid a = Port.uid b && Port.is_active a in
                Port.release a;
                Port.release b;
                ok
            | None, None -> true
            | Some a, None ->
                Port.release a;
                false
            | None, Some b ->
                Port.release b;
                false)
        | 2 -> Port_space.remove s4 ~pname = Port_space.remove s1 ~pname
        | 3 -> (
            (* the dead-name race: kill a registered port in place; both
               spaces must purge it on their next lookup *)
            match Port_space.lookup s4 ~pname with
            | Some p ->
                Port.destroy p;
                Port.release p;
                Port_space.lookup s4 ~pname = None
                && Port_space.lookup s1 ~pname = None
            | None -> true)
        | _ -> Port_space.size s4 = Port_space.size s1
      in
      let ok = List.for_all step script in
      Port_space.clear s4;
      Port_space.clear s1;
      let balanced =
        List.for_all
          (fun p ->
            let one = Port.ref_count p = 1 in
            Port.release p;
            one)
          !created
      in
      ok && balanced)

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop "zalloc conforms to set model" zalloc_ops_gen zalloc_conformance;
      prop "page pool conforms to counter model" zalloc_ops_gen
        pool_conformance;
      prop "refcount balance" QCheck.(int_range 0 30) refcount_balance;
      prop "complex lock conforms to rw model"
        QCheck.(list_of_size (Gen.int_range 1 80) (int_range 0 5))
        rw_conformance;
      prop "complex lock matrix: spin, plain" (script_gen 80)
        (cx_conformance ~can_sleep:false ~use_recursive:false);
      prop "complex lock matrix: spin, recursive" (script_gen 80)
        (cx_conformance ~can_sleep:false ~use_recursive:true);
      prop "complex lock matrix: sleep, plain" (script_gen 80)
        (cx_conformance ~can_sleep:true ~use_recursive:false);
      prop "complex lock matrix: sleep, recursive" (script_gen 80)
        (cx_conformance ~can_sleep:true ~use_recursive:true);
      prop "gated count conforms to gate model" (script_gen 60)
        gated_conformance;
      prop "fresh events unique" QCheck.(int_range 1 100) fresh_events_unique;
      prop "wakeup with no waiters wakes none" QCheck.int
        wakeup_no_waiters_is_zero;
      prop "vm_map (Coarse) conforms to interval model" (script_gen 40)
        (map_conformance Vm_map.Coarse);
      prop "vm_map (Range) conforms to interval model" (script_gen 40)
        (map_conformance Vm_map.Range);
      prop "vm_map lockstep: Range == Coarse" (script_gen 40) map_lockstep;
      prop "rw lockstep: scache == brlock == model" (script_gen 60)
        rwlock_lockstep;
      prop "lock events: held record == held-set model"
        QCheck.(list_of_size (Gen.int_range 1 80) (int_range 0 999))
        held_lockstep;
      prop "vm_cache (scache) conforms to assoc model" (script_gen 50)
        (cache_conformance Vm_cache.Scache);
      prop "vm_cache (brlock) conforms to assoc model" (script_gen 50)
        (cache_conformance Vm_cache.Brlock_rw);
      prop "vm_cache (mutex) conforms to assoc model" (script_gen 50)
        (cache_conformance Vm_cache.Mutex);
      prop "port space lockstep: sharded == single table" (script_gen 60)
        port_space_lockstep;
    ]

let () = Alcotest.run "properties" [ ("models", qcheck_cases) ]
