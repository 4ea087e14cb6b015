module Engine = Mach_sim.Sim_engine

let low_modulus = 1024

type t = {
  tname : string;
  owner : int;
  low : Engine.Cell.t;
  high : Engine.Cell.t;
  check : Engine.Cell.t; (* copy of [high], written after it *)
}

let create ?(name = "timer") ~owner_cpu () =
  {
    tname = name;
    owner = owner_cpu;
    low = Engine.Cell.make ~name:(name ^ ".low") 0;
    high = Engine.Cell.make ~name:(name ^ ".high") 0;
    check = Engine.Cell.make ~name:(name ^ ".check") 0;
  }

let owner_cpu t = t.owner

let tick t ~cycles =
  if Engine.current_cpu () <> t.owner then
    Engine.fatal
      (Printf.sprintf
         "timer %s: tick from cpu %d but the single writer is cpu %d \
          (lock-free timers rely on single-writer discipline, section 2)"
         t.tname (Engine.current_cpu ()) t.owner);
  (* The low word is stored FIRST, possibly exceeding the modulus: an
     un-normalized (high, low) pair is still numerically correct, so a
     reader that catches this state computes the right total.  Only the
     normalization window (high bumped, low not yet wrapped, or wrapped
     low with the old high... ) is inconsistent, and it is bracketed by
     high <> check: high is updated before low wraps and check last. *)
  let v = Engine.Cell.get t.low + cycles in
  Engine.Cell.set t.low v;
  if v >= low_modulus then begin
    Engine.Cell.set t.high (Engine.Cell.get t.high + (v / low_modulus));
    Engine.Cell.set t.low (v mod low_modulus);
    Engine.Cell.set t.check (Engine.Cell.get t.high)
  end

(* Reader order: check first, low, high LAST; accept iff high = check.
   The writer bumps high before normalizing low and publishes check last,
   and high is monotonic, so high = check proves no normalization window
   overlapped the snapshot; the one harmless overlap (low stored
   un-normalized, nothing else yet) yields a numerically correct total. *)
let read t =
  let rec snapshot () =
    let c = Engine.Cell.get t.check in
    let low = Engine.Cell.get t.low in
    let high = Engine.Cell.get t.high in
    if high = c then (high * low_modulus) + low
    else begin
      Engine.spin_hint (t.tname ^ ".read");
      Engine.pause ();
      snapshot ()
    end
  in
  snapshot ()

let read_unchecked t =
  (* Reads the words in the torn-prone order: a carry between the two
     reads yields a value ~low_modulus off. *)
  let low = Engine.Cell.get t.low in
  let high = Engine.Cell.get t.high in
  (high * low_modulus) + low

module Usage = struct
  type u = { timers : t array }

  let create ~cpus =
    {
      timers =
        Array.init cpus (fun cpu ->
            create ~name:(Printf.sprintf "usage-cpu%d" cpu) ~owner_cpu:cpu ());
    }

  let timer u ~cpu = u.timers.(cpu)

  let charge_current_cpu u ~cycles =
    tick u.timers.(Engine.current_cpu ()) ~cycles

  let total u = Array.fold_left (fun acc t -> acc + read t) 0 u.timers
end
