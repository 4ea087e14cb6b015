module Spl = Mach_core.Spl

exception Kernel_panic of string

let name = "native"

module Cell = struct
  type t = { a : int Atomic.t; cname : string }

  let make ?(name = "cell") v = { a = Atomic.make v; cname = name }
  let get t = Atomic.get t.a
  let set t v = Atomic.set t.a v

  (* [Atomic.exchange] gives the true test-and-set; present since 4.12. *)
  let test_and_set t = Atomic.exchange t.a 1
  let swap t v = Atomic.exchange t.a v

  let compare_and_swap t ~expected ~desired =
    Atomic.compare_and_set t.a expected desired

  let fetch_and_add t n = Atomic.fetch_and_add t.a n

  let await t ready =
    let rec loop p =
      if ready (Atomic.get t.a) then p
      else begin
        Domain.cpu_relax ();
        loop (p + 1)
      end
    in
    loop 0

  let name t = t.cname
  let _ = name
end

type thread = {
  tid : int;
  tname : string;
  mutex : Mutex.t;
  cond : Condition.t;
  mutable permits : int;
  context : Mach_core.Thread_ctx.t;
  mutable spl : Spl.t;
}

(* Registry keyed by systhread id (unique across domains). *)
let registry : (int, thread) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()
let tid_counter = Atomic.make 0

let make_thread tname =
  let tid = Atomic.fetch_and_add tid_counter 1 in
  {
    tid;
    tname;
    mutex = Mutex.create ();
    cond = Condition.create ();
    permits = 0;
    context = Mach_core.Thread_ctx.make ~tid ~name:tname;
    spl = Spl.Spl0;
  }

let key () = Thread.id (Thread.self ())

let register ?name () =
  let k = key () in
  Mutex.lock registry_mutex;
  let t =
    match Hashtbl.find_opt registry k with
    | Some t -> t
    | None ->
        let tname =
          match name with Some n -> n | None -> Printf.sprintf "native-%d" k
        in
        let t = make_thread tname in
        Hashtbl.add registry k t;
        t
  in
  Mutex.unlock registry_mutex;
  t

let self () = register ()
let thread_id t = t.tid
let thread_name t = t.tname
let equal_thread a b = a.tid = b.tid
let in_interrupt () = false
let cpu_count () = Domain.recommended_domain_count ()
let current_cpu () = (Domain.self () :> int)
let spin_pause () = Domain.cpu_relax ()

let spin_until ?(budget = max_int) ready =
  let rec loop p =
    if p >= budget || ready () then p
    else begin
      Domain.cpu_relax ();
      loop (p + 1)
    end
  in
  loop 0

let spin_hint _ = ()
let spin_max_backoff () = 1024

let park () =
  let t = self () in
  Mutex.lock t.mutex;
  while t.permits = 0 do
    Condition.wait t.cond t.mutex
  done;
  t.permits <- t.permits - 1;
  Mutex.unlock t.mutex

let unpark t =
  Mutex.lock t.mutex;
  t.permits <- t.permits + 1;
  Condition.signal t.cond;
  Mutex.unlock t.mutex

let set_spl level =
  let t = self () in
  let old = t.spl in
  t.spl <- level;
  old

let get_spl () = (self ()).spl
let cycles _ = ()

(* A coarse monotonic tick so that held-time statistics are non-trivial
   natively; granularity is whatever [Sys.time] offers. *)
let now_cycles () = int_of_float (Sys.time () *. 1e6)

let context t = t.context

(* No fault injector on the real machine. *)
let handoff_fault () = false
let fatal msg = raise (Kernel_panic msg)

(* Every domain is a cpu of the one process-wide machine: machine-scoped
   state is plain process-global state, built eagerly so no two domains
   race to initialize it, and never reset (a simulated run's [Run_reset]
   hooks reset only simulated machines). *)
let machine_local init =
  let v = init () in
  fun () -> v
