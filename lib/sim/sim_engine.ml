module Spl = Mach_core.Spl
module Waits_for = Mach_core.Waits_for
module Thread_ctx = Mach_core.Thread_ctx
module Run_reset = Mach_core.Run_reset
module Obs_event = Mach_obs.Obs_event
module Obs_trace = Mach_obs.Obs_trace
module Obs_span = Mach_obs.Obs_span

(* The span layer's live tables (site stats, blocked-by edges, flight
   rings) are per-run state; lib/obs sits below lib/core and cannot see
   Run_reset, so the engine registers the teardown on its behalf. *)
let () = Run_reset.register Obs_span.reset

(* Bumped whenever an engine change alters the (seed, cfg) -> schedule
   mapping.  Golden files regenerated by gen_golden embed this stamp;
   test_determinism refuses a stale golden with a clear message instead
   of a byte-diff. *)
let schedule_version = 2

type deadlock_kind = Sleep_deadlock | Spin_deadlock

exception Kernel_panic of string
exception Deadlock of deadlock_kind * string
exception Step_limit

type tstate = Runnable | Parked | Dead

type cont = (unit, unit) Effect.Deep.continuation

(* A shared memory cell (operations in [Cell] below).  Declared ahead of
   the frames so a frame's wait record can name the cell it re-reads. *)
type cell = {
  cname : string;
  cuid : int;
      (* footprint identity: negative = per-run sequence (cells made
         inside an mc run, deterministic across re-executions),
         positive = process-global (cells made outside any run) *)
  mutable v : int;
  mutable version : int;
  cached : int array; (* per-cpu version last observed; -1 = invalid *)
}

(* An engine-run spin-wait (see "engine-run waits" below): what is left
   of a [spin_until] or [Cell.await] loop whose first check failed.
   Each holds its predicate as the caller gave it. *)
type wait =
  | No_wait
  | Until of {
      until : unit -> bool;
      mutable left : int; (* checks the budget still allows *)
      mutable pauses : int; (* pauses made so far: the wait's result *)
    }
  | Await of {
      cell : cell;
      ready : int -> bool; (* given [last] *)
      mutable pauses : int;
      mutable last : int; (* the value the last read step returned *)
      mutable read_next : bool; (* a read step comes next, else a check *)
    }

type thread = {
  tid : int;
  tname : string;
  mutable state : tstate;
  mutable permits : int;
  mutable cont : cont option;
  mutable start : (unit -> unit) option;
  context : Thread_ctx.t; (* holds, spans, ranks, waits, rule counters *)
  mutable saved_spl : Spl.t;
  mutable bound : int option;
  mutable ready_clock : int;
  mutable hint : string option;
  mutable joiners : thread list;
  mutable on_cpu : int; (* -1 when not on a cpu *)
  mutable enq_seq : int; (* global enqueue order across all run queues *)
  mutable tseq : int;
      (* per-run spawn sequence: the execution-independent thread
         identity used by mc transition descriptors and footprints *)
  mutable wait : wait; (* the engine-run wait this frame is in *)
}

type intr = {
  iname : string;
  ilevel : Spl.t;
  mutable ihandler : (unit -> unit) option;
  mutable icont : cont option;
  mutable isaved_spl : Spl.t;
  mutable ihint : string option;
  mutable iwait : wait; (* as [thread.wait] *)
}

type frame = Fthread of thread | Fintr of intr

(* ------------------------------------------------------------------ *)
(* Array-backed FIFO (power-of-two ring, grows on demand).  The        *)
(* scheduler's queues were lists with O(n) tail appends and O(n)       *)
(* scans; every operation here is O(1) and allocation-free.            *)
(* ------------------------------------------------------------------ *)

module Tq = struct
  type 'a t = {
    mutable buf : 'a array;
    mutable head : int;
    mutable len : int;
    dummy : 'a;
  }

  let make dummy = { buf = Array.make 16 dummy; head = 0; len = 0; dummy }
  let is_empty q = q.len = 0

  let grow q =
    let cap = Array.length q.buf in
    let bigger = Array.make (2 * cap) q.dummy in
    for i = 0 to q.len - 1 do
      bigger.(i) <- q.buf.((q.head + i) land (cap - 1))
    done;
    q.buf <- bigger;
    q.head <- 0

  let push q x =
    if q.len = Array.length q.buf then grow q;
    q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- x;
    q.len <- q.len + 1

  (* Valid only when [not (is_empty q)]; callers check. *)
  let peek q = q.buf.(q.head)

  let pop q =
    let x = q.buf.(q.head) in
    q.buf.(q.head) <- q.dummy;
    q.head <- (q.head + 1) land (Array.length q.buf - 1);
    q.len <- q.len - 1;
    x

  let iter f q =
    for i = 0 to q.len - 1 do
      f q.buf.((q.head + i) land (Array.length q.buf - 1))
    done

  (* Indexed access and removal, used only by the model-checking
     scheduler (which must be able to take *any* queued element, not
     just the head).  O(len) removal is fine there: mc queues are tiny. *)
  let get q i = q.buf.((q.head + i) land (Array.length q.buf - 1))

  let remove q i =
    let x = get q i in
    let mask = Array.length q.buf - 1 in
    for k = i downto 1 do
      q.buf.((q.head + k) land mask) <- q.buf.((q.head + k - 1) land mask)
    done;
    q.buf.(q.head) <- q.dummy;
    q.head <- (q.head + 1) land mask;
    q.len <- q.len - 1;
    x
end

(* ------------------------------------------------------------------ *)
(* Cpu sets: one bit per cpu, 32 cpus to a word (64 cpus = two words). *)
(* The candidate picker keeps its candidate, idle and dirty sets in    *)
(* these between steps; the r-th member is found by popcounts, not by  *)
(* a scan over every cpu.                                              *)
(* ------------------------------------------------------------------ *)

module Cpuset = struct
  type t = int array (* word w holds cpus 32w .. 32w+31 *)

  let make ncpus = Array.make ((ncpus + 31) lsr 5) 0
  let add s i = s.(i lsr 5) <- s.(i lsr 5) lor (1 lsl (i land 31))
  let remove s i = s.(i lsr 5) <- s.(i lsr 5) land lnot (1 lsl (i land 31))

  let full ncpus =
    Array.init ((ncpus + 31) lsr 5) (fun w ->
        (1 lsl min 32 (ncpus - (w lsl 5))) - 1)

  let union_into dst src =
    for w = 0 to Array.length dst - 1 do
      dst.(w) <- dst.(w) lor src.(w)
    done

  (* Population count of a 32-bit word. *)
  let popcount x =
    let x = x - ((x lsr 1) land 0x55555555) in
    let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
    let x = (x + (x lsr 4)) land 0x0f0f0f0f in
    ((x * 0x01010101) lsr 24) land 0xff

  (* Index of the lowest set bit of a non-zero word. *)
  let ctz x = popcount ((x land -x) - 1)

  (* The least member >= [i], or -1. *)
  let rec next s i =
    let w = i lsr 5 in
    if w >= Array.length s then -1
    else
      let x = s.(w) land ((-1) lsl (i land 31)) in
      if x <> 0 then (w lsl 5) + ctz x else next s ((w + 1) lsl 5)

  (* The [r]-th member in ascending order, counting from 0, searching
     from word [w]. *)
  let rec select_from s w r =
    let x = s.(w) in
    let n = popcount x in
    if r >= n then select_from s (w + 1) (r - n)
    else begin
      let x = ref x in
      for _ = 1 to r do
        x := !x land (!x - 1)
      done;
      (w lsl 5) + ctz !x
    end

  let select s r = select_from s 0 r
end

(* Interrupt priority levels are dense ranks 0..n_spl-1; pending
   interrupts live in one FIFO per level with a summary bitmask, so both
   "is anything deliverable at this spl?" and "highest-priority pending"
   are O(1) instead of list scans. *)
let n_spl = Spl.rank Spl.Splhigh + 1

type cpu = {
  idx : int;
  mutable clock : int;
  mutable spl : Spl.t;
  mutable frames : frame list; (* top first; thread frame at the bottom *)
  pend : intr Tq.t array; (* queued interrupts, FIFO per level rank *)
  mutable pend_mask : int; (* bit r set iff pend.(r) is non-empty *)
  mutable pend_count : int;
  (* The hang rule's state (see "The hang rule"), each a [prod_ctr]
     value: the epoch of this cpu's last unproductive slice, of the
     first read of the loop iteration its top frame is in (-1 before
     one), and of its last mark. *)
  mutable anchor : int;
  mutable read : int;
  mutable spin_mark : int;
  mutable here : (cpu * frame) option;
      (* [Some (c, f)] for the frame [f] this cpu last resumed or found
         waiting on top: [e.cur] is set to it again while [f] stays on
         top, so a spinning cpu allocates no new one each step *)
  mutable cwait : wait;
      (* action 4 (see "Candidate picking"): the top frame's wait,
         cached when the cpu's action was refreshed *)
}

type mstats = {
  mutable m_steps : int;
  mutable m_bus : int;
  mutable m_misses : int;
  mutable m_atomics : int;
  mutable m_intrs : int;
  mutable m_switches : int;
  mutable m_spawned : int;
  mutable m_parks : int;
  mutable m_unparks : int;
  mutable m_spin_pauses : int;
}

(* Injection tallies, deliberately separate from [stats]: the stats
   record and its printer are pinned byte-for-byte by the golden
   determinism tests, and with injection disabled every count here is
   zero anyway. *)
type chaos_stats = {
  dropped_wakeups : int;
  delayed_wakeups : int;
  spurious_wakeups : int;
  delayed_interrupts : int;
  perturbed_picks : int;
  forced_preemptions : int;
  dropped_handoffs : int;
}

type cstate = {
  mutable c_dropped : int;
  mutable c_delayed : int;
  mutable c_spurious : int;
  mutable c_delayed_intr : int;
  mutable c_perturbed : int;
  mutable c_preempted : int;
  mutable c_handoff : int;
}

(* Where a frame's slice ended: at a cell operation or any other
   preemption point, at [pause], or at a counted spin pause. *)
type ending = At_op | At_pause | At_spin

(* What the waits-for detector concluded about the most recent deadlock:
   the cycle (node labels in order, closing back on the first) and/or
   orphaned waiters (parked threads whose wakeup can no longer arrive). *)
type deadlock_analysis = { cycle : string list; orphans : string list }

type stats = {
  steps : int;
  makespan : int;
  bus_transactions : int;
  cache_misses : int;
  atomic_ops : int;
  interrupts_delivered : int;
  context_switches : int;
  spawned_threads : int;
  parks : int;
  unparks : int;
  spin_pauses : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "steps=%d makespan=%d bus=%d misses=%d atomics=%d intrs=%d switches=%d \
     spawned=%d parks=%d unparks=%d spin-pauses=%d"
    s.steps s.makespan s.bus_transactions s.cache_misses s.atomic_ops
    s.interrupts_delivered s.context_switches s.spawned_threads s.parks
    s.unparks s.spin_pauses

type engine = {
  cfg : Sim_config.t;
  rng : Sim_rng.t;
  (* Chaos draws come from their own RNG so enabling a fault class never
     shifts the schedule stream; [faults_on] is precomputed so the
     disabled case costs one boolean test per hook. *)
  crng : Sim_rng.t;
  faults_on : bool;
  (* Systematic exploration: when [mc_on], the scheduler enumerates
     enabled transitions and defers the choice to [mc] instead of the
     RNG, and while [noting] (a fresh step, not a replayed one) every
     shared-state access is appended to [fp] (the current slice's
     footprint).  All of it is dead weight when off: one boolean test
     per hook, no behaviour change, golden schedules untouched. *)
  mc : Sim_config.mc_hooks option;
  mc_on : bool;
  mutable noting : bool;
  mutable fp : Sim_config.mc_access list;
  mutable prod_ctr : int; (* total productive operations this run *)
  mutable cell_ctr : int; (* per-run cell ids (negative), mc mode only *)
  mutable ended : ending; (* how the current slice ended *)
  mutable marked : int; (* cpus marked in epoch [mark_epoch] *)
  mutable mark_epoch : int;
  mutable in_ready : bool; (* the engine is evaluating a wait predicate *)
  ch : cstate;
  mutable delayed : (int * thread) list; (* (due step, victim) in order *)
  cpus : cpu array;
  (* Run queues: one FIFO of unbound threads plus one per-cpu FIFO of
     bound threads.  [enq_seq] stamps restore the single global FIFO
     order the scheduler had when these were one list: a cpu dispatches
     whichever eligible head was enqueued first. *)
  anyq : thread Tq.t;
  boundq : thread Tq.t array;
  limbo : thread Tq.t; (* bound to a cpu that does not exist *)
  mutable enq_ctr : int;
  mutable threads : thread list; (* every thread ever spawned, for reports *)
  mutable live : int;
  mutable prod_step : int; (* the step of the last productive operation *)
  mutable bus_free_at : int;
  trace : Sim_trace.t option; (* None: the run does not trace *)
  st : mstats;
  mutable cur : (cpu * frame) option;
  mutable rr_next : int;
  mutable name_ctr : int; (* per-run counter for generated thread names *)
  idle_identity : thread array; (* self() for interrupts on idle cpus *)
  (* The candidate picker's state, kept between steps (see "Candidate
     picking" below). *)
  act : int array; (* 0 none / 1 deliver / 2 resume / 3 dispatch / 4 wait *)
  cand_set : Cpuset.t; (* act <> 0 *)
  mutable ncand : int;
  idle_set : Cpuset.t; (* cpus with no frame *)
  dirty : Cpuset.t; (* cpus whose action may have changed since the last pick *)
  mutable anyq_seen : bool; (* anyq non-empty at the last refresh *)
  near : int array;
      (* Timed: near.(0 .. nnear-1) are the candidates with clock <=
         tmin + window, in ascending cpu order *)
  mutable nnear : int;
  mutable tmin : int; (* Timed: the least candidate clock *)
  mutable tout : int;
      (* Timed: at most the least clock of a candidate outside [near]
         ([max_int] when there is none) *)
  mutable near_stale : bool; (* candidacy changed since tmin was computed *)
  mutable last_pick : int; (* the cpu the last step ran, -1 once refreshed *)
  mutable pick_clock : int; (* its clock before that step *)
}

(* ------------------------------------------------------------------ *)
(* Domain-local state: the engine slot, cross-run identifiers, the     *)
(* identity used when core code runs outside any simulation.  One      *)
(* engine may run per domain, so seed sweeps fan out with Domain.spawn *)
(* while each domain's simulation stays fully deterministic.           *)
(* ------------------------------------------------------------------ *)

let tid_counter = Atomic.make 1000 (* distinct from native machine tids *)

let make_thread ?(bound = None) tname =
  let tid = Atomic.fetch_and_add tid_counter 1 in
  {
    tid;
    tname;
    state = Runnable;
    permits = 0;
    cont = None;
    start = None;
    context = Thread_ctx.make ~tid ~name:tname;
    saved_spl = Spl.Spl0;
    bound;
    ready_clock = 0;
    hint = None;
    joiners = [];
    on_cpu = -1;
    enq_seq = 0;
    tseq = 0;
    wait = No_wait;
  }

let engine_key : engine option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let the_engine () = Domain.DLS.get engine_key

let external_identity_key : thread Domain.DLS.key =
  Domain.DLS.new_key (fun () -> make_thread "external")

let last_stats_key : stats option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let last_trace_key : Sim_trace.event list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let last_chaos_key : chaos_stats option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let last_analysis_key : deadlock_analysis option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let last_drops_key : Sim_trace.drop_stats option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* True while a finished run unwinds the fibers it left suspended (see
   "Ending a run" below). *)
let unwinding_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* The engine's own: what a run's suspended fibers are discontinued
   with when the run ends. *)
exception Unwind

(* The cold path of every machine operation that finds no engine
   installed.  Outside any run the operation acts as outside the
   simulator; while a finished run unwinds, it raises instead, so code
   in an unwinding fiber runs only up to its first machine operation.
   Simulated steps never come here. *)
let no_engine () = if Domain.DLS.get unwinding_key then raise Unwind

let running () = the_engine () <> None

let eng_exn () =
  match the_engine () with
  | Some e -> e
  | None ->
      no_engine ();
      raise (Kernel_panic "no simulation is running")

let fatal msg = raise (Kernel_panic msg)

(* The predicate of an engine-run wait performed machine operation [op]
   while the engine evaluated it.  [spin_until]'s predicate may read
   plain memory only, [Cell.await]'s also the value read: anything else
   would run outside the fiber it belongs to, and a wait iteration that
   spawned, woke a thread or posted an interrupt would change what the
   scheduler skips refreshing after it (see "Candidate picking").  The
   engine evaluates a predicate with no current frame, so [check_ready]
   names the wait. *)
exception Broken_wait of string

let broken_wait e op =
  e.in_ready <- false;
  raise (Broken_wait op)

(* Machine operation [op] found no current frame: inside a wait
   predicate it is refused, otherwise it takes the no-engine path. *)
let no_frame e op =
  match e with
  | Some e -> if e.in_ready then broken_wait e op
  | None -> no_engine ()

(* The currently-executing (cpu, frame), if a fiber is running; [op]
   names the context read for a refusal. *)
let ctx op =
  match the_engine () with
  | Some { cur = Some _ as cur; _ } -> cur
  | e ->
      no_frame e op;
      None

let frame_name = function
  | Fthread t -> t.tname
  | Fintr i -> "intr:" ^ i.iname

let self () =
  match ctx "self" with
  | None -> Domain.DLS.get external_identity_key
  | Some (c, Fthread t) ->
      ignore c;
      t
  | Some (c, Fintr _) -> (
      (* Interrupt context: the current thread is the interrupted thread;
         on an idle cpu, a per-cpu identity stands in (Mach's idle
         thread). *)
      let rec bottom = function
        | [ Fthread t ] -> Some t
        | _ :: rest -> bottom rest
        | [] -> None
      in
      match bottom c.frames with
      | Some t -> t
      | None -> (
          match the_engine () with
          | Some e -> e.idle_identity.(c.idx)
          | None -> Domain.DLS.get external_identity_key))

let thread_id t = t.tid
let thread_name t = t.tname
let equal_thread a b = a.tid == b.tid
let is_dead t = t.state = Dead

let context t = t.context

let in_interrupt () =
  match ctx "in_interrupt" with Some (_, Fintr _) -> true | _ -> false

let frame_wait = function Fthread t -> t.wait | Fintr i -> i.iwait

let set_wait f w =
  match f with Fthread t -> t.wait <- w | Fintr i -> i.iwait <- w

(* The checks a budgeted wait has left; an unbudgeted one starts at
   [max_int] checks. *)
let budget_left = function
  | Until { left; _ } when left < max_int / 2 -> Some left
  | _ -> None

let productive e =
  e.prod_step <- e.st.m_steps;
  e.prod_ctr <- e.prod_ctr + 1

(* Append one access to the current slice's footprint (fresh mc steps
   only). *)
let note e a = if e.noting then e.fp <- a :: e.fp

(* Every trace point is written [if e.cfg.trace then trace_e e ev] (or
   [if tracing () then trace ev] where no engine is at hand), so an
   untraced run builds no event. *)
let trace_e e ev =
  match e.trace with
  | None -> ()
  | Some tr ->
      let step = e.st.m_steps in
      let cpu, context, clock =
        match e.cur with
        | Some (c, f) -> (c.idx, frame_name f, c.clock)
        | None -> (-1, "sched", 0)
      in
      Sim_trace.record tr ~step ~clock ~cpu ~context ev

let tracing () =
  match the_engine () with Some e -> e.cfg.trace | None -> false

let trace ev =
  match the_engine () with Some e -> trace_e e ev | None -> ()

(* ------------------------------------------------------------------ *)
(* Effects                                                              *)
(* ------------------------------------------------------------------ *)

type _ Effect.t +=
  | Pause_eff : unit Effect.t
  | Park_eff : unit Effect.t
  | Preempt_eff : unit Effect.t
        (* forced preemption (chaos): the thread is descheduled and
           re-enqueued runnable, instead of staying on its cpu *)

(* One 1-in-[n] draw from the chaos RNG; no draw at all when the class is
   disabled, so fault classes do not perturb each other's streams any
   more than necessary and odds 0 is free. *)
let chaos_hit e n = n > 0 && Sim_rng.int e.crng n = 0

let charge e n =
  match e.cur with Some (c, _) -> c.clock <- c.clock + n | None -> ()

let pause () =
  match the_engine () with
  | Some ({ cur = Some _; _ } as e) ->
      charge e Sim_config.pause_cost;
      e.ended <- At_pause;
      Effect.perform Pause_eff
  | e -> no_frame e "pause"

let cycles n =
  match the_engine () with
  | None -> no_engine ()
  | Some e ->
      if e.in_ready then broken_wait e "cycles";
      charge e n

let now_cycles () =
  match ctx "now_cycles" with Some (c, _) -> c.clock | None -> 0

let current_cpu () =
  match ctx "current_cpu" with Some (c, _) -> c.idx | None -> 0

let cpu_count () =
  match the_engine () with
  | Some e -> e.cfg.cpus
  | None ->
      no_engine ();
      1

let spin_max_backoff () =
  match the_engine () with
  | Some e -> e.cfg.spin_max_backoff
  | None ->
      no_engine ();
      Sim_config.default.spin_max_backoff

let set_spl level =
  match the_engine () with
  | Some ({ cur = Some (c, _); _ } as e) ->
      let old = c.spl in
      c.spl <- level;
      note e (Sim_config.Mc_spl c.idx);
      if e.cfg.trace then
        trace_e e
          (Obs_event.Spl_raise
             { from_lvl = Spl.to_string old; to_lvl = Spl.to_string level });
      old
  | e ->
      (* A wait iteration leaves its cpu's spl alone (see "Candidate
         picking"), so a predicate may not change it. *)
      no_frame e "set_spl";
      let t = Domain.DLS.get external_identity_key in
      let old = t.saved_spl in
      t.saved_spl <- level;
      old

let get_spl () =
  match ctx "get_spl" with
  | Some (c, _) -> c.spl
  | None -> (Domain.DLS.get external_identity_key).saved_spl

(* A lock re-names its hint at every wait: the same string is not boxed
   again. *)
let spin_hint s =
  match ctx "spin_hint" with
  | Some (_, Fthread t) -> (
      match t.hint with Some h when h == s -> () | _ -> t.hint <- Some s)
  | Some (_, Fintr i) -> (
      match i.ihint with Some h when h == s -> () | _ -> i.ihint <- Some s)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Spin pauses and engine-run waits                                     *)
(* ------------------------------------------------------------------ *)

(* [spin_until] and [Cell.await] are the read-only spin-waits: check,
   pause, check again.  The first check (and [Cell.await]'s first read)
   runs in the fiber.  When it fails, [start_wait] makes the pause the
   literal loop would make and records the rest of the wait on the
   running frame; the engine then runs every later iteration itself
   ([wait_step]) and continues the fiber only once the predicate holds
   or the budget is spent.  Each step charges, counts and notes exactly
   what the fiber's loop would, so schedules are unchanged; what goes is
   the effect round trip and the fiber code per iteration. *)

(* A counted spin pause on cpu [c], short of ending the step. *)
let[@inline] spin_pause_on e c =
  c.clock <- c.clock + Sim_config.pause_cost;
  e.st.m_spin_pauses <- e.st.m_spin_pauses + 1;
  e.ended <- At_spin

let spin_pause () =
  match the_engine () with
  | Some ({ cur = Some (c, _); _ } as e) ->
      spin_pause_on e c;
      Effect.perform Pause_eff
  | e -> no_frame e "pause"

let start_wait e c f w =
  spin_pause_on e c;
  set_wait f w;
  Effect.perform Pause_eff;
  match w with Until u -> u.pauses | Await a -> a.pauses | No_wait -> 0

(* Outside a simulated thread nothing else runs, so a failed check can
   never come true: a bounded wait spends its budget (each pause is
   free there), an unbounded one could only hang. *)
let wait_outside e ~budget =
  no_frame e "a spin wait";
  if budget = max_int then
    fatal "a spin-wait outside a simulated thread can never end"
  else budget

let spin_until ?(budget = max_int) ready =
  if budget <= 0 || ready () then 0
  else
    match the_engine () with
    | Some ({ cur = Some (c, f); _ } as e) ->
        start_wait e c f
          (Until { until = ready; left = budget - 1; pauses = 1 })
    | e -> wait_outside e ~budget

(* ------------------------------------------------------------------ *)
(* Shared cells with a cache and bus cost model                         *)
(* ------------------------------------------------------------------ *)

let max_cpus = 64

(* The names of the per-cpu idle identities, formatted once rather than
   at every run's set-up. *)
let idle_names = Array.init max_cpus (Printf.sprintf "cpu%d-idle")

module Cell = struct
  type t = cell = {
    cname : string;
    cuid : int;
    mutable v : int;
    mutable version : int;
    cached : int array;
  }

  let global_uid = Atomic.make 1

  (* A cell made during a run has one cache slot per cpu of that
     machine (an mc machine has two or three, and a run makes its cells
     afresh); only a cell made outside any run gets a slot for every cpu
     a machine can have. *)
  let make ?(name = "cell") v =
    let e = the_engine () in
    if Option.is_none e then no_engine ();
    let cuid =
      match e with
      | Some e when e.mc_on ->
          e.cell_ctr <- e.cell_ctr - 1;
          e.cell_ctr
      | _ -> Atomic.fetch_and_add global_uid 1
    in
    let slots = match e with Some e -> e.cfg.cpus | None -> max_cpus in
    { cname = name; cuid; v; version = 0; cached = Array.make slots (-1) }

  let name t = t.cname

  (* Bus access: serialize on the global bus and charge [cost]. *)
  let bus_access e c cost =
    let start = Int.max c.clock e.bus_free_at in
    c.clock <- start + cost;
    e.bus_free_at <- start + Sim_config.bus_occupancy;
    e.st.m_bus <- e.st.m_bus + 1

  (* Bumping the version invalidates every cpu's cached copy by itself:
     a stale slot holds an older version and can never compare equal
     again.  (The previous implementation also memset the whole per-cpu
     array on every write -- 64 stores on the hottest path in the
     machine, all redundant.) *)
  let invalidate t writer_cpu =
    t.version <- t.version + 1;
    if writer_cpu >= 0 then t.cached.(writer_cpu) <- t.version

  (* Every cell operation is a preemption point: it ends the step.  The
     model checker's stutter argument and the engine-run waits' read
     steps both rely on it. *)
  let[@inline] preempt () = Effect.perform Pause_eff

  (* A cell operation with no current frame: refused inside a wait
     predicate. *)
  let[@inline] no_frame e = no_frame e "a cell operation"

  (* Every cpu access checks first: a cell kept from a run on a smaller
     machine has no slot for the higher cpus. *)
  let[@inline never] no_slot t c =
    fatal
      (Printf.sprintf
         "cell %s was made on a %d-cpu machine; cpu %d has no cache slot in \
          it"
         t.cname (Array.length t.cached) c.idx)

  let[@inline] check_slot t c =
    if c.idx >= Array.length t.cached then no_slot t c

  (* A read by cpu [c]: the hit cost, or a bus miss that refreshes the
     cpu's cached version; and the footprint entry.  [get] and the read
     step of an engine-run wait. *)
  let[@inline] read e c t =
    check_slot t c;
    if t.cached.(c.idx) = t.version then
      c.clock <- c.clock + Sim_config.read_hit_cost
    else begin
      bus_access e c Sim_config.read_miss_cost;
      e.st.m_misses <- e.st.m_misses + 1;
      t.cached.(c.idx) <- t.version
    end;
    if e.noting then
      note e (Sim_config.Mc_cell { cell = t.cuid; write = false });
    t.v

  let get t =
    match the_engine () with
    | Some ({ cur = Some (c, _); _ } as e) ->
        let v = read e c t in
        preempt ();
        v
    | e ->
        no_frame e;
        t.v

  let await t ready =
    let v = get t in
    if ready v then 0
    else
      match the_engine () with
      | Some ({ cur = Some (c, f); _ } as e) ->
          start_wait e c f
            (Await { cell = t; ready; pauses = 1; last = v; read_next = true })
      | e -> wait_outside e ~budget:max_int

  let set t v =
    match the_engine () with
    | Some ({ cur = Some (c, _); _ } as e) ->
        check_slot t c;
        bus_access e c Sim_config.write_cost;
        t.v <- v;
        invalidate t c.idx;
        productive e;
        if e.noting then
          note e (Sim_config.Mc_cell { cell = t.cuid; write = true });
        if e.cfg.trace then
          trace_e e (Obs_event.Cell_set { cell = t.cname; value = v });
        preempt ()
    | e ->
        no_frame e;
        t.v <- v

  (* [stores old] tells whether the instruction performs its store even
     when the value is unchanged: test-and-set always writes (this is
     precisely the bus-bandwidth waste of spinning on it, section 2),
     while a failed compare-and-swap does not take the line exclusive.
     Only an actual value change counts as progress for the hang rule. *)
  let atomic_op t ~stores f =
    match the_engine () with
    | Some ({ cur = Some (c, _); _ } as e) ->
        check_slot t c;
        bus_access e c Sim_config.atomic_cost;
        e.st.m_atomics <- e.st.m_atomics + 1;
        let old = t.v in
        let nv = f old in
        t.v <- nv;
        if stores old then invalidate t c.idx
        else t.cached.(c.idx) <- t.version;
        if nv <> old then productive e;
        if e.noting then
          note e (Sim_config.Mc_cell { cell = t.cuid; write = stores old });
        preempt ();
        old
    | e ->
        no_frame e;
        let old = t.v in
        t.v <- f old;
        old

  (* Forced preemption at a lock-acquire boundary: deschedule the thread
     right before its test-and-set, so it re-runs the acquire from the
     run queue later (possibly on another cpu, at spl0) — the adversarial
     schedule for protocols that assume acquire is atomic with respect to
     preemption.  Interrupt frames are exempt: they cannot leave the
     cpu. *)
  let chaos_preempt e =
    match e.cur with
    | Some (_, Fthread t) when chaos_hit e e.cfg.faults.preempt_on_acquire ->
        e.ch.c_preempted <- e.ch.c_preempted + 1;
        if e.cfg.trace then
          trace_e e
            (Obs_event.Chaos_inject
               { kind = "preempt-acquire"; victim = t.tname });
        Effect.perform Preempt_eff
    | _ -> ()

  let test_and_set t =
    (match the_engine () with
    | Some e when e.faults_on -> chaos_preempt e
    | _ -> ());
    let old = atomic_op t ~stores:(fun _ -> true) (fun _ -> 1) in
    if tracing () then
      trace (Obs_event.Tas { cell = t.cname; old_value = old });
    old

  let compare_and_swap t ~expected ~desired =
    let old =
      atomic_op t
        ~stores:(fun old -> old = expected)
        (fun v -> if v = expected then desired else v)
    in
    old = expected

  let fetch_and_add t n =
    atomic_op t ~stores:(fun _ -> true) (fun v -> v + n)

  (* Unconditional atomic exchange, the enqueue primitive of queue locks.
     Like test-and-set it always performs its store (and so always
     invalidates), and it shares the chaos preempt-on-acquire hook: a
     forced preemption straddling the tail swap is the adversarial
     schedule for MCS-style protocols. *)
  let swap t v =
    (match the_engine () with
    | Some e when e.faults_on -> chaos_preempt e
    | _ -> ());
    let old = atomic_op t ~stores:(fun _ -> true) (fun _ -> v) in
    if tracing () then
      trace (Obs_event.Cell_set { cell = t.cname; value = v });
    old
end

(* Queue-lock handoff fault hook (see Machine_intf.MACHINE.handoff_fault):
   one chaos draw per armed opportunity, zero draws when the class is
   off, so golden schedules are untouched. *)
let handoff_fault () =
  match the_engine () with
  | Some e when e.faults_on && chaos_hit e e.cfg.faults.drop_handoff ->
      e.ch.c_handoff <- e.ch.c_handoff + 1;
      let victim =
        match e.cur with Some (_, f) -> frame_name f | None -> "sched"
      in
      if e.cfg.trace then
        trace_e e (Obs_event.Chaos_inject { kind = "drop-handoff"; victim });
      true
  | e ->
      if Option.is_none e then no_engine ();
      false

(* ------------------------------------------------------------------ *)
(* Threads                                                              *)
(* ------------------------------------------------------------------ *)

(* Enqueue preserving the old single-list FIFO semantics: the stamp
   records global arrival order; bound threads go to their cpu's queue
   (or limbo when the cpu does not exist -- such a thread can never be
   dispatched, exactly as before, but still shows up in reports). *)
let enqueue e t =
  t.enq_seq <- e.enq_ctr;
  e.enq_ctr <- e.enq_ctr + 1;
  note e Sim_config.Mc_runq;
  match t.bound with
  | None -> Tq.push e.anyq t
  | Some b when b >= 0 && b < Array.length e.cpus ->
      Tq.push e.boundq.(b) t;
      Cpuset.add e.dirty b
  | Some _ -> Tq.push e.limbo t

let spawn ?name ?bound f =
  let e = eng_exn () in
  if e.in_ready then broken_wait e "spawn";
  e.name_ctr <- e.name_ctr + 1;
  let tname =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "thread%d" e.name_ctr
  in
  let t = make_thread ~bound tname in
  t.tseq <- e.name_ctr;
  t.start <- Some f;
  t.ready_clock <- (match e.cur with Some (c, _) -> c.clock | None -> 0);
  note e (Sim_config.Mc_thread t.tseq);
  enqueue e t;
  e.threads <- t :: e.threads;
  e.live <- e.live + 1;
  e.st.m_spawned <- e.st.m_spawned + 1;
  productive e;
  if e.cfg.trace then trace_e e (Obs_event.Spawn { thread = tname });
  t

(* The injection-free wakeup path, also used to deliver delayed and
   spurious wakeups (injection must not re-inject on its own deliveries,
   or a delayed wakeup could be dropped/re-delayed forever). *)
let unpark_now e t =
  note e (Sim_config.Mc_thread t.tseq);
  match t.state with
  | Parked ->
      t.state <- Runnable;
      t.ready_clock <- (match e.cur with Some (c, _) -> c.clock | None -> 0);
      enqueue e t;
      e.st.m_unparks <- e.st.m_unparks + 1;
      productive e;
      if e.cfg.trace then trace_e e (Obs_event.Unpark { thread = t.tname })
  | Runnable ->
      t.permits <- t.permits + 1;
      productive e;
      if e.cfg.trace then trace_e e (Obs_event.Permit { thread = t.tname })
  | Dead -> ()

let unpark t =
  match the_engine () with
  | None -> no_engine () (* outside simulation: nothing can be parked *)
  | Some e ->
      if e.in_ready then broken_wait e "unpark";
      if e.faults_on && t.state = Parked && chaos_hit e e.cfg.faults.drop_wakeup
      then begin
        (* Dropped wakeup: the caller believes the waiter is awake; the
           waiter stays parked with no future wakeup — section 6's lost
           wakeup, provoked on purpose. *)
        e.ch.c_dropped <- e.ch.c_dropped + 1;
        if e.cfg.trace then
          trace_e e
            (Obs_event.Chaos_inject
               { kind = "drop-wakeup"; victim = t.tname })
      end
      else if
        e.faults_on && t.state = Parked
        && chaos_hit e e.cfg.faults.delay_wakeup
      then begin
        e.ch.c_delayed <- e.ch.c_delayed + 1;
        e.delayed <-
          e.delayed
          @ [ (e.st.m_steps + Sim_config.wakeup_delay_steps, t) ];
        if e.cfg.trace then
          trace_e e
            (Obs_event.Chaos_inject
               { kind = "delay-wakeup"; victim = t.tname })
      end
      else unpark_now e t

let park () =
  let e = eng_exn () in
  if e.in_ready then broken_wait e "park";
  (match e.cur with
  | None -> fatal "park outside a simulated thread"
  | Some (_, Fintr i) ->
      fatal
        (Printf.sprintf
           "park in interrupt handler %s: interrupt routines lack the \
            thread context required to sleep (paper, section 7)"
           i.iname)
  | Some (_, Fthread _) -> ());
  let t = self () in
  if t.permits > 0 then begin
    t.permits <- t.permits - 1;
    (* Still a schedule point, so wakeup-before-block schedules explore
       the same interleavings as real blocking. *)
    Effect.perform Pause_eff
  end
  else begin
    e.st.m_parks <- e.st.m_parks + 1;
    productive e;
    note e (Sim_config.Mc_thread t.tseq);
    if e.cfg.trace then trace_e e (Obs_event.Park { thread = t.tname });
    Effect.perform Park_eff
  end

let join target =
  let t = self () in
  if equal_thread t target then fatal "join on self";
  if target.state <> Dead then begin
    target.joiners <- t :: target.joiners;
    while target.state <> Dead do
      park ()
    done
  end

(* ------------------------------------------------------------------ *)
(* Interrupts                                                           *)
(* ------------------------------------------------------------------ *)

let post_interrupt ?(name = "ipi") ~cpu ~level handler =
  let e = eng_exn () in
  if e.in_ready then broken_wait e "post_interrupt";
  if cpu < 0 || cpu >= e.cfg.cpus then
    fatal (Printf.sprintf "post_interrupt: no cpu %d" cpu);
  let i =
    {
      iname = name;
      ilevel = level;
      ihandler = Some handler;
      icont = None;
      isaved_spl = Spl.Spl0;
      ihint = None;
      iwait = No_wait;
    }
  in
  let c = e.cpus.(cpu) in
  let r = Spl.rank level in
  Tq.push c.pend.(r) i;
  c.pend_mask <- c.pend_mask lor (1 lsl r);
  c.pend_count <- c.pend_count + 1;
  Cpuset.add e.dirty cpu;
  productive e;
  note e (Sim_config.Mc_intrq cpu);
  if e.cfg.trace then
    trace_e e (Obs_event.Intr_post { name; cpu; level = Spl.to_string level })

(* ------------------------------------------------------------------ *)
(* Scheduler                                                            *)
(* ------------------------------------------------------------------ *)

(* An interrupt is deliverable iff some pending level is strictly above
   the cpu's current spl: one shift of the level bitmask. *)
let deliverable c = c.pend_mask lsr (Spl.rank c.spl + 1) <> 0

let dispatchable e c =
  not (Tq.is_empty e.anyq && Tq.is_empty e.boundq.(c.idx))

(* Highest deliverable level: hardware priority fixes the level, so only
   FIFO position *within* it is ever a choice. *)
let deliverable_rank c =
  let base = Spl.rank c.spl in
  let rec find r =
    if r <= base then fatal "internal: deliver with nothing deliverable"
    else if Tq.is_empty c.pend.(r) then find (r - 1)
    else r
  in
  find (n_spl - 1)

(* All queued-but-not-running threads in global enqueue order (the order
   the old single run-queue list reported). *)
let runq_threads e =
  let acc = ref [] in
  let add t = acc := t :: !acc in
  Tq.iter add e.anyq;
  Array.iter (Tq.iter add) e.boundq;
  Tq.iter add e.limbo;
  List.sort (fun a b -> compare a.enq_seq b.enq_seq) !acc

let all_threads_report e =
  let buf = Buffer.create 256 in
  Array.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  cpu%d clock=%d spl=%s frames=[%s] pending=%d\n"
           c.idx c.clock (Spl.to_string c.spl)
           (String.concat "; "
              (List.map
                 (fun f ->
                   let hint =
                     match f with
                     | Fthread t -> t.hint
                     | Fintr i -> i.ihint
                   in
                   let left =
                     match budget_left (frame_wait f) with
                     | Some left -> Printf.sprintf ", %d checks left" left
                     | None -> ""
                   in
                   frame_name f
                   ^ match hint with
                     | Some h -> " (spinning on " ^ h ^ left ^ ")"
                     | None -> "")
                 c.frames))
           c.pend_count))
    e.cpus;
  Buffer.add_string buf
    (Printf.sprintf "  runq=[%s]\n"
       (String.concat "; " (List.map (fun t -> t.tname) (runq_threads e))));
  let parked = List.filter (fun t -> t.state = Parked) e.threads in
  Buffer.add_string buf
    (Printf.sprintf "  parked=[%s]\n"
       (String.concat "; "
          (List.map
             (fun t ->
               t.tname
               ^ match t.hint with Some h -> " (last spin: " ^ h ^ ")" | None -> "")
             parked)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Waits-for deadlock analysis                                          *)
(* ------------------------------------------------------------------ *)

(* A directed blocking graph over threads, resources, interrupt frames
   and pending interrupts:

     thread -> resource          the thread waits for the resource
     resource -> thread          a current holder of the resource
     event -> resource           the event aliases a complex lock
     frame below -> frame above  a thread/handler waits for interrupts
                                 nested above it on its cpu
     pending -> top frame        a masked pending interrupt waits for
                                 whatever holds the cpu's spl
     active intr -> pending peer barrier heuristic: an in-service
                                 interrupt named N rendezvouses with
                                 pending interrupts named N elsewhere
     rendezvous -> pending peer  likewise for declared rendezvous waits
                                 (tlb shootdown)

   A cycle through these edges is a deadlock explanation; the section 7
   three-processor interrupt deadlock closes through exactly one such
   cycle (spinner -> lock -> holder -> in-service barrier -> masked
   pending barrier -> spinner). *)
module Dgraph = struct
  type t = {
    labels : (string, string) Hashtbl.t;
    adj : (string, string list ref) Hashtbl.t;
    mutable nodes : string list;
  }

  let make () =
    { labels = Hashtbl.create 64; adj = Hashtbl.create 64; nodes = [] }

  let node g id label =
    if not (Hashtbl.mem g.labels id) then begin
      Hashtbl.add g.labels id label;
      Hashtbl.add g.adj id (ref []);
      g.nodes <- id :: g.nodes
    end

  let edge g a b =
    match Hashtbl.find_opt g.adj a with
    | Some l -> if not (List.mem b !l) then l := b :: !l
    | None -> ()

  let label g id = try Hashtbl.find g.labels id with Not_found -> id

  (* Depth-first cycle search, nodes visited in sorted-id order and edges
     in insertion order, so the result is deterministic for a given
     graph.  Returns the node ids along the first cycle found. *)
  let find_cycle g =
    let color = Hashtbl.create 64 in
    (* 1 = on the current path, 2 = fully explored *)
    let rec dfs path id =
      match Hashtbl.find_opt color id with
      | Some 2 -> None
      | Some _ ->
          let rec cut = function
            | [] -> []
            | x :: rest -> if x = id then [ x ] else x :: cut rest
          in
          Some (List.rev (cut path))
      | None ->
          Hashtbl.replace color id 1;
          let succs =
            match Hashtbl.find_opt g.adj id with
            | Some l -> List.rev !l
            | None -> []
          in
          let r =
            List.fold_left
              (fun acc s ->
                match acc with Some _ -> acc | None -> dfs (id :: path) s)
              None succs
          in
          if r = None then Hashtbl.replace color id 2;
          r
    in
    List.fold_left
      (fun acc id -> match acc with Some _ -> acc | None -> dfs [] id)
      None
      (List.sort compare g.nodes)
end

(* Every identity the engine owns, each carrying its context: the
   threads, and the idle identities that interrupts on idle cpus hold
   and wait under. *)
let identities e = Array.fold_right List.cons e.idle_identity e.threads

let analyze e ~sleep =
  let g = Dgraph.make () in
  let tnode_tid tid tname =
    (* Zero-padded like lock uids: tids are process-wide. *)
    let id = Printf.sprintf "T:%09d" tid in
    Dgraph.node g id tname;
    id
  in
  let tnode t = tnode_tid t.tid t.tname in
  let rnode r =
    let id = Waits_for.res_id r in
    Dgraph.node g id (Waits_for.res_label r);
    id
  in
  let contexts = List.map context (identities e) in
  let wait_edges = Thread_ctx.wait_edges contexts in
  let holds = Thread_ctx.hold_edges contexts in
  List.iter
    (fun (tid, tname, r) ->
      let tn = tnode_tid tid tname and rn = rnode r in
      Dgraph.edge g tn rn;
      match r with
      | Waits_for.Event { id } -> (
          match Waits_for.event_resource ~event:id with
          | Some res -> Dgraph.edge g rn (rnode res)
          | None -> ())
      | _ -> ())
    wait_edges;
  List.iter
    (fun (r, hs) ->
      let rn = rnode r in
      List.iter (fun (tid, tname) -> Dgraph.edge g rn (tnode_tid tid tname)) hs)
    holds;
  let active = ref [] and pending = ref [] in
  Array.iter
    (fun c ->
      let fid pos = function
        | Fthread t -> tnode t
        | Fintr i ->
            let id = Printf.sprintf "F:%d:%d" c.idx pos in
            Dgraph.node g id
              (Printf.sprintf "interrupt %s on cpu%d" i.iname c.idx);
            active := (i.iname, id) :: !active;
            id
      in
      let ids = List.mapi fid c.frames in
      let rec chain = function
        | above :: (below :: _ as rest) ->
            Dgraph.edge g below above;
            chain rest
        | _ -> ()
      in
      chain ids;
      let top = match ids with id :: _ -> Some id | [] -> None in
      for r = 0 to n_spl - 1 do
        let j = ref 0 in
        Tq.iter
          (fun i ->
            let id = Printf.sprintf "P:%d:%d:%d" c.idx r !j in
            incr j;
            Dgraph.node g id
              (Printf.sprintf "pending interrupt %s on cpu%d at %s" i.iname
                 c.idx (Spl.to_string i.ilevel));
            pending := (i.iname, id) :: !pending;
            if r <= Spl.rank c.spl then
              match top with Some tf -> Dgraph.edge g id tf | None -> ())
          c.pend.(r)
      done)
    e.cpus;
  let pending = List.rev !pending and active = List.rev !active in
  List.iter
    (fun (name, fn) ->
      List.iter
        (fun (pname, pid) -> if pname = name then Dgraph.edge g fn pid)
        pending)
    active;
  List.iter
    (fun (_, _, r) ->
      match r with
      | Waits_for.Rendezvous { name } ->
          List.iter
            (fun (pname, pid) -> if pname = name then Dgraph.edge g (rnode r) pid)
            pending
      | _ -> ())
    wait_edges;
  let cycle =
    match Dgraph.find_cycle g with
    | Some ids -> List.map (Dgraph.label g) ids
    | None -> []
  in
  (* Spin deadlocks have their own orphan class: a thread spinning on a
     lock that no thread holds, after at least one queue-lock handoff was
     dropped, lost the store that should have granted it the lock — the
     queue-lock analogue of the section 6 lost wakeup. *)
  let lost_handoffs () =
    if e.ch.c_handoff = 0 then []
    else
      List.concat_map
        (fun (_, tname, r) ->
          match r with
          | Waits_for.Slock _ when not (List.mem_assoc r holds) ->
              [
                Printf.sprintf
                  "thread %s: spinning on %s which no thread holds; the \
                   handoff never arrived (lost handoff)"
                  tname (Waits_for.res_label r);
              ]
          | _ -> [])
        wait_edges
  in
  (* Orphaned waiters are only meaningful at a sleep deadlock: with every
     thread parked, a recorded wait has provably no remaining waker, and
     a parked thread whose wait edge is gone was woken in the event layer
     but never actually delivered (the lost wakeup of section 6). *)
  let orphans =
    if not sleep then lost_handoffs ()
    else
      List.concat_map
        (fun t ->
          if t.state <> Parked then []
          else
            match List.rev t.context.waits with
            | [] -> (
                match t.context.last_event with
                | Some ev when e.ch.c_dropped > 0 || e.ch.c_delayed > 0 ->
                    [
                      Printf.sprintf
                        "thread %s: woken from event %d but the wakeup never \
                         arrived (lost wakeup)"
                        t.tname ev;
                    ]
                | _ when e.ch.c_dropped > 0 ->
                    [
                      Printf.sprintf
                        "thread %s: parked with no recorded wait; a dropped \
                         wakeup is the likely cause"
                        t.tname;
                    ]
                | _ -> [])
            | waits ->
                List.map
                  (fun r ->
                    Printf.sprintf
                      "thread %s: blocked on %s with no remaining waker \
                       (orphaned waiter)"
                      t.tname (Waits_for.res_label r))
                  waits)
        (List.rev e.threads)
  in
  { cycle; orphans }

(* Each identity's still-open spans, innermost first, ordered by thread
   id (stable across identical runs) but named, not numbered: tids come
   from a process-wide counter, so byte-compared repeat runs would
   differ. *)
let open_spans e =
  List.filter_map
    (fun t ->
      match Thread_ctx.open_spans t.context with
      | [] -> None
      | spans -> Some (t.tid, (t.tname, spans)))
    (identities e)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* Run the analysis, remember it for [last_analysis], dump each line into
   the obs trace, and render the suffix appended to the deadlock report. *)
let analyze_deadlock e ~sleep =
  let a = analyze e ~sleep in
  Domain.DLS.set last_analysis_key (Some a);
  let buf = Buffer.create 128 in
  let note line =
    Buffer.add_string buf ("  " ^ line ^ "\n");
    if e.cfg.trace then trace_e e (Obs_event.Deadlock_note { line })
  in
  (match a.cycle with
  | [] -> ()
  | ls ->
      note ("waits-for cycle: " ^ String.concat " -> " (ls @ [ List.hd ls ])));
  List.iter note a.orphans;
  let wf =
    if Buffer.length buf = 0 then ""
    else "waits-for analysis:\n" ^ Buffer.contents buf
  in
  (* Post-mortem flight record: the last spans each cpu completed before
     the hang.  It needs cfg.spans (on by default), so every deadlock /
     lost-wakeup / livelock verdict — seeded, chaos or model-checked —
     carries it. *)
  let flight =
    if e.cfg.spans then Obs_span.flight_dump ~open_spans:(open_spans e) else ""
  in
  wf ^ flight

let mkstats e =
  {
    steps = e.st.m_steps;
    makespan = Array.fold_left (fun acc c -> max acc c.clock) 0 e.cpus;
    bus_transactions = e.st.m_bus;
    cache_misses = e.st.m_misses;
    atomic_ops = e.st.m_atomics;
    interrupts_delivered = e.st.m_intrs;
    context_switches = e.st.m_switches;
    spawned_threads = e.st.m_spawned;
    parks = e.st.m_parks;
    unparks = e.st.m_unparks;
    spin_pauses = e.st.m_spin_pauses;
  }

(* ------------------------------------------------------------------ *)
(* The hang rule                                                        *)
(* ------------------------------------------------------------------ *)

(* One rule ends every hung run, seeded or model-checked: the stutter
   rule.  An epoch is a value of [prod_ctr]; within one no shared value
   changes.  A cpu is marked when an unproductive slice of its top frame
   ends one more iteration of a wait whose condition it read in the
   epoch: at a counted spin pause ([spin_pause], an engine-run wait's
   check), after any earlier unproductive slice of the epoch; at a plain
   [pause], when the iteration it ends read a cell and all its reads fell
   in the epoch (so neither a delay loop nor a snapshot begun before the
   last productive operation marks).  Every loop that pauses without
   producing is a condition wait (the wait contract), so a marked cpu
   would only repeat that iteration until another cpu produces; once no
   cpu could act but a marked one, the run is hung.  The model checker
   stops offering a marked cpu's resume; the seeded scheduler keeps
   running it, counts the epoch's marks, and confirms the verdict with
   [moves].  A cpu's frames change only with a productive operation, so
   the epochs live on the cpu. *)

let expirable c =
  match c.frames with
  | f :: _ -> Option.value ~default:0 (budget_left (frame_wait f)) > 0
  | [] -> false

(* The transitions the model checker offers: a deliverable cpu each
   pending interrupt of its highest deliverable level, a busy one its
   top frame unless the cpu is marked (then only the expiry of a
   budgeted wait with checks left), an idle one each thread it may
   dispatch.  Zero is the hang test of both schedulers. *)
let moves e =
  let n = ref 0 in
  for i = 0 to Array.length e.cpus - 1 do
    let c = e.cpus.(i) in
    if deliverable c then n := !n + c.pend.(deliverable_rank c).Tq.len
    else
      match c.frames with
      | _ :: _ -> if c.spin_mark <> e.prod_ctr || expirable c then incr n
      | [] -> n := !n + e.anyq.Tq.len + e.boundq.(c.idx).Tq.len
  done;
  !n

(* Steps with no productive operation after which a seeded run ends
   though some cpu never marked: only a loop outside the wait contract,
   one that repeats without producing or waiting on a condition, gets
   here. *)
let backstop_steps = 1_000_000

(* End a hung run: its verdict's header, the machine state and the
   waits-for analysis.  [stalled]: the backstop ended it. *)
let[@inline never] hang ?(stalled = false) e =
  let busy = Array.fold_left (fun k c -> k + min 1 (List.length c.frames)) 0 in
  let kind, header =
    match (stalled, busy e.cpus) with
    | true, _ ->
        ( Spin_deadlock,
          Printf.sprintf
            "no productive operation for %d steps, yet not every cpu is in \
             a hung wait (a loop outside the wait contract)"
            backstop_steps )
    | false, 0 ->
        ( Sleep_deadlock,
          Printf.sprintf
            "all cpus idle, run queue empty, but %d thread(s) still parked"
            e.live )
    | false, n ->
        ( Spin_deadlock,
          Printf.sprintf
            "%d context(s) spinning with no possible writer (livelock)" n )
  in
  let state = all_threads_report e in
  raise
    (Deadlock
       ( kind,
         header ^ "; machine state:\n" ^ state
         ^ analyze_deadlock e ~sleep:(kind = Sleep_deadlock) ))

(* The seeded verdict: the epoch's marks reach the candidates and none
   of them can act: nothing deliverable or dispatchable (a chaos
   interrupt delay lasts one step), no budgeted wait with checks left, no
   delayed wakeup owed. *)
let hung e =
  e.mark_epoch = e.prod_ctr && e.marked >= e.ncand && e.delayed = []
  && moves e = 0

(* Mark cpu [c] in the current epoch. *)
let[@inline never] mark e c =
  let p = e.prod_ctr in
  c.spin_mark <- p;
  if e.mark_epoch <> p then begin
    e.mark_epoch <- p;
    e.marked <- 0
  end;
  e.marked <- e.marked + 1;
  if (not e.mc_on) && hung e then hang e

(* An unproductive slice of cpu [c] ended at a spin pause. *)
let[@inline] stutter_spin e c =
  let p = e.prod_ctr in
  if c.anchor <> p then c.anchor <- p else if c.spin_mark <> p then mark e c

(* The rule after a slice of cpu [c] that began in epoch [before]; a
   pause ends the loop iteration. *)
let after_slice e c before =
  let p = e.prod_ctr in
  if p <> before then c.read <- -1
  else
    match e.ended with
    | At_op ->
        c.anchor <- p;
        if c.read < 0 then c.read <- p
    | At_spin ->
        c.read <- -1;
        stutter_spin e c
    | At_pause ->
        let read = c.read in
        c.read <- -1;
        if read <> p then c.anchor <- p
        else if c.spin_mark <> p then mark e c

let finish_frame e (c : cpu) (f : frame) =
  (match c.frames with
  | top :: rest when top == f -> c.frames <- rest
  | _ -> fatal "internal: finishing a frame that is not on top");
  productive e;
  match f with
  | Fthread t ->
      t.state <- Dead;
      t.on_cpu <- -1;
      e.live <- e.live - 1;
      c.spl <- Spl.Spl0;
      note e (Sim_config.Mc_thread t.tseq);
      note e (Sim_config.Mc_spl c.idx);
      if e.cfg.trace then
        trace_e e (Obs_event.Thread_exit { thread = t.tname });
      List.iter unpark t.joiners;
      t.joiners <- []
  | Fintr i ->
      c.spl <- i.isaved_spl;
      note e (Sim_config.Mc_spl c.idx);
      if e.cfg.trace then trace_e e (Obs_event.Intr_done { name = i.iname })

(* The handler closures must find the *current* cpu and frame at effect
   time (from [e.cur], which [resume] maintains): a thread that parks and
   is later dispatched again may be running on a different cpu than the
   one it started on, while the handler installed by [match_with] stays
   the same for the fiber's whole life.  So each is built once per
   fiber, and an effect allocates only its continuation.  A fiber that
   ends with no current frame was discontinued by [unwind] after its run
   ended: it ends quietly, whatever it raised, since the run's outcome
   is fixed. *)
let run_fiber e (body : unit -> unit) =
  let open Effect.Deep in
  let cur () =
    match e.cur with
    | Some cf -> cf
    | None -> fatal "internal: fiber effect with no current frame"
  in
  let pause =
    Some
      (fun (k : (unit, unit) continuation) ->
        (* Stay on the cpu, suspended at a preemption point. *)
        match cur () with
        | _, Fthread t -> t.cont <- Some k
        | _, Fintr i -> i.icont <- Some k)
  in
  let park =
    Some
      (fun (k : (unit, unit) continuation) ->
        match cur () with
        | c, (Fthread t as f) ->
            t.cont <- Some k;
            t.state <- Parked;
            t.saved_spl <- c.spl;
            t.on_cpu <- -1;
            (match c.frames with
            | top :: rest when top == f -> c.frames <- rest
            | _ -> fatal "internal: parking a non-top frame");
            c.spl <- Spl.Spl0;
            note e (Sim_config.Mc_spl c.idx)
        | _, Fintr _ -> fatal "internal: park effect in interrupt")
  in
  let preempt =
    Some
      (fun (k : (unit, unit) continuation) ->
        (* Like parking, but the thread stays runnable and goes straight
           back on the run queue. *)
        match cur () with
        | c, (Fthread t as f) ->
            t.cont <- Some k;
            t.saved_spl <- c.spl;
            t.on_cpu <- -1;
            t.ready_clock <- c.clock;
            (match c.frames with
            | top :: rest when top == f -> c.frames <- rest
            | _ -> fatal "internal: preempting a non-top frame");
            c.spl <- Spl.Spl0;
            enqueue e t
        | _, Fintr _ -> fatal "internal: preempt effect in interrupt")
  in
  match_with body ()
    {
      retc =
        (fun () ->
          match e.cur with Some (c, f) -> finish_frame e c f | None -> ());
      exnc =
        (fun exn ->
          (* A fiber exception is a kernel panic: annotate and propagate
             out of the scheduler. *)
          match (e.cur, exn) with
          | None, _ -> ()
          | Some (c, f), Kernel_panic msg ->
              raise
                (Kernel_panic
                   (Printf.sprintf "[cpu%d %s] %s" c.idx (frame_name f) msg))
          | Some (c, f), exn ->
              raise
                (Kernel_panic
                   (Printf.sprintf "[cpu%d %s] unhandled exception: %s"
                      c.idx (frame_name f) (Printexc.to_string exn))));
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Pause_eff -> pause
          | Park_eff -> park
          | Preempt_eff -> preempt
          | _ -> None);
    }

let[@inline] run_frame e f =
  match f with
  | Fthread t -> (
      match (t.start, t.cont) with
      | Some body, _ ->
          t.start <- None;
          run_fiber e body
      | None, Some k ->
          t.cont <- None;
          Effect.Deep.continue k ()
      | None, None -> fatal "internal: thread frame with no continuation")
  | Fintr i -> (
      match (i.ihandler, i.icont) with
      | Some body, _ ->
          i.ihandler <- None;
          run_fiber e body
      | None, Some k ->
          i.icont <- None;
          Effect.Deep.continue k ()
      | None, None -> fatal "internal: interrupt frame w/o continuation")

(* A predicate raised [exn] while the engine evaluated it for cpu [c]'s
   top frame: the panic the fiber's own would be, annotated as a fiber's
   failure is. *)
let[@inline never] predicate_failed e c w exn =
  e.in_ready <- false;
  let frame =
    match c.here with
    | Some (_, f) -> frame_name f
    | None -> fatal "internal: wait step with no current frame"
  in
  let why =
    match exn with
    | Broken_wait op ->
        Printf.sprintf
          "the predicate of %s performed %s; a wait predicate may read only \
           plain memory and the value read"
          (match w with
          | Await a -> "Cell.await on " ^ a.cell.cname
          | Until _ | No_wait -> "spin_until")
          op
    | Kernel_panic msg -> msg
    | exn -> "unhandled exception: " ^ Printexc.to_string exn
  in
  raise (Kernel_panic (Printf.sprintf "[cpu%d %s] %s" c.idx frame why))

(* Evaluate the predicate of cpu [c]'s wait [w], as the fiber would.  The
   frame is not made current: a predicate reads plain memory and the
   value read, and every machine operation or context read it makes is
   refused on the no-frame path ([no_frame]). *)
let[@inline] check_ready e c w =
  e.in_ready <- true;
  match
    match w with
    | Until u -> u.until ()
    | Await a -> a.ready a.last
    | No_wait -> fatal "internal: a check of no wait"
  with
  | ok ->
      e.in_ready <- false;
      ok
  | exception exn -> predicate_failed e c w exn

(* [c.here] made [Some (c, f)] for [c]'s top frame [f]. *)
let set_here c f =
  match c.here with
  | Some (_, g) when g == f -> ()
  | _ -> c.here <- Some (c, f)

(* Run cpu [c]'s top frame [f], with [c.here] set for it, to its next
   preemption point, and apply the hang rule to the slice. *)
let run_slice e c f =
  let before = e.prod_ctr in
  e.ended <- At_op;
  e.cur <- c.here;
  run_frame e f;
  e.cur <- None;
  after_slice e c before

(* The step that ends cpu [c]'s wait: its top frame, from [c.here],
   leaves the wait and runs on.  False, as [wait_step]. *)
let end_wait e c =
  match c.here with
  | None -> fatal "internal: wait step with no current frame"
  | Some (_, f) ->
      set_wait f No_wait;
      run_slice e c f;
      false

(* One step of the engine-run wait [w] of cpu [c]'s top frame, the step
   the fiber's loop would take: a read step (a [Cell.get] without the
   fiber), or a check step that either pauses or ends the wait and runs
   the fiber on.  No RNG draw and no productive operation, like the loop
   itself, and the hang rule as for the loop's slice.  Only the step
   that ends the wait makes the frame current,
   from [c.here], which the caller has set; the predicate runs with no
   current frame, so a step that goes on waiting stores nothing into
   the engine record.  True when the wait goes on: the step changed
   none of the cpu's frames, spl or pending mask.  Inlined into each of
   its callers, so a step that goes on waiting makes no call but the
   predicate's. *)
let[@inline] wait_step e c w =
  match w with
  | Until u ->
      if u.left > 0 && not (check_ready e c w) then begin
        u.left <- u.left - 1;
        u.pauses <- u.pauses + 1;
        spin_pause_on e c;
        (* A budgeted wait is no hang while checks are left; the model
           checker marks it to offer its expiry. *)
        if u.left > max_int / 2 || e.mc_on then stutter_spin e c;
        true
      end
      else end_wait e c
  | Await a ->
      if a.read_next then begin
        a.last <- Cell.read e c a.cell;
        a.read_next <- false;
        c.anchor <- e.prod_ctr;
        true
      end
      else if not (check_ready e c w) then begin
        a.pauses <- a.pauses + 1;
        a.read_next <- true;
        spin_pause_on e c;
        stutter_spin e c;
        true
      end
      else end_wait e c
  | No_wait -> fatal "internal: a wait step of no wait"

(* Resume cpu [c]'s top frame for one step; true when the step was one
   more iteration of an engine-run wait. *)
let resume e c =
  match c.frames with
  | [] -> fatal "internal: resume on idle cpu"
  | f :: _ -> (
      set_here c f;
      match frame_wait f with
      | No_wait ->
          run_slice e c f;
          false
      | w -> wait_step e c w)

let deliver_intr e c r i =
  (* [i] has already been removed from [c.pend.(r)]. *)
  if Tq.is_empty c.pend.(r) then c.pend_mask <- c.pend_mask land lnot (1 lsl r);
  c.pend_count <- c.pend_count - 1;
  i.isaved_spl <- c.spl;
  c.spl <- i.ilevel;
  c.frames <- Fintr i :: c.frames;
  c.read <- -1;
  c.clock <- c.clock + Sim_config.interrupt_cost;
  e.st.m_intrs <- e.st.m_intrs + 1;
  productive e;
  note e (Sim_config.Mc_intrq c.idx);
  note e (Sim_config.Mc_spl c.idx);
  if e.cfg.trace then begin
    e.cur <- Some (c, Fintr i);
    trace_e e
      (Obs_event.Intr_deliver
         { name = i.iname; level = Spl.to_string i.ilevel });
    e.cur <- None
  end

let deliver e c =
  (* FIFO within the level (the order the old single pending list
     produced). *)
  let r = deliverable_rank c in
  deliver_intr e c r (Tq.pop c.pend.(r))

(* Dispatch whichever eligible head (unbound, or bound to this cpu) was
   enqueued first -- identical to scanning the old global FIFO for the
   first thread this cpu may run. *)
let take_thread e c =
  let bq = e.boundq.(c.idx) in
  if Tq.is_empty bq then Tq.pop e.anyq
  else if Tq.is_empty e.anyq then Tq.pop bq
  else if (Tq.peek e.anyq).enq_seq < (Tq.peek bq).enq_seq then Tq.pop e.anyq
  else Tq.pop bq

let dispatch_thread e c t =
  t.on_cpu <- c.idx;
  c.clock <- Int.max c.clock t.ready_clock + Sim_config.context_switch_cost;
  c.spl <- t.saved_spl;
  c.frames <- [ Fthread t ];
  c.read <- -1;
  e.st.m_switches <- e.st.m_switches + 1;
  productive e;
  note e Sim_config.Mc_runq;
  note e (Sim_config.Mc_thread t.tseq);
  note e (Sim_config.Mc_spl c.idx);
  if e.cfg.trace then
    trace_e e (Obs_event.Dispatch { thread = t.tname; cpu = c.idx })

let dispatch e c =
  if not (dispatchable e c) then
    fatal "internal: dispatch with empty run queue";
  dispatch_thread e c (take_thread e c)

(* ------------------------------------------------------------------ *)
(* Candidate picking                                                    *)
(* ------------------------------------------------------------------ *)

(* A step runs only the picked cpu, so only its clock, frames and spl
   move.  Another cpu's action can change in just three ways:
     - [post_interrupt] to it changes its pending mask;
     - a push onto its bound queue makes it dispatchable;
     - the unbound run queue going empty <-> non-empty flips every idle
       cpu between dispatch and nothing.
   So the action codes and the candidate set persist between steps.
   [post_interrupt] and [enqueue] mark the first two in [dirty], a step
   marks its picked cpu unless it was one more iteration of an
   engine-run wait (which changes none of the cpu's frames, spl or
   pending mask), and [update_candidates] refreshes exactly those plus
   the idle cpus when the run queue flipped.  A cpu whose top frame is
   in an engine-run wait gets its own action, 4, and its wait record and
   [here] are cached when that action is computed: the step runs
   [wait_step] on them directly, without [resume]'s frame matching. *)

let action e c =
  if deliverable c then 1
  else
    match c.frames with
    | f :: _ -> (
        match frame_wait f with
        | No_wait -> 2
        | w ->
            c.cwait <- w;
            set_here c f;
            4)
    | [] -> if dispatchable e c then 3 else 0

let refresh e i =
  let c = e.cpus.(i) in
  let a = action e c in
  let was = e.act.(i) in
  e.act.(i) <- a;
  if (a <> 0) <> (was <> 0) then begin
    if a <> 0 then begin
      Cpuset.add e.cand_set i;
      e.ncand <- e.ncand + 1
    end
    else begin
      Cpuset.remove e.cand_set i;
      e.ncand <- e.ncand - 1
    end;
    e.near_stale <- true
  end;
  match c.frames with
  | [] -> Cpuset.add e.idle_set i
  | _ :: _ -> Cpuset.remove e.idle_set i

(* The Timed policy advances the least-advanced cpu, but chooses
   randomly among the cpus within a small clock window of the minimum:
   without this jitter, two contenders can phase-lock into a
   deterministic cycle where one always samples a lock while the other
   holds it (a livelock real machines escape through timing noise). *)
let timed_window =
  (2 * Sim_config.atomic_cost) + (2 * Sim_config.bus_occupancy)

(* The least clock among the cpus in [s] ([max_int] when empty).  This
   and [recompute_near] walk the set's words bit by bit: cheaper than
   [next] per member when the set is dense, as candidate sets are. *)
let min_clock e (s : Cpuset.t) =
  let lo = ref max_int in
  for w = 0 to Array.length s - 1 do
    let x = ref s.(w) and i = ref (w lsl 5) in
    while !x <> 0 do
      if !x land 1 <> 0 then begin
        let clk = e.cpus.(!i).clock in
        if clk < !lo then lo := clk
      end;
      x := !x lsr 1;
      incr i
    done
  done;
  !lo

(* [near] := the candidates whose clock is within the window of the
   least, in ascending cpu order; [tout] := the least clock of the
   others. *)
let recompute_near e =
  e.tmin <- min_clock e e.cand_set;
  let limit = e.tmin + timed_window and n = ref 0 and out = ref max_int in
  for w = 0 to Array.length e.cand_set - 1 do
    let x = ref e.cand_set.(w) and i = ref (w lsl 5) in
    while !x <> 0 do
      if !x land 1 <> 0 then begin
        let clk = e.cpus.(!i).clock in
        if clk <= limit then begin
          e.near.(!n) <- !i;
          incr n
        end
        else if clk < !out then out := clk
      end;
      x := !x lsr 1;
      incr i
    done
  done;
  e.nnear <- !n;
  e.tout <- !out;
  e.near_stale <- false

(* Cpu [p], now at clock [clk], leaves [near], keeping the rest in
   order. *)
let drop_near e p clk =
  let n = e.nnear - 1 in
  let k = ref 0 in
  while e.near.(!k) <> p do
    incr k
  done;
  for j = !k to n - 1 do
    e.near.(j) <- e.near.(j + 1)
  done;
  e.nnear <- n;
  if clk < e.tout then e.tout <- clk

(* The picked cpu [p], now at clock [clk], held the minimum before its
   step (see [slide_window]). *)
let window_from_min e p clk =
  let lo = ref max_int in
  for k = 0 to e.nnear - 1 do
    let c = e.cpus.(e.near.(k)).clock in
    if c < !lo then lo := c
  done;
  let limit = !lo + timed_window in
  if e.tout <= limit then recompute_near e
  else begin
    e.tmin <- !lo;
    if clk > limit then drop_near e p clk
  end

(* Bring the Timed window up to date with the last step, which ran
   cpu [p] from clock [pick_clock].  Clocks only move forward, and a
   step moves only its picked cpu's.  If candidacy is unchanged, then:
     - if the picked cpu's clock was above the minimum before its step,
       another candidate holds the minimum, and only the picked cpu can
       leave [near]: it was in it exactly when its clock before the step
       was within the window, and it leaves once its clock is past it;
     - if it held the minimum, the new minimum is the least clock in
       [near] unless [tout] is smaller, and the window can only move up,
       so every other member of [near] stays in it.  A cpu outside
       [near] can enter it only if [tout] is within the new window; only
       then is every candidate scanned again.
   [tout] stays at most the least clock outside [near]: it takes the
   clock of every cpu that leaves, and the clocks outside only grow. *)
let[@inline] slide_window e p =
  let clk = e.cpus.(p).clock in
  if e.pick_clock <= e.tmin then window_from_min e p clk
  else
    let limit = e.tmin + timed_window in
    if e.pick_clock <= limit && clk > limit then drop_near e p clk

(* The window after a refresh: rescanned when candidacy changed. *)
let update_window e =
  (match e.cfg.policy with
  | Sim_config.Timed when e.ncand > 0 ->
      if e.near_stale then recompute_near e
      else if e.last_pick >= 0 then slide_window e e.last_pick
  | _ -> ());
  e.last_pick <- -1

(* Bring the picker up to date with everything since the last pick. *)
let update_candidates e =
  let queued = not (Tq.is_empty e.anyq) in
  if queued <> e.anyq_seen then begin
    e.anyq_seen <- queued;
    Cpuset.union_into e.dirty e.idle_set
  end;
  for w = 0 to Array.length e.dirty - 1 do
    let x = ref e.dirty.(w) in
    e.dirty.(w) <- 0;
    while !x <> 0 do
      let low = !x land - !x in
      refresh e ((w lsl 5) + Cpuset.ctz low);
      x := !x lxor low
    done
  done;
  update_window e

(* Delayed interrupt delivery: defer a deliverable cpu to its
   alternative action for this step when it has one.  Never suppress
   the only possible action -- that would turn a live machine into a
   false sleep-deadlock report.  One chaos draw per deliverable
   candidate with an alternative, in ascending cpu order; the override
   lasts one step, since marking the cpu dirty restores its delivery at
   the next refresh. *)
let delay_interrupts e =
  let odds = e.cfg.faults.delay_interrupt in
  if odds > 0 then begin
    let i = ref (Cpuset.next e.cand_set 0) in
    while !i >= 0 do
      let c = e.cpus.(!i) in
      let busy = match c.frames with _ :: _ -> true | [] -> false in
      if e.act.(!i) = 1 && (busy || dispatchable e c) && chaos_hit e odds
      then begin
        e.ch.c_delayed_intr <- e.ch.c_delayed_intr + 1;
        e.act.(!i) <- (if busy then 2 else 3);
        Cpuset.add e.dirty !i
      end;
      i := Cpuset.next e.cand_set (!i + 1)
    done
  end

(* Choose a candidate cpu.  Every policy draws exactly as a scan over
   the cpus in ascending order would: the r-th candidate (Random, and a
   chaos-perturbed pick), the first candidate at or after [rr_next]
   (Round_robin), the r-th near cpu (Timed). *)
let[@inline] random_pick e rng =
  Cpuset.select e.cand_set (Sim_rng.int rng e.ncand)

let[@inline] timed_pick e = e.near.(Sim_rng.int e.rng e.nnear)

let rr_pick e =
  let idx =
    match Cpuset.next e.cand_set e.rr_next with
    | -1 -> Cpuset.next e.cand_set 0
    | idx -> idx
  in
  e.rr_next <- (idx + 1) mod Array.length e.cpus;
  idx

let pick_cpu e =
  if e.faults_on && chaos_hit e e.cfg.faults.perturb_pick then begin
    (* Perturbed pick: override the policy with a uniform draw from the
       chaos RNG — adversarial scheduling noise under any policy. *)
    e.ch.c_perturbed <- e.ch.c_perturbed + 1;
    random_pick e e.crng
  end
  else
    match e.cfg.policy with
    | Sim_config.Random_policy -> random_pick e e.rng
    | Sim_config.Round_robin -> rr_pick e
    | Sim_config.Timed -> timed_pick e

(* Count a step whose pick comes next. *)
let[@inline] count_step e = e.st.m_steps <- e.st.m_steps + 1

(* Record pick [i] for the window update after its step. *)
let[@inline] record_pick e i =
  let c = e.cpus.(i) in
  e.last_pick <- i;
  e.pick_clock <- c.clock;
  c

(* Deliver chaos-delayed wakeups whose due step has arrived ([force]
   delivers everything: used when the machine would otherwise be declared
   sleep-deadlocked while deliveries are still owed). *)
let deliver_delayed e ~force =
  match e.delayed with
  | [] -> ()
  | l ->
      let due, future =
        if force then (l, [])
        else List.partition (fun (d, _) -> d <= e.st.m_steps) l
      in
      e.delayed <- future;
      List.iter (fun (_, t) -> unpark_now e t) due;
      (* A wakeup of a thread that has died since produces nothing, so
         the marks of the epoch may already be a verdict. *)
      if future = [] && hung e then hang e

(* Spurious wakeup: unpark a chaos-chosen parked thread.  Correct wait
   loops re-check their predicate and re-park; protocols that treat a
   wakeup as proof of their condition break — exactly the discipline the
   event-wait protocol of section 6 demands. *)
let maybe_spurious e =
  if chaos_hit e e.cfg.faults.spurious_wakeup then begin
    let parked = List.filter (fun t -> t.state = Parked) e.threads in
    match parked with
    | [] -> ()
    | l ->
        let t = List.nth l (Sim_rng.int e.crng (List.length l)) in
        e.ch.c_spurious <- e.ch.c_spurious + 1;
        if e.cfg.trace then
          trace_e e
            (Obs_event.Chaos_inject
               { kind = "spurious-wakeup"; victim = t.tname });
        unpark_now e t
  end

(* The first exits of every step: the step limit and the backstop. *)
let[@inline] check_limits e limit =
  if e.st.m_steps >= limit then raise Step_limit;
  if e.st.m_steps - e.prod_step > backstop_steps then hang ~stalled:true e

(* Record pick [i] of a step in a run of wait iterations, and run its
   iteration when its cpu waits: true when the wait goes on. *)
let[@inline] wait_pick e i =
  let c = record_pick e i in
  e.act.(i) = 4 && wait_step e c c.cwait

(* A run of wait iterations, after a step that was one, with faults off.
   Such a step moved no frame, spl, pending mask or queue, so the next
   step needs only three parts of the prologue: the step limit and the
   backstop, at the same step as [sched_loop] would check them, and the
   Timed window for the previous pick, with candidacy unchanged since
   the refresh before the run.  Each step then counts, draws and, while
   the picked cpu waits, runs its iteration ([wait_step], inlined).  The
   policy is matched once per run, not per step.  The run ends at the
   step limit, at the backstop, at a hang ([mark]), or at the first pick
   that is not a continuing wait iteration: it returns that pick, drawn
   and counted, either a wait that ended (its fiber has run) or another
   action for [sched_loop] to run. *)
let wait_run e limit =
  let waiting = ref true in
  (match e.cfg.policy with
  | Sim_config.Timed ->
      while !waiting do
        check_limits e limit;
        slide_window e e.last_pick;
        count_step e;
        waiting := wait_pick e (timed_pick e)
      done
  | Sim_config.Random_policy ->
      while !waiting do
        check_limits e limit;
        count_step e;
        waiting := wait_pick e (random_pick e e.rng)
      done
  | Sim_config.Round_robin ->
      while !waiting do
        check_limits e limit;
        count_step e;
        waiting := wait_pick e (rr_pick e)
      done);
  e.last_pick

(* One step of the seeded scheduler is the prologue ([loop]: the end
   of the run, the step limit and the backstop, the fault hooks,
   [update_candidates], a deadlock) and then the pick and the action
   ([step]).  After a step that was one more wait iteration, with
   faults off, [wait_run] takes the steps up to the next that is not. *)
let sched_loop e =
  let limit = Option.value e.cfg.max_steps ~default:max_int in
  let rec loop () =
    if e.live = 0 then mkstats e
    else begin
      check_limits e limit;
      if e.faults_on then begin
        deliver_delayed e ~force:false;
        maybe_spurious e
      end;
      update_candidates e;
      if e.ncand = 0 then
        if e.faults_on && e.delayed <> [] then begin
          (* Not a deadlock yet: delayed wakeups are still owed.  Flush
             them all rather than report a machine the injector itself
             stalled. *)
          deliver_delayed e ~force:true;
          loop ()
        end
        else hang e
      else begin
        if e.faults_on then delay_interrupts e;
        count_step e;
        let idx = pick_cpu e in
        step idx (record_pick e idx)
      end
    end
  (* The action of pick [idx], counted, drawn and recorded. *)
  and step idx c =
    let waiting =
      match e.act.(idx) with
      | 4 -> wait_step e c c.cwait
      | 1 ->
          deliver e c;
          false
      | 2 -> resume e c
      | _ ->
          dispatch e c;
          false
    in
    if not waiting then begin
      Cpuset.add e.dirty idx;
      loop ()
    end
    else if e.faults_on then loop ()
    else
      let idx = wait_run e limit in
      (* The run's last pick.  A wait that ended leaves its cpu's action
         "wait" until the refresh, and is marked like any other finished
         step; any other action runs here, without a second draw. *)
      if e.act.(idx) = 4 then begin
        Cpuset.add e.dirty idx;
        loop ()
      end
      else step idx e.cpus.(idx)
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The model-checking scheduler                                         *)
(* ------------------------------------------------------------------ *)

(* Enumerate every transition the engine itself could take this step,
   in deterministic order (ascending cpu; within a cpu, ascending FIFO
   slot / global enqueue order):

     - a deliverable cpu *must* deliver (same forced-delivery semantics
       as the seeded scheduler), but any FIFO slot within the highest
       deliverable level is a genuine hardware race, so each is its own
       transition;
     - a busy cpu resumes its top frame -- unless the hang rule marked
       it ([spin_mark]): re-running the wait loop under unchanged shared
       state would stutter, so the transition is suppressed.  This keeps
       spin loops from exploding the search space, and makes livelock
       detection exact.  A marked budgeted wait with checks left offers
       its expiry instead: its checks could only fail again until
       another cpu produces, so the two outcomes, the write first or the
       budget spent first, cover every behaviour;
     - an idle cpu may dispatch any eligible queued thread (the seeded
       scheduler always takes the FIFO head; the run-queue pick is a
       scheduling freedom mc explores).
   A replayed step needs only their number, [moves]. *)
let mc_enabled e n =
  let trans =
    Array.make n
      { Sim_config.mc_cpu = -1; mc_what = Sim_config.Mc_resume { frame = "" } }
  in
  let k = ref 0 in
  let add mc_cpu mc_what =
    trans.(!k) <- { Sim_config.mc_cpu; mc_what };
    incr k
  in
  Array.iter
    (fun c ->
      if deliverable c then begin
        let q = c.pend.(deliverable_rank c) in
        for slot = 0 to q.Tq.len - 1 do
          let i = Tq.get q slot in
          add c.idx
            (Sim_config.Mc_deliver
               { slot; intr = i.iname; level = Spl.to_string i.ilevel })
        done
      end
      else
        match c.frames with
        | f :: _ ->
            if c.spin_mark <> e.prod_ctr then
              add c.idx (Sim_config.Mc_resume { frame = frame_name f })
            else if expirable c then
              add c.idx (Sim_config.Mc_expire { frame = frame_name f })
        | [] ->
            let a = e.anyq and b = e.boundq.(c.idx) in
            let i = ref 0 and j = ref 0 in
            while !i < a.Tq.len || !j < b.Tq.len do
              let from_a =
                !j >= b.Tq.len
                || !i < a.Tq.len
                   && (Tq.get a !i).enq_seq < (Tq.get b !j).enq_seq
              in
              let t = if from_a then Tq.get a !i else Tq.get b !j in
              if from_a then incr i else incr j;
              add c.idx
                (Sim_config.Mc_dispatch { thread = t.tname; tseq = t.tseq })
            done)
    e.cpus;
  trans

let mc_execute e (tr : Sim_config.mc_transition) =
  let c = e.cpus.(tr.mc_cpu) in
  match tr.mc_what with
  | Sim_config.Mc_resume _ -> ignore (resume e c)
  | Sim_config.Mc_expire _ ->
      (match frame_wait (List.hd c.frames) with
      | Until u ->
          (* The pauses its remaining checks would make; the step that
             ends the wait runs the frame on. *)
          c.clock <- c.clock + (u.left * Sim_config.pause_cost);
          e.st.m_spin_pauses <- e.st.m_spin_pauses + u.left;
          u.pauses <- u.pauses + u.left;
          u.left <- 0
      | Await _ | No_wait -> fatal "mc: expiry of an unbudgeted wait");
      (* The frame leaves the wait, and the cpu its mark. *)
      c.spin_mark <- -1;
      ignore (resume e c)
  | Sim_config.Mc_deliver { slot; _ } ->
      let r = deliverable_rank c in
      if slot < 0 || slot >= c.pend.(r).Tq.len then
        fatal "mc: deliver slot out of range";
      deliver_intr e c r (Tq.remove c.pend.(r) slot)
  | Sim_config.Mc_dispatch { tseq; _ } ->
      let take q =
        let found = ref (-1) in
        for i = 0 to q.Tq.len - 1 do
          if !found < 0 && (Tq.get q i).tseq = tseq then found := i
        done;
        if !found < 0 then None else Some (Tq.remove q !found)
      in
      let t =
        match take e.anyq with
        | Some t -> t
        | None -> (
            match take e.boundq.(c.idx) with
            | Some t -> t
            | None -> fatal "mc: dispatch of a thread that is not queued")
      in
      dispatch_thread e c t

let mc_sched_loop e (hooks : Sim_config.mc_hooks) =
  let rec loop () =
    if e.live = 0 then mkstats e
    else begin
      (match e.cfg.max_steps with
      | Some limit when e.st.m_steps >= limit -> raise Step_limit
      | _ -> ());
      let n = moves e in
      if n = 0 then hang e
      else begin
        e.st.m_steps <- e.st.m_steps + 1;
        (* A replayed step re-executes its recorded choice and nothing
           more: the driver already holds its candidates and footprint. *)
        (match hooks.mc_replay n with
        | Some tr -> mc_execute e tr
        | None ->
            let trans = mc_enabled e n in
            let k = hooks.mc_choose trans in
            if k < 0 || k >= n then fatal "mc_choose: index out of range";
            e.noting <- true;
            mc_execute e trans.(k);
            e.noting <- false;
            hooks.mc_commit e.fp;
            e.fp <- []);
        loop ()
      end
    end
  in
  loop ()

let dummy_intr =
  {
    iname = "(none)";
    ilevel = Spl.Spl0;
    ihandler = None;
    icont = None;
    isaved_spl = Spl.Spl0;
    ihint = None;
    iwait = No_wait;
  }

(* Events a traced run keeps, over all cpus' rings together. *)
let trace_capacity = 65_536

(* ------------------------------------------------------------------ *)
(* Ending a run                                                         *)
(* ------------------------------------------------------------------ *)

(* A run can end, by any path, with fibers still suspended: parked or
   queued threads, frames at a preemption point or in an engine-run
   wait, interrupt handlers nested above them.  OCaml 5 never frees the
   stack of a continuation that is dropped, so [unwind] discontinues
   each one with [Unwind] once the engine is uninstalled: the fiber's
   handlers and [finally] blocks run, its handler in [run_fiber] ends it
   quietly, and its stack goes back to the runtime.  Every machine
   operation raises [Unwind] meanwhile ([no_engine]), so nothing the run
   has reported can change. *)
let unwind e =
  let discontinue = function
    | Some k -> Effect.Deep.discontinue k Unwind
    | None -> ()
  in
  (* No current frame is how [run_fiber] knows an unwound fiber; a run
     that ended in a fiber's panic left one set. *)
  e.cur <- None;
  Domain.DLS.set unwinding_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set unwinding_key false)
  @@ fun () ->
  Array.iter
    (fun c ->
      List.iter
        (function
          | Fintr i ->
              let k = i.icont in
              i.icont <- None;
              discontinue k
          | Fthread _ -> ())
        c.frames)
    e.cpus;
  List.iter
    (fun t ->
      let k = t.cont in
      t.cont <- None;
      discontinue k)
    e.threads

let run ?(cfg = Sim_config.default) main =
  if the_engine () <> None then
    invalid_arg "Sim_engine.run: a simulation is already running";
  if cfg.cpus < 1 || cfg.cpus > max_cpus then
    invalid_arg "Sim_engine.run: cpu count out of range";
  if cfg.mc <> None && Sim_config.faults_active cfg.faults then
    invalid_arg
      "Sim_engine.run: model checking and fault injection are mutually \
       exclusive";
  let qdummy = make_thread "(none)" in
  let e =
    {
      cfg;
      rng = Sim_rng.make cfg.seed;
      crng =
        Sim_rng.make
          (if cfg.faults.fault_seed <> 0 then cfg.faults.fault_seed
           else cfg.seed lxor 0x6368616f);
      faults_on = Sim_config.faults_active cfg.faults;
      ch =
        {
          c_dropped = 0;
          c_delayed = 0;
          c_spurious = 0;
          c_delayed_intr = 0;
          c_perturbed = 0;
          c_preempted = 0;
          c_handoff = 0;
        };
      delayed = [];
      cpus =
        Array.init cfg.cpus (fun idx ->
            {
              idx;
              clock = 0;
              spl = Spl.Spl0;
              frames = [];
              pend = Array.init n_spl (fun _ -> Tq.make dummy_intr);
              pend_mask = 0;
              pend_count = 0;
              anchor = -1;
              read = -1;
              spin_mark = -1;
              here = None;
              cwait = No_wait;
            });
      anyq = Tq.make qdummy;
      boundq = Array.init cfg.cpus (fun _ -> Tq.make qdummy);
      limbo = Tq.make qdummy;
      enq_ctr = 0;
      threads = [];
      live = 0;
      prod_step = 0;
      bus_free_at = 0;
      trace =
        (if cfg.trace then
           Some (Sim_trace.make ~cpus:cfg.cpus ~capacity:trace_capacity ())
         else None);
      st =
        {
          m_steps = 0;
          m_bus = 0;
          m_misses = 0;
          m_atomics = 0;
          m_intrs = 0;
          m_switches = 0;
          m_spawned = 0;
          m_parks = 0;
          m_unparks = 0;
          m_spin_pauses = 0;
        };
      cur = None;
      rr_next = 0;
      name_ctr = 0;
      idle_identity =
        Array.init cfg.cpus (fun i -> make_thread idle_names.(i));
      act = Array.make cfg.cpus 0;
      cand_set = Cpuset.make cfg.cpus;
      ncand = 0;
      (* Every cpu starts idle and unrefreshed. *)
      idle_set = Cpuset.full cfg.cpus;
      dirty = Cpuset.full cfg.cpus;
      anyq_seen = false;
      near = Array.make cfg.cpus 0;
      nnear = 0;
      tmin = 0;
      tout = max_int;
      near_stale = true;
      last_pick = -1;
      pick_clock = 0;
      mc = cfg.mc;
      mc_on = cfg.mc <> None;
      noting = false;
      fp = [];
      prod_ctr = 0;
      cell_ctr = 0;
      ended = At_op;
      marked = 0;
      mark_epoch = -1;
      in_ready = false;
    }
  in
  Domain.DLS.set engine_key (Some e);
  (* Start from a clean slate: per-run domain-local state (event queues,
     span tables) from an earlier run in this domain must not leak in,
     even if that run tore down abnormally.  The external identity
     outlives runs, so its context is cleared at both ends. *)
  let external_context = context (Domain.DLS.get external_identity_key) in
  Thread_ctx.clear external_context;
  Run_reset.run ();
  Domain.DLS.set last_analysis_key None;
  (* Every simulated run records wait edges for the deadlock detector;
     native machines, which run no detector, never turn this on. *)
  Waits_for.set_tracking true;
  (* Core layers (locks, events, refcounts) emit typed events through the
     domain's [Obs_trace] sink without knowing about the engine; a traced
     run routes them into its trace. *)
  if cfg.trace then Obs_trace.set_sink (Some trace);
  Obs_span.set_enabled cfg.spans;
  let finish () =
    Domain.DLS.set last_trace_key
      (Option.fold ~none:[] ~some:Sim_trace.events e.trace);
    Domain.DLS.set last_drops_key (Option.map Sim_trace.drop_stats e.trace);
    (* Freeze the span aggregates for post-run reporting (machsim
       report, bench E18) before Run_reset wipes the live tables. *)
    Obs_span.latch
      ~open_spans:
        (if cfg.spans then
           List.fold_left (fun n (_, l) -> n + List.length l) 0 (open_spans e)
         else 0);
    Obs_span.set_enabled false;
    Domain.DLS.set last_chaos_key
      (Some
         {
           dropped_wakeups = e.ch.c_dropped;
           delayed_wakeups = e.ch.c_delayed;
           spurious_wakeups = e.ch.c_spurious;
           delayed_interrupts = e.ch.c_delayed_intr;
           perturbed_picks = e.ch.c_perturbed;
           forced_preemptions = e.ch.c_preempted;
           dropped_handoffs = e.ch.c_handoff;
         });
    Obs_trace.set_sink None;
    Waits_for.set_tracking false;
    (* Engine teardown hook: clears per-run domain-local state so
       nothing leaks into the next run (or the next Sim_explore seed in
       this domain). *)
    Thread_ctx.clear external_context;
    Run_reset.run ();
    Domain.DLS.set engine_key None;
    unwind e
  in
  match
    ignore (spawn ~name:"main" main);
    match e.mc with Some hooks -> mc_sched_loop e hooks | None -> sched_loop e
  with
  | stats ->
      Domain.DLS.set last_stats_key (Some stats);
      finish ();
      stats
  | exception exn ->
      Domain.DLS.set last_stats_key (Some (mkstats e));
      finish ();
      raise exn

type outcome =
  | Completed of stats
  | Deadlocked of deadlock_kind * string
  | Panicked of string
  | Hit_step_limit

let run_outcome ?cfg main =
  match run ?cfg main with
  | stats -> Completed stats
  | exception Deadlock (k, r) -> Deadlocked (k, r)
  | exception Kernel_panic msg -> Panicked msg
  | exception Step_limit -> Hit_step_limit

let trace_events () =
  match the_engine () with
  | Some e -> Option.fold ~none:[] ~some:Sim_trace.events e.trace
  | None -> Domain.DLS.get last_trace_key

let trace_drop_stats () =
  match the_engine () with
  | Some e -> Option.map Sim_trace.drop_stats e.trace
  | None -> Domain.DLS.get last_drops_key

let last_stats () = Domain.DLS.get last_stats_key
let last_chaos () = Domain.DLS.get last_chaos_key
let last_analysis () = Domain.DLS.get last_analysis_key
