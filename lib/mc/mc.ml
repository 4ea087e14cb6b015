module C = Mach_sim.Sim_config
module E = Mach_sim.Sim_engine

type mode = Naive | Dpor

let mode_name = function Naive -> "naive" | Dpor -> "dpor"

let mode_of_string = function
  | "naive" -> Some Naive
  | "dpor" -> Some Dpor
  | _ -> None

type trace = C.mc_transition array

(* ------------------------------------------------------------------ *)
(* Trace text format                                                    *)
(* ------------------------------------------------------------------ *)

(* One transition per line.  The human-readable name (interrupt, frame or
   thread) comes last and may contain spaces; replay matches on the
   structural fields (cpu, slot, tseq), never on names. *)
let pp_transition ppf (t : C.mc_transition) =
  match t.mc_what with
  | C.Mc_deliver { slot; intr; level } ->
      Format.fprintf ppf "c%d deliver slot=%d level=%s %s" t.mc_cpu slot level
        intr
  | C.Mc_resume { frame } -> Format.fprintf ppf "c%d resume %s" t.mc_cpu frame
  | C.Mc_dispatch { thread; tseq } ->
      Format.fprintf ppf "c%d dispatch tseq=%d %s" t.mc_cpu tseq thread

let trace_to_string (tr : trace) =
  let b = Buffer.create 256 in
  Array.iter
    (fun t -> Buffer.add_string b (Format.asprintf "%a@." pp_transition t))
    tr;
  Buffer.contents b

let trace_of_string s =
  let parse_line ln lineno =
    let fail what =
      Error (Printf.sprintf "trace line %d: %s: %S" lineno what ln)
    in
    match String.split_on_char ' ' ln with
    | cpu :: "deliver" :: slot :: level :: rest
      when String.length cpu > 1 && cpu.[0] = 'c' -> (
        match
          ( int_of_string_opt (String.sub cpu 1 (String.length cpu - 1)),
            String.split_on_char '=' slot,
            String.split_on_char '=' level )
        with
        | Some mc_cpu, [ "slot"; s ], [ "level"; l ] -> (
            match int_of_string_opt s with
            | Some slot ->
                Ok
                  {
                    C.mc_cpu;
                    mc_what =
                      C.Mc_deliver
                        { slot; intr = String.concat " " rest; level = l };
                  }
            | None -> fail "bad slot")
        | _ -> fail "bad deliver line")
    | cpu :: "resume" :: rest when String.length cpu > 1 && cpu.[0] = 'c' -> (
        match int_of_string_opt (String.sub cpu 1 (String.length cpu - 1)) with
        | Some mc_cpu ->
            Ok
              {
                C.mc_cpu;
                mc_what = C.Mc_resume { frame = String.concat " " rest };
              }
        | None -> fail "bad cpu")
    | cpu :: "dispatch" :: tseq :: rest
      when String.length cpu > 1 && cpu.[0] = 'c' -> (
        match
          ( int_of_string_opt (String.sub cpu 1 (String.length cpu - 1)),
            String.split_on_char '=' tseq )
        with
        | Some mc_cpu, [ "tseq"; n ] -> (
            match int_of_string_opt n with
            | Some tseq ->
                Ok
                  {
                    C.mc_cpu;
                    mc_what =
                      C.Mc_dispatch { thread = String.concat " " rest; tseq };
                  }
            | None -> fail "bad tseq")
        | _ -> fail "bad dispatch line")
    | _ -> fail "unrecognized transition"
  in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filteri (fun _ ln -> ln <> "" && ln.[0] <> '#')
  in
  let rec go acc lineno = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | ln :: rest -> (
        match parse_line ln lineno with
        | Ok t -> go (t :: acc) (lineno + 1) rest
        | Error _ as e -> e)
  in
  go [] 1 lines

(* ------------------------------------------------------------------ *)
(* Dependence                                                           *)
(* ------------------------------------------------------------------ *)

(* Two accesses conflict when reordering the slices that made them could
   change an outcome: same cell with a write on either side, the same
   thread's scheduling state, the shared run-queue order, or the same
   cpu's interrupt plumbing (a pending-queue access and an spl change on
   one cpu conflict with each other: spl gates delivery).

   A footprint is encoded once, at commit, as a sorted array of distinct
   codes [(key lsl 1) lor write].  The key names the resource: a cell, a
   thread, the run queue, or one cpu's interrupt plumbing (its intrq and
   spl accesses share the key, so they conflict with each other).
   Non-cell accesses count as writes, and a key touched both ways keeps
   only its write, which conflicts with everything a read does.  Two
   footprints then conflict iff a merge walk finds a shared key with a
   write on either side. *)
type footprint = int array

let key_of = function
  | C.Mc_cell { cell; _ } -> cell lsl 2
  | C.Mc_thread t -> (t lsl 2) lor 1
  | C.Mc_runq -> 2
  | C.Mc_intrq c | C.Mc_spl c -> (c lsl 2) lor 3

let code_of a =
  let write = match a with C.Mc_cell { write; _ } -> write | _ -> true in
  (key_of a lsl 1) lor Bool.to_int write

let encode_footprint accesses : footprint =
  let a = Array.of_list (List.map code_of accesses) in
  Array.sort Int.compare a;
  (* Keep the last code of each key run: its write, if it has one. *)
  let n = Array.length a in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if i = n - 1 || a.(i + 1) asr 1 <> a.(i) asr 1 then begin
      a.(!k) <- a.(i);
      incr k
    end
  done;
  if !k = n then a else Array.sub a 0 !k

let footprint_conflict (f1 : footprint) (f2 : footprint) =
  let n1 = Array.length f1 and n2 = Array.length f2 in
  let rec walk i j =
    i < n1 && j < n2
    &&
    let k1 = f1.(i) asr 1 and k2 = f2.(j) asr 1 in
    if k1 < k2 then walk (i + 1) j
    else if k1 > k2 then walk i (j + 1)
    else (f1.(i) lor f2.(j)) land 1 = 1 || walk (i + 1) (j + 1)
  in
  walk 0 0

(* One word summarizing a footprint's keys: bit [key mod 63] for each.
   Footprints that conflict share a key, so their signatures intersect;
   the race scan runs the merge walk only where they do. *)
let signature (f : footprint) =
  let sg = ref 0 in
  for i = 0 to Array.length f - 1 do
    sg := !sg lor (1 lsl ((f.(i) asr 1 land max_int) mod 63))
  done;
  !sg

(* Transitions on the same cpu are always dependent (program order). *)
let dependent (t1 : C.mc_transition) fp1 (t2 : C.mc_transition) fp2 =
  t1.mc_cpu = t2.mc_cpu || footprint_conflict fp1 fp2

let same_transition (a : C.mc_transition) (b : C.mc_transition) =
  a.mc_cpu = b.mc_cpu
  &&
  match (a.mc_what, b.mc_what) with
  | C.Mc_deliver x, C.Mc_deliver y -> x.slot = y.slot
  | C.Mc_resume _, C.Mc_resume _ -> true
  | C.Mc_dispatch x, C.Mc_dispatch y -> x.tseq = y.tseq
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The DFS over choice prefixes                                         *)
(* ------------------------------------------------------------------ *)

(* One decision point on the current path.  The search is stateless in
   the Verisoft sense: only the path's nodes are retained, and switching
   a node's [chosen] branch re-executes the scenario from scratch,
   replaying the prefix by stored choice. *)
type node = {
  cands : C.mc_transition array;  (* enabled transitions, engine order *)
  costs : int array;  (* preemption cost of picking each candidate *)
  budget : int;  (* preemption budget on entry to this node *)
  locked : bool;  (* prefix frozen by the domain fan-out: never backtrack *)
  explored : bool array;
  backtrack : bool array;  (* Dpor: candidates scheduled for exploration *)
  mutable sleep : (C.mc_transition * footprint) list;
  mutable chosen : int;
  mutable fp : footprint;  (* footprint of [chosen], set at commit *)
  mutable sg : int;  (* [signature fp] *)
  mutable pid : int;  (* interned process of [chosen], set at commit *)
  mutable vc : int array;
      (* vector clock after [chosen], indexed by interned process: the
         latest happens-before depth, -1 for none (Dpor mode only) *)
}

type failure = {
  f_trace : trace;
  f_kind : E.deadlock_kind option;
  f_report : string;
  f_preemptions : int;
}

type stats = {
  executions : int;
  pruned : int;
  transitions : int;
  choice_points : int;
  max_depth : int;
  truncated : int;
}

type result = {
  mode : mode;
  bound : int option;
  complete : bool;
  verified : bool;
  failure : failure option;
  stats : stats;
}

exception Cut
(* Every selectable candidate at a fresh node is asleep: this execution
   only commutes independent transitions of an already-explored one. *)

exception Diverged of string

type search = {
  s_mode : mode;
  s_bound : int;  (* max_int = unbounded *)
  s_cpus : int;
  mutable stack_arr : node array;  (* depth order; capacity >= stack_len *)
  mutable stack_len : int;  (* retained path length *)
  mutable depth : int;  (* current execution's depth *)
  mutable replayed : int;
      (* depths below this replay a prefix unchanged since its nodes were
         committed: same footprints, clocks and backtrack marks *)
  mutable pending_sleep : (C.mc_transition * footprint) list;
  procs : (string, int) Hashtbl.t;  (* process name -> interned id *)
  mutable st_executions : int;
  mutable st_pruned : int;
  mutable st_transitions : int;
  mutable st_choice_points : int;
  mutable st_max_depth : int;
  mutable st_truncated : int;
}

let push_node s node =
  if Array.length s.stack_arr = s.stack_len then begin
    let cap = max 64 (2 * s.stack_len) in
    let a = Array.make cap node in
    Array.blit s.stack_arr 0 a 0 s.stack_len;
    s.stack_arr <- a
  end;
  s.stack_arr.(s.stack_len) <- node;
  s.stack_len <- s.stack_len + 1

let trace_of_stack s =
  Array.map (fun n -> n.cands.(n.chosen)) (Array.sub s.stack_arr 0 s.depth)

let preemptions_of s tr_len =
  let p = ref 0 in
  for d = 0 to tr_len - 1 do
    let n = s.stack_arr.(d) in
    p := !p + n.costs.(n.chosen)
  done;
  !p

(* A candidate costs one unit of preemption budget iff taking it switches
   away from the previously-running cpu while that cpu could still run.
   There is always a zero-cost candidate: if the previous cpu is enabled,
   its own candidate costs zero; if it is not, nothing is preemptive. *)
let candidate_costs prev_cpu (cands : C.mc_transition array) =
  let prev_enabled =
    prev_cpu >= 0 && Array.exists (fun t -> t.C.mc_cpu = prev_cpu) cands
  in
  Array.map
    (fun t -> if prev_enabled && t.C.mc_cpu <> prev_cpu then 1 else 0)
    cands

let sleeping node i =
  List.exists (fun (t, _) -> same_transition t node.cands.(i)) node.sleep

let selectable node i =
  node.costs.(i) <= node.budget && not (sleeping node i)

(* A candidate the backtracking pass may still switch to. *)
let next_candidate s node =
  let n = Array.length node.cands in
  let ok = ref None in
  for i = 0 to n - 1 do
    if
      !ok = None && i <> node.chosen
      && (not node.explored.(i))
      && selectable node i
      && (s.s_mode <> Dpor || node.backtrack.(i))
    then ok := Some i
  done;
  !ok

(* The process a transition belongs to, for happens-before purposes.  A
   thread is one process across dispatches, resumes and migrations (its
   name is unique per run); an interrupt frame never migrates, so its
   delivery and its handler slices are keyed by name plus cpu — which
   also separates same-named interrupt instances aimed at different
   cpus.  Crucially this is *not* the cpu: which cpu a transition lands
   on is itself a scheduling choice, so two processes serialized onto
   one cpu are still unordered for race detection. *)
let proc_of (t : C.mc_transition) =
  match t.C.mc_what with
  | C.Mc_dispatch { thread; _ } -> thread
  | C.Mc_resume { frame } ->
      if String.length frame >= 5 && String.sub frame 0 5 = "intr:" then
        Printf.sprintf "%s@%d" frame t.C.mc_cpu
      else frame
  | C.Mc_deliver { intr; _ } -> Printf.sprintf "intr:%s@%d" intr t.C.mc_cpu

(* Process ids are interned once per search, so vector clocks are int
   arrays.  An older node's clock may be shorter than the current process
   count: processes first seen after it read as -1. *)
let intern s name =
  match Hashtbl.find_opt s.procs name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length s.procs in
      Hashtbl.add s.procs name id;
      id

let vc_get r p = if p < Array.length r then r.(p) else -1

(* DPOR backward race scan, run when transition [d] commits.  [r] is the
   running vector-clock join of the transitions that happen-before [d]
   (program order within a process, plus footprint conflicts); an
   earlier conflicting transition of another process not already ordered
   before [d] (r(its process) < its depth) is a race, and its node must
   also explore alternatives.  Because the alternative that reverses the
   race is not directly identifiable from the candidate list, we add
   every budget-eligible candidate at the racing node (a sound,
   conservative superset of the classic "the racing thread or all"
   rule).  A node whose process [r] already orders at or after it
   (r(its process) >= its depth) is skipped before any footprint test:
   it cannot race, and its clock is already below [r], so the join
   would change nothing. *)
let dpor_commit s node d =
  let p = intern s (proc_of node.cands.(node.chosen)) in
  node.pid <- p;
  let r = Array.make (Hashtbl.length s.procs) (-1) in
  for d' = d - 1 downto 0 do
    let n' = s.stack_arr.(d') in
    let p' = n'.pid in
    if
      vc_get r p' < d'
      && (p' = p
         || (n'.sg land node.sg <> 0 && footprint_conflict n'.fp node.fp))
    then begin
      if p' <> p then
        for i = 0 to Array.length n'.cands - 1 do
          if n'.costs.(i) <= n'.budget then n'.backtrack.(i) <- true
        done;
      let vc = n'.vc in
      for q = 0 to Array.length vc - 1 do
        if vc.(q) > r.(q) then r.(q) <- vc.(q)
      done
    end
  done;
  r.(p) <- d;
  node.vc <- r

(* The run offered [n] transitions at retained depth [d] ([got] lists
   them when the step enumerated them), not the recorded node's number. *)
let diverged s d n got =
  let show a =
    String.concat " | "
      (Array.to_list
         (Array.map (fun t -> Format.asprintf "%a" pp_transition t) a))
  in
  let node = s.stack_arr.(d) in
  raise
    (Diverged
       (Printf.sprintf "depth %d: %d candidates%s, expected %d [%s]; prefix: %s"
          d n
          (match got with Some a -> " [" ^ show a ^ "]" | None -> "")
          (Array.length node.cands) (show node.cands)
          (show (trace_of_stack { s with depth = d }))))

(* The hooks driving one execution.  Depths below [s.replayed] replay
   the stored choice without enumerating or committing; the switched
   node at [s.replayed] takes its new choice and commits afresh; beyond
   the retained stack, fresh nodes pick the cheapest (least-preemptive,
   lowest-index) selectable candidate. *)
let hooks_of s ~forced =
  let replay n =
    let d = s.depth in
    if d >= s.replayed then None
    else begin
      let node = s.stack_arr.(d) in
      if Array.length node.cands <> n then diverged s d n None;
      s.depth <- d + 1;
      s.st_transitions <- s.st_transitions + 1;
      Some node.cands.(node.chosen)
    end
  in
  let choose (cands : C.mc_transition array) =
    let d = s.depth in
    if d < s.stack_len then begin
      let node = s.stack_arr.(d) in
      if Array.length node.cands <> Array.length cands then
        diverged s d (Array.length cands) (Some cands);
      s.depth <- d + 1;
      node.chosen
    end
    else begin
      let prev_cpu =
        if d = 0 then -1
        else
          let p = s.stack_arr.(d - 1) in
          p.cands.(p.chosen).C.mc_cpu
      in
      let costs = candidate_costs prev_cpu cands in
      let budget =
        if d = 0 then s.s_bound
        else
          let p = s.stack_arr.(d - 1) in
          p.budget - p.costs.(p.chosen)
      in
      let node =
        {
          cands;
          costs;
          budget;
          locked = d < Array.length forced;
          explored = Array.make (Array.length cands) false;
          backtrack = Array.make (Array.length cands) false;
          sleep = s.pending_sleep;
          chosen = -1;
          fp = [||];
          sg = 0;
          pid = -1;
          vc = [||];
        }
      in
      let chosen =
        if d < Array.length forced then begin
          (* Domain fan-out: this depth's choice is frozen. *)
          let want = forced.(d) in
          let k = ref (-1) in
          Array.iteri
            (fun i t -> if !k < 0 && same_transition t want then k := i)
            cands;
          if !k < 0 then
            raise (Diverged (Printf.sprintf "depth %d: forced choice absent" d));
          !k
        end
        else begin
          let best = ref (-1) in
          let nsel = ref 0 in
          Array.iteri
            (fun i _ ->
              if selectable node i then begin
                incr nsel;
                if
                  !best < 0
                  || costs.(i) < costs.(!best)
                then best := i
              end)
            cands;
          if !nsel >= 2 then s.st_choice_points <- s.st_choice_points + 1;
          if !best < 0 then raise Cut;
          !best
        end
      in
      node.chosen <- chosen;
      node.backtrack.(chosen) <- true;
      push_node s node;
      s.depth <- d + 1;
      chosen
    end
  in
  let commit accesses =
    let d = s.depth - 1 in
    let node = s.stack_arr.(d) in
    s.st_transitions <- s.st_transitions + 1;
    if s.s_mode = Dpor then begin
      let fp = encode_footprint accesses in
      node.fp <- fp;
      node.sg <- signature fp;
      dpor_commit s node d;
      s.pending_sleep <-
        List.filter
          (fun (t, tfp) ->
            not (dependent t tfp node.cands.(node.chosen) fp))
          node.sleep
    end
  in
  { C.mc_replay = replay; mc_choose = choose; mc_commit = commit }

(* Deepest node with an unexplored selectable alternative; switching to
   it puts the branch just explored to sleep (it may only be re-woken by
   a dependent transition, which [commit]'s filter implements). *)
let backtrack s =
  let rec go d =
    if d < 0 then false
    else
      let node = s.stack_arr.(d) in
      if node.locked then false
      else
        match next_candidate s node with
        | Some j ->
            node.explored.(node.chosen) <- true;
            if s.s_mode = Dpor then
              node.sleep <- (node.cands.(node.chosen), node.fp) :: node.sleep;
            node.chosen <- j;
            node.fp <- [||];
            s.stack_len <- d + 1;
            s.replayed <- d;
            true
        | None -> go (d - 1)
  in
  go (s.stack_len - 1)

let preemptions (tr : trace) =
  (* Recomputed from the trace alone: a transition is preemptive iff the
     previous transition's cpu differs and still appears later-or-now as
     enabled... the trace does not carry enabled sets, so count cpu
     switches where the previous cpu reappears later in the trace (it
     still had work). *)
  let n = Array.length tr in
  let p = ref 0 in
  for i = 1 to n - 1 do
    let prev = tr.(i - 1).C.mc_cpu and cur = tr.(i).C.mc_cpu in
    if cur <> prev then begin
      let rec reappears j =
        j < n && (tr.(j).C.mc_cpu = prev || reappears (j + 1))
      in
      if reappears i then incr p
    end
  done;
  !p

(* ------------------------------------------------------------------ *)
(* The search driver                                                    *)
(* ------------------------------------------------------------------ *)

let make_cfg ~cpus ~max_steps hooks =
  {
    C.default with
    C.cpus;
    seed = 0;
    max_steps = Some max_steps;
    (* Spans stay on through the whole search: they consume no engine
       randomness and make no scheduling choices, so DPOR's replayed
       prefixes stay bit-identical, and the counterexample report the
       checker returns carries the flight-recorder tail of the failing
       execution. *)
    spans = true;
    mc = Some hooks;
  }

type exec_outcome =
  | X_ok
  | X_fail of E.deadlock_kind option * string
  | X_cut
  | X_truncated

(* Pace the major GC by heap growth, at execution boundaries.  An
   execution promotes a few thousand words, all dead once it ends, yet a
   search can run thousands of executions without the runtime finishing
   a major cycle, and the heap only grows: over ten passes of the
   benchmark's mc-verify matrix in one process (x86-64, OCaml 5.1.1),
   unpaced, it reached 3.4M words and the process 33 MB resident.  So
   once [growth_bound] words have reached the major heap since the last
   collection (promoted, or allocated there directly), the next
   execution boundary runs one full major collection; a whole one,
   because garbage promoted while a cycle is under way survives that
   cycle.  Paced so, ten passes keep the heap at 123k-127k words and the
   process at 9.1 MB, with 64-67 major cycles a pass.  A major slice
   after every execution held 8.9 MB but marked the live heap 7,231
   times a pass: a pass took 0.34 s against 0.23-0.26 s (best of eight
   passes, three alternating processes).  A slice sized to what each
   execution promoted would do nothing at most boundaries: promotion
   happens only at a minor collection, about once per 20 runs.  At
   65,536 words a pass was no faster and the process held 0.3 MB more. *)
let growth_bound = 32_768.

(* [Gc.counters]'s major words include the promoted ones; the counters
   are the domain's own, so the mark is too. *)
let major_words () =
  let _, _, major = Gc.counters () in
  major

let last_collection = Domain.DLS.new_key major_words

let collect_by_growth () =
  let mark = Domain.DLS.get last_collection in
  if major_words () -. mark > growth_bound then begin
    Gc.full_major ();
    Domain.DLS.set last_collection (major_words ())
  end

let run_one s ~cpus ~max_steps ~forced scenario =
  s.depth <- 0;
  s.pending_sleep <- [];
  let hooks = hooks_of s ~forced in
  let cfg = make_cfg ~cpus ~max_steps hooks in
  let out =
    match E.run ~cfg scenario with
    | _ -> X_ok
    | exception Cut -> X_cut
    | exception E.Deadlock (k, r) -> X_fail (Some k, r)
    | exception E.Kernel_panic r -> X_fail (None, r)
    | exception E.Step_limit -> X_truncated
  in
  collect_by_growth ();
  if s.depth > s.st_max_depth then s.st_max_depth <- s.depth;
  (match out with
  | X_cut -> s.st_pruned <- s.st_pruned + 1
  | X_truncated ->
      s.st_truncated <- s.st_truncated + 1;
      s.st_executions <- s.st_executions + 1
  | X_ok | X_fail _ -> s.st_executions <- s.st_executions + 1);
  out

let stats_of s =
  {
    executions = s.st_executions;
    pruned = s.st_pruned;
    transitions = s.st_transitions;
    choice_points = s.st_choice_points;
    max_depth = s.st_max_depth;
    truncated = s.st_truncated;
  }

(* Exhaust one subtree sequentially.  [forced] freezes a choice prefix
   (empty outside the domain fan-out). *)
let search_subtree ~mode ~bound ~cpus ~max_steps ~max_executions ~forced
    scenario =
  let s =
    {
      s_mode = mode;
      s_bound = (match bound with None -> max_int | Some b -> b);
      s_cpus = cpus;
      stack_arr = [||];
      stack_len = 0;
      depth = 0;
      replayed = 0;
      pending_sleep = [];
      procs = Hashtbl.create 16;
      st_executions = 0;
      st_pruned = 0;
      st_transitions = 0;
      st_choice_points = 0;
      st_max_depth = 0;
      st_truncated = 0;
    }
  in
  let failure = ref None in
  let hit_cap = ref false in
  let continue_ = ref true in
  while !continue_ do
    (match run_one s ~cpus ~max_steps ~forced scenario with
    | X_fail (k, report) when !failure = None ->
        let tr = trace_of_stack s in
        failure :=
          Some
            {
              f_trace = tr;
              f_kind = k;
              f_report = report;
              f_preemptions = preemptions_of s (Array.length tr);
            }
    | _ -> ());
    if !failure <> None then continue_ := false
    else if s.st_executions + s.st_pruned >= max_executions then begin
      hit_cap := true;
      continue_ := false
    end
    else continue_ := backtrack s
  done;
  let stats = stats_of s in
  let complete = (not !hit_cap) && stats.truncated = 0 && !failure = None in
  (!failure, stats, complete)

let merge_stats a b =
  {
    executions = a.executions + b.executions;
    pruned = a.pruned + b.pruned;
    transitions = a.transitions + b.transitions;
    choice_points = a.choice_points + b.choice_points;
    max_depth = max a.max_depth b.max_depth;
    truncated = a.truncated + b.truncated;
  }

let zero_stats =
  {
    executions = 0;
    pruned = 0;
    transitions = 0;
    choice_points = 0;
    max_depth = 0;
    truncated = 0;
  }

(* Shallowest decision point with >= 2 selectable candidates on the
   default path, found by one probe execution; the domain fan-out sends
   each of its branches (prefix frozen) to a worker.  Branch workers
   start with empty sleep sets at the branch node — a sound superset of
   the sequential exploration. *)
let probe_branch_point ~bound ~cpus ~max_steps scenario =
  let s =
    {
      s_mode = Naive;
      s_bound = (match bound with None -> max_int | Some b -> b);
      s_cpus = cpus;
      stack_arr = [||];
      stack_len = 0;
      depth = 0;
      replayed = 0;
      pending_sleep = [];
      procs = Hashtbl.create 16;
      st_executions = 0;
      st_pruned = 0;
      st_transitions = 0;
      st_choice_points = 0;
      st_max_depth = 0;
      st_truncated = 0;
    }
  in
  ignore (run_one s ~cpus ~max_steps ~forced:[||] scenario);
  let arr = s.stack_arr and len = s.stack_len in
  let rec find d =
    if d >= len then None
    else
      let node = arr.(d) in
      let sel = ref [] in
      Array.iteri
        (fun i _ -> if selectable node i then sel := i :: !sel)
        node.cands;
      match List.rev !sel with
      | _ :: _ :: _ as sel ->
          let prefix =
            Array.map (fun n -> n.cands.(n.chosen)) (Array.sub arr 0 d)
          in
          Some (prefix, List.map (fun i -> node.cands.(i)) sel)
      | _ -> find (d + 1)
  in
  find 0

let check_once ~mode ~bound ~cpus ~max_steps ~max_executions ~domains scenario
    =
  if domains <= 1 then
    search_subtree ~mode ~bound ~cpus ~max_steps ~max_executions ~forced:[||]
      scenario
  else
    match probe_branch_point ~bound ~cpus ~max_steps scenario with
    | None ->
        (* Single schedule: nothing to fan out. *)
        search_subtree ~mode ~bound ~cpus ~max_steps ~max_executions
          ~forced:[||] scenario
    | Some (prefix, branches) ->
        let jobs = Array.of_list branches in
        let per_worker = max 1 (max_executions / Array.length jobs) in
        let results =
          Mach_sim.Sim_explore.parallel_map ~domains jobs (fun branch ->
              search_subtree ~mode ~bound ~cpus ~max_steps
                ~max_executions:per_worker
                ~forced:(Array.append prefix [| branch |])
                scenario)
        in
        Array.fold_left
          (fun (f, st, c) (f', st', c') ->
            ((if f = None then f' else f), merge_stats st st', c && c'))
          (None, zero_stats, true) results

let default_max_steps = 20_000

let check ?(cpus = 2) ?(mode = Dpor) ?bound ?(max_steps = default_max_steps)
    ?(max_executions = 1_000_000) ?(domains = 1) ?(minimize = true) scenario =
  let failure, stats, complete =
    check_once ~mode ~bound ~cpus ~max_steps ~max_executions ~domains scenario
  in
  (* Iterative bound deepening: re-search with budgets below the found
     counterexample's preemption count, so the reported trace uses as few
     preemptions as the bug allows (the CHESS small-bound heuristic). *)
  let failure, stats =
    match failure with
    | Some f when minimize && f.f_preemptions > 0 ->
        let rec deepen b stats =
          if b >= f.f_preemptions then (f, stats)
          else
            match
              check_once ~mode ~bound:(Some b) ~cpus ~max_steps
                ~max_executions ~domains:1 scenario
            with
            | Some f', st, _ -> (f', merge_stats stats st)
            | None, st, _ -> deepen (b + 1) (merge_stats stats st)
        in
        let f, stats = deepen 0 stats in
        (Some f, stats)
    | _ -> (failure, stats)
  in
  {
    mode;
    bound;
    complete;
    verified = complete && failure = None;
    failure;
    stats;
  }

let replay ?(cpus = 2) ?(max_steps = default_max_steps) ~trace scenario =
  let i = ref 0 in
  let recorded = ref [] in
  let choose (cands : C.mc_transition array) =
    if !i >= Array.length trace then
      failwith
        (Printf.sprintf
           "Mc.replay: trace exhausted at step %d but the run wants another \
            choice"
           !i);
    let want = trace.(!i) in
    incr i;
    let k = ref (-1) in
    Array.iteri
      (fun j t -> if !k < 0 && same_transition t want then k := j)
      cands;
    if !k < 0 then
      failwith
        (Format.asprintf "Mc.replay: trace diverged at step %d: %a not enabled"
           (!i - 1) pp_transition want);
    recorded := cands.(!k) :: !recorded;
    !k
  in
  let hooks =
    {
      C.mc_replay = (fun _ -> None);
      mc_choose = choose;
      mc_commit = (fun _ -> ());
    }
  in
  let cfg = make_cfg ~cpus ~max_steps hooks in
  let outcome = E.run_outcome ~cfg scenario in
  (outcome, Array.of_list (List.rev !recorded))

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

let pp_result ppf r =
  let open Format in
  fprintf ppf "@[<v>mode: %s%s@," (mode_name r.mode)
    (match r.bound with
    | None -> " (unbounded)"
    | Some b -> sprintf " (preemption bound %d)" b);
  fprintf ppf "schedules executed: %d (+%d pruned)@," r.stats.executions
    r.stats.pruned;
  fprintf ppf "transitions: %d, choice points: %d, max depth: %d@,"
    r.stats.transitions r.stats.choice_points r.stats.max_depth;
  (if r.stats.truncated > 0 then
     fprintf ppf "WARNING: %d execution(s) hit the step bound@,"
       r.stats.truncated);
  match r.failure with
  | None ->
      if r.verified then fprintf ppf "VERIFIED: no failing schedule@]"
      else fprintf ppf "NO FAILURE FOUND (search incomplete)@]"
  | Some f ->
      fprintf ppf "FAILED (%s, %d preemption(s)); schedule:@,"
        (match f.f_kind with
        | Some E.Sleep_deadlock -> "sleep deadlock"
        | Some E.Spin_deadlock -> "spin deadlock / livelock"
        | None -> "kernel panic")
        f.f_preemptions;
      Array.iter (fun t -> fprintf ppf "  %a@," pp_transition t) f.f_trace;
      fprintf ppf "%s@]" f.f_report
