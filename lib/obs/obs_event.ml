type t =
  (* scheduler / machine events *)
  | Spawn of { thread : string }
  | Thread_exit of { thread : string }
  | Park of { thread : string }
  | Unpark of { thread : string }
  | Permit of { thread : string }
  | Dispatch of { thread : string; cpu : int }
  | Intr_post of { name : string; cpu : int; level : string }
  | Intr_deliver of { name : string; level : string }
  | Intr_done of { name : string }
  | Spl_raise of { from_lvl : string; to_lvl : string }
  | Cell_set of { cell : string; value : int }
  | Tas of { cell : string; old_value : int }
  (* synchronization-layer events *)
  | Lock_acquire of { lock : string; spins : int; wait_cycles : int }
  | Lock_release of { lock : string; held_cycles : int }
  | Event_wait of { event : int }
  | Event_signal of { event : int; woken : int }
  | Refcount_drop of { name : string; count : int }
  (* vm events *)
  | Tlb_shootdown_start of { initiator : int; participants : int; lazies : int }
  | Tlb_shootdown_done of { participants : int; cycles : int }
  (* causal spans (Obs_span): emitted when a span closes *)
  | Span_close of { kind : string; site : string; dur : int }
  (* chaos / deadlock-detection events *)
  | Chaos_inject of { kind : string; victim : string }
  | Deadlock_note of { line : string }

let name = function
  | Spawn _ -> "Spawn"
  | Thread_exit _ -> "Thread_exit"
  | Park _ -> "Park"
  | Unpark _ -> "Unpark"
  | Permit _ -> "Permit"
  | Dispatch _ -> "Dispatch"
  | Intr_post _ -> "Intr_post"
  | Intr_deliver _ -> "Intr_deliver"
  | Intr_done _ -> "Intr_done"
  | Spl_raise _ -> "Spl_raise"
  | Cell_set _ -> "Cell_set"
  | Tas _ -> "Tas"
  | Lock_acquire _ -> "Lock_acquire"
  | Lock_release _ -> "Lock_release"
  | Event_wait _ -> "Event_wait"
  | Event_signal _ -> "Event_signal"
  | Refcount_drop _ -> "Refcount_drop"
  | Tlb_shootdown_start _ -> "Tlb_shootdown_start"
  | Tlb_shootdown_done _ -> "Tlb_shootdown_done"
  | Span_close _ -> "Span_close"
  | Chaos_inject _ -> "Chaos_inject"
  | Deadlock_note _ -> "Deadlock_note"

let detail = function
  | Spawn { thread } | Thread_exit { thread } | Park { thread }
  | Unpark { thread }
  | Permit { thread } ->
      thread
  | Dispatch { thread; cpu } -> Printf.sprintf "%s on cpu%d" thread cpu
  | Intr_post { name; cpu; level } ->
      Printf.sprintf "%s -> cpu%d at %s" name cpu level
  | Intr_deliver { name; level } -> Printf.sprintf "%s at %s" name level
  | Intr_done { name } -> name
  | Spl_raise { from_lvl; to_lvl } ->
      Printf.sprintf "%s -> %s" from_lvl to_lvl
  | Cell_set { cell; value } -> Printf.sprintf "%s=%d" cell value
  | Tas { cell; old_value } -> Printf.sprintf "%s old=%d" cell old_value
  | Lock_acquire { lock; spins; wait_cycles } ->
      Printf.sprintf "%s spins=%d waited=%d" lock spins wait_cycles
  | Lock_release { lock; held_cycles } ->
      Printf.sprintf "%s held=%d" lock held_cycles
  | Event_wait { event } -> Printf.sprintf "event%d" event
  | Event_signal { event; woken } ->
      Printf.sprintf "event%d woke %d" event woken
  | Refcount_drop { name; count } -> Printf.sprintf "%s -> %d" name count
  | Tlb_shootdown_start { initiator; participants; lazies } ->
      Printf.sprintf "cpu%d waits for %d cpus (%d lazy)" initiator
        participants lazies
  | Tlb_shootdown_done { participants; cycles } ->
      Printf.sprintf "%d cpus released after %d cycles" participants cycles
  | Span_close { kind; site; dur } ->
      Printf.sprintf "%s %s dur=%d" kind site dur
  | Chaos_inject { kind; victim } -> Printf.sprintf "%s -> %s" kind victim
  | Deadlock_note { line } -> line

(* Structured payload as Chrome trace-event "args". *)
let args ev =
  let open Obs_json in
  match ev with
  | Spawn { thread } | Thread_exit { thread } | Park { thread }
  | Unpark { thread }
  | Permit { thread } ->
      [ ("thread", String thread) ]
  | Dispatch { thread; cpu } ->
      [ ("thread", String thread); ("cpu", Int cpu) ]
  | Intr_post { name; cpu; level } ->
      [ ("intr", String name); ("cpu", Int cpu); ("level", String level) ]
  | Intr_deliver { name; level } ->
      [ ("intr", String name); ("level", String level) ]
  | Intr_done { name } -> [ ("intr", String name) ]
  | Spl_raise { from_lvl; to_lvl } ->
      [ ("from", String from_lvl); ("to", String to_lvl) ]
  | Cell_set { cell; value } ->
      [ ("cell", String cell); ("value", Int value) ]
  | Tas { cell; old_value } ->
      [ ("cell", String cell); ("old", Int old_value) ]
  | Lock_acquire { lock; spins; wait_cycles } ->
      [
        ("lock", String lock);
        ("spins", Int spins);
        ("wait_cycles", Int wait_cycles);
      ]
  | Lock_release { lock; held_cycles } ->
      [ ("lock", String lock); ("held_cycles", Int held_cycles) ]
  | Event_wait { event } -> [ ("event", Int event) ]
  | Event_signal { event; woken } ->
      [ ("event", Int event); ("woken", Int woken) ]
  | Refcount_drop { name; count } ->
      [ ("refcount", String name); ("count", Int count) ]
  | Tlb_shootdown_start { initiator; participants; lazies } ->
      [
        ("initiator", Int initiator);
        ("participants", Int participants);
        ("lazies", Int lazies);
      ]
  | Tlb_shootdown_done { participants; cycles } ->
      [ ("participants", Int participants); ("cycles", Int cycles) ]
  | Span_close { kind; site; dur } ->
      [ ("kind", String kind); ("site", String site); ("dur", Int dur) ]
  | Chaos_inject { kind; victim } ->
      [ ("kind", String kind); ("victim", String victim) ]
  | Deadlock_note { line } -> [ ("line", String line) ]

(* Span records and plain instants are accounted separately in the trace
   rings (dropped-span vs dropped-event counters). *)
let is_span = function Span_close _ -> true | _ -> false
