(* The sink is domain-local: each domain runs at most one simulator
   engine, and parallel seed sweeps must not have one domain's engine
   receive another domain's events. *)

let sink : (Obs_event.t -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_sink f = Domain.DLS.set sink f
let enabled () = Domain.DLS.get sink <> None

let emit ev = match Domain.DLS.get sink with Some f -> f ev | None -> ()
