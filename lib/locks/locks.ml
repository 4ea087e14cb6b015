(* Every simple-lock protocol on one machine, as {!Mach_core.Lock_proto.t}
   values for [Simple_lock.make ?proto] (and through it
   [Complex_lock.make ?proto]): the section 2 family over one cell
   ({!Mach_core.Spin}) and the scalable queue locks, plus the big-reader
   and scache readers/writer locks whose writer sides are protocols too. *)

module Lock_proto = Mach_core.Lock_proto

module Make (M : Mach_core.Machine_intf.MACHINE) = struct
  include Mach_core.Spin.Make (M)
  module Ticket = Ticket_lock.Make (M)
  module Mcs = Mcs_lock.Make (M)
  module Anderson = Anderson_lock.Make (M)
  module Brlock = Brlock.Make (M)
  module Scache = Scache_rwlock.Make (M)

  let ticket : Lock_proto.t = (module Ticket)
  let mcs : Lock_proto.t = (module Mcs)
  let anderson : Lock_proto.t = (module Anderson)
  let brlock_writer : Lock_proto.t = (module Brlock.Writer)
  let scache_writer : Lock_proto.t = (module Scache.Writer)

  (* The queue-lock mutexes, in table order. *)
  let queue = [ ticket; mcs; anderson ]

  (* Every protocol: the section 2 family, the queue locks, then the two
     writer sides. *)
  let all = spin @ queue @ [ brlock_writer; scache_writer ]
end
