module Make (M : Machine_intf.MACHINE) = struct
  module Machine = M
  module Slock = Simple_lock.Make (M)
  module Ev = Event.Make (M) (Slock)
  module Clock = Complex_lock.Make (M) (Slock) (Ev)
  module Ref = Refcount.Make (M) (Slock) (Ev)
  module Order = Lock_order.Make (M) (Slock)
  module Span = Lock_events.Spans (M)

  let set_checking b =
    Slock.set_checking b;
    Ref.set_checking b
end
