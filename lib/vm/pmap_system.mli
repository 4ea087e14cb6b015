(** The pmap system lock: the section 5 arbiter between the two orders in
    which pmap and pv-list locks must be acquired.

    The fault path needs pmap-then-pv (it knows the pmap and learns the
    physical page); the pageout path needs pv-then-pmap (it knows the
    physical page and learns the pmaps).  Rather than a single hierarchy,
    a third lock arbitrates: the forward order runs under a read lock, and
    a procedure holding the write lock "can assume exclusive access to the
    pv lists" and may therefore use the reverse order safely.

    The lock is a non-sleep (spin) complex lock: both paths run at splvm
    with interrupts masked and may not block.

    The alternative the paper also describes — a single attempt on the
    second lock with release-and-retry on failure — is not here: E12's
    backout strategy runs its own retry loop in bench/main.ml (ROADMAP
    item 2 weighs moving it onto [Lock_order.backout_lock_pair]). *)

type t

val create : ?name:string -> unit -> t

val forward : t -> (unit -> 'a) -> 'a
(** Run [f] under the read side: pmap-then-pv order allowed. *)

val reverse : t -> (unit -> 'a) -> 'a
(** Run [f] under the write side: exclusive; pv-then-pmap order allowed. *)
