(** Simple locks: spinning mutual-exclusion locks (paper, section 4 and
    Appendix A).

    The interface mirrors Appendix A: [make] plays the role of
    [decl_simple_lock_data] + [simple_lock_init]; [lock], [unlock] and
    [try_lock] correspond to [simple_lock], [simple_unlock] and
    [simple_lock_try].

    Design rules enforced (in checking mode) exactly as the paper states:
    - a thread may not block while holding a simple lock ("violations of
      this restriction cause kernel deadlocks", section 4 footnote) — the
      event layer reads the holder's {!Thread_ctx.t} count;
    - each lock must always be acquired at the same interrupt priority
      level (section 7), checked when [lock] is attempted;
    - the releasing thread must be the holder. *)

module Make (M : Machine_intf.MACHINE) : sig
  type t

  val make : ?name:string -> ?proto:Lock_proto.t -> ?spl:Spl.t -> unit -> t
  (** Declare and initialize a simple lock in the unlocked state.  [spl]
      optionally pins the lock's interrupt priority level up front; without
      it the level is learned from the first attempt (checking mode then
      enforces consistency, per section 7).

      [proto] is the spin protocol (default tas+ttas): one of the
      section 2 family in {!Spin} or a lib/locks queue lock.  Checking,
      statistics, waits-for edges and observability are the same for
      every protocol. *)

  val lock : t -> unit
  (** Spin until the lock is acquired. *)

  val unlock : t -> unit

  val try_lock : t -> bool
  (** Make a single attempt to acquire the lock. *)

  val with_lock : t -> (unit -> 'a) -> 'a
  (** [lock]; run; [unlock] (also on exception). *)

  val is_locked : t -> bool
  (** Momentary observation; for assertions and diagnostics only. *)

  val holder : t -> M.thread option
  (** The holding thread, when checking mode records it. *)

  val held_by_self : t -> bool
  (** True iff checking mode is on and the current thread holds [t]. *)

  val name : t -> string

  val uid : t -> int
  (** Unique id, the analog of the lock's kernel address; used to order
      acquisitions of two same-type locks "by address" (section 5). *)

  val set_checking : bool -> unit
  (** Enable/disable debug checking (holder tracking, same-spl rule,
      unlock-by-holder) in the calling domain; a domain spawned later
      starts with its parent's setting.  Default: enabled.  Off, a
      same-spl mismatch is a {!Mach_obs.Obs_profile} finding, not a
      panic. *)

  val checking : unit -> bool

  val set_uniprocessor : bool -> unit
  (** When true, lock/unlock become no-ops — the analog of compiling simple
      locks out of uniprocessor kernels via the declaration macro
      (Appendix A).  Default: false. *)
end
