module K = Mach_ksync.Ksync

type t = { lock : K.Clock.t }

let create ?(name = "pmap-system") () =
  { lock = K.Clock.make ~name ~can_sleep:false () }

let forward t f =
  K.Clock.lock_read t.lock;
  match f () with
  | v ->
      K.Clock.lock_done t.lock;
      v
  | exception e ->
      K.Clock.lock_done t.lock;
      raise e

let reverse t f =
  K.Clock.lock_write t.lock;
  match f () with
  | v ->
      K.Clock.lock_done t.lock;
      v
  | exception e ->
      K.Clock.lock_done t.lock;
      raise e
