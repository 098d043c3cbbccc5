(** Run-local storage, shaped like [Domain.DLS]: the state one
    cluster's run owns.  {!Cluster.create} makes one store, shared by
    its kernels and every program ctx they build ([ctx.local]).  A
    layer above [simos] declares each piece of its run state once, next
    to its code, as a key; so a fresh cluster is a fresh run. *)

type t
type 'a key

val create : unit -> t

(** [key init] is a slot whose value in each store starts as
    [init ()], run by the store's first {!get}. *)
val key : (unit -> 'a) -> 'a key

val get : t -> 'a key -> 'a
val set : t -> 'a key -> 'a -> unit
