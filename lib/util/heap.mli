(** Binary min-heap keyed by [(priority, sequence)].

    Two entries with equal priority pop in insertion order, which makes the
    event engine deterministic: simultaneous events fire in the order they
    were scheduled.

    A cell the heap does not use holds the [dummy] given to {!create},
    never a popped value, so popping releases the value to the GC. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push h ~priority v] inserts [v]. *)
val push : 'a t -> priority:float -> 'a -> unit

(** Smallest entry, as [(priority, value)]. *)
val peek : 'a t -> (float * 'a) option

val pop : 'a t -> (float * 'a) option
