(** Binary min-heap keyed by [(priority, sequence)].

    Two entries with equal priority pop in insertion order, which makes the
    event engine deterministic: simultaneous events fire in the order they
    were scheduled.

    Entries live in three parallel arrays: priorities in a [Float.Array],
    sequence numbers and values in two more.  The sifts move a hole and
    write each entry once, so {!push}, {!top_above} and {!take_into}
    allocate nothing (growth aside).

    A cell the heap does not use holds the [dummy] given to {!create},
    never a popped value, so popping releases the value to the GC. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push h ~priority v] inserts [v]. *)
val push : 'a t -> priority:float -> 'a -> unit

(** [top_above h limit]: is [h] non-empty with its smallest priority
    above [limit]? *)
val top_above : 'a t -> float -> bool

(** [take_into h into] removes the smallest entry, stores its priority
    in [into] (a float-only record, so the store allocates nothing) and
    returns its value.  Raises [Invalid_argument] when empty. *)
val take_into : 'a t -> float ref -> 'a

(** Smallest entry, as [(priority, value)]. *)
val peek : 'a t -> (float * 'a) option

(** {!take_into} as an option of [(priority, value)]. *)
val pop : 'a t -> (float * 'a) option
