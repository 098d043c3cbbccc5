(** FIFO queue of bytes, used for socket/pipe/pty kernel buffers.
    Pushes and pops are amortized O(length of data moved). *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

(** Append data. *)
val push : t -> string -> unit

(** [pop t n] removes and returns up to [n] bytes (fewer if the queue is
    shorter; [""] if empty). *)
val pop : t -> int -> string

(** Remove and return everything. *)
val pop_all : t -> string

