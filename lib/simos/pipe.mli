(** Unidirectional kernel pipes with POSIX-like semantics: bounded buffer,
    EOF when all writers close, EPIPE when all readers close.

    Note: under DMTCP the [pipe] wrapper *promotes* pipes to socketpairs
    (paper §4.5) so the drain/refill machinery applies uniformly; this
    module is the un-hijacked baseline, still used by processes running
    outside DMTCP. *)

type t

val capacity : int
val create : unit -> t

(** Reader/writer reference counts, adjusted by the kernel as fds are
    duplicated and closed. *)
val add_reader : t -> unit

val add_writer : t -> unit
val remove_reader : t -> unit
val remove_writer : t -> unit
val writers : t -> int

val read : t -> max:int -> [ `Data of string | `Eof | `Would_block ]

(** [write t data] returns bytes accepted (0 = full) or [Error EPIPE] when
    no readers remain. *)
val write : t -> string -> (int, Errno.t) result

val buffered : t -> int

val on_activity : t -> (unit -> unit) -> unit

(** The wake cells armed on the pipe, shared by both ends: every call
    of the {!on_activity} hook fires them first, and every change that
    can make the read end readable makes one. *)
val wake_cells : t -> Sim.Wake.cells
