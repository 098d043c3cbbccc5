(** A per-node filesystem: a flat namespace of regular files.

    Files carry both real content and a *simulated size*: checkpoint
    images store synthetic bulk pages as small descriptors, so their real
    byte length understates the size the paper's experiments would see.
    Writers declare the simulated size; timing and reported checkpoint
    sizes use it, while restore reads the real content. *)

type t
type file

val create : unit -> t

(** [open_or_create t path] returns the file, creating it empty if
    needed. *)
val open_or_create : t -> string -> file

val lookup : t -> string -> file option
val exists : t -> string -> bool
val unlink : t -> string -> (unit, Errno.t) result

(** [with_rewrite t f body] runs [body] with the path-rewrite hook [f]
    installed: every path-taking entry point ({!open_or_create},
    {!lookup}, {!exists}, {!unlink}) maps its argument through [f]
    first.  Restores the previous hook on exit.  Restart-rearrangement
    plugins use this to re-point pid-derived paths ([/proc/<pid>/*]) at
    the restarted process without the checkpoint core knowing the
    convention. *)
val with_rewrite : t -> (string -> string) -> (unit -> 'a) -> 'a

val path_of : file -> string

(** Real content length in bytes. *)
val length : file -> int

(** [read_at f ~pos ~len] returns up to [len] bytes from [pos] ([""] at or
    past EOF). *)
val read_at : file -> pos:int -> len:int -> string

val read_all : file -> string

(** [write_at f ~pos data] extends the file with zeros if [pos] is past
    the end. *)
val write_at : file -> pos:int -> string -> unit

val append : file -> string -> unit
val truncate : file -> unit
