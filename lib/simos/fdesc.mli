(** Open file descriptions.

    One description may be referenced from several fd-table slots — after
    [dup2], and after [fork] from several *processes* — which is exactly
    what forces DMTCP's shared-FD leader election: the description carries
    the [F_SETOWN] owner pid that the election trick (paper §4.3 step 3)
    misuses as a ballot box. *)

type kind =
  | File of { file : Vfs.file; mutable offset : int }
  | Sock of Simnet.Fabric.socket
  | Pipe_r of Pipe.t
  | Pipe_w of Pipe.t
  | Pty_m of Pty.t
  | Pty_s of Pty.t

type t = {
  desc_id : int;  (** unique across the cluster *)
  kind : kind;
  mutable refcount : int;
  mutable owner : int;  (** F_SETOWN value; 0 = unset *)
}

(** Fresh description [id] with refcount 1 (pipe/pty endpoint counts
    are adjusted by the caller).  Take ids from {!Kernel.make_desc},
    which numbers a cluster's descriptions. *)
val make : id:int -> kind -> t

val incr_ref : t -> unit

(** Decrement; when the count reaches zero the underlying object is
    released (socket closed, pipe endpoint count decremented). *)
val decr_ref : t -> unit

val kind_name : t -> string

(** Can a read make progress right now? *)
val readable : t -> bool

val writable : t -> bool

(** The wake cells of the socket, pipe or pty behind the description
    (one pipe or pty backs two descriptions, so they share them).  A
    cell armed there while the description was unreadable stays unfired
    until it may be readable.  [None] for a regular file: another
    description's append makes it readable without a wake-up. *)
val wake_cells : t -> Sim.Wake.cells option
