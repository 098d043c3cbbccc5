(** User programs as serializable state machines.

    Real DMTCP checkpoints a process by copying its memory, registers and
    stacks; an OCaml simulation cannot capture native continuations, so a
    "program" here is an explicit state machine: all state that must
    survive a checkpoint lives in a serializable [state] value, and the
    kernel drives the program by calling [step].  Blocking syscalls
    surface as [Block] outcomes with a wait condition; the kernel re-steps
    the thread when the condition is satisfied.

    Programs are looked up by name in a process-wide registry so that
    restart can reconstruct a thread from the (name, encoded state) pair
    stored in its checkpoint image.  The registry is filled before any
    run: each module that defines a program registers it in its own
    initialiser, and the libraries that define programs link whole
    ([-linkall]), so every executable holds all of them before [main]
    runs. *)

(** What a blocked thread is waiting for.  Serialized into checkpoint
    images (fd numbers are preserved across restart, so conditions remain
    valid). *)
type wait =
  | Readable of int
  | Readable_any of int list  (** any of several fds (select/poll-style) *)
  | Writable of int
  | Sleep_until of float
  | Child             (** any child to exit *)
  | Stopped           (** parked until another thread wakes it explicitly *)

(** Result of one [step]. *)
type 'st outcome =
  | Continue of 'st                  (** runnable again at once *)
  | Compute of 'st * float           (** burn CPU seconds, then step again *)
  | Block of 'st * wait
  | Fork of { parent : 'st; child : 'st }
      (** fork(2): the kernel clones the process; the parent thread
          continues with [parent], the child's (single) thread starts with
          [child] *)
  | Exec of { st : 'st; prog : string; argv : string list }
      (** execve(2): if the named program exists the process image is
          replaced and [st] is discarded; otherwise the thread continues
          with [st] (exec failed) *)
  | Exit of int

(** Syscall surface available during [step].  All operations are
    non-blocking; "would block" shows in return values and the program
    should return a [Block] outcome. *)
type ctx = {
  now : unit -> float;
  rng : Util.Rng.t;
  node_id : int;
  pid : int;
  ppid : unit -> int;
  argv : string list;
  getenv : string -> string option;
  setenv : string -> string -> unit;
  log : string -> unit;
  local : Local.t;
      (** the run store of this process's cluster ({!Cluster.local}) *)
  (* --- files --- *)
  open_file : ?create:bool -> string -> (int, Errno.t) result;
  file_exists : string -> bool;
  (* --- generic fd operations --- *)
  read_fd : int -> max:int -> [ `Data of string | `Eof | `Would_block | `Err of Errno.t ];
  write_fd : int -> string -> (int, Errno.t) result;
  close_fd : int -> unit;
  dup2 : src:int -> dst:int -> (unit, Errno.t) result;
  fds : unit -> int list;
  set_fd_owner : int -> int -> unit;  (** fcntl F_SETOWN *)
  get_fd_owner : int -> int;          (** fcntl F_GETOWN *)
  wake_cells : int -> Sim.Wake.cells option;
      (** the wake cells of the socket, pipe or pty behind the fd
          ({!Fdesc.wake_cells}); [None] for a regular file or a closed
          fd *)
  (* --- pipes and ptys --- *)
  pipe : unit -> int * int;           (** (read end, write end) *)
  open_pty : unit -> int * int;       (** (master, slave) *)
  (* --- sockets --- *)
  socket : unit -> int;
  socket_unix : unit -> int;
  bind : int -> port:int -> (int, Errno.t) result;
  bind_unix : int -> path:string -> (unit, Errno.t) result;
  listen : int -> backlog:int -> (unit, Errno.t) result;
  accept : int -> int option;
  connect : int -> Simnet.Addr.t -> (unit, Errno.t) result;
  sock_state : int -> Simnet.Fabric.state option;
  sock_refused : int -> bool;
  sock_local_addr : int -> Simnet.Addr.t option;
  (* --- memory --- *)
  mmap : bytes:int -> kind:Mem.Region.kind -> Mem.Region.t;
  mem_write : addr:int -> string -> unit;
  mem_read : addr:int -> len:int -> string;
  (* --- processes --- *)
  spawn_thread : prog:string -> argv:string list -> int;
      (** pthread_create-style: a new user thread in this process running
          the named program; returns its tid *)
  sigaction_set : int -> [ `Default | `Ignore | `Handler of string ] -> unit;
      (** install a disposition for a signal number *)
  take_signal : unit -> int option;
      (** consume the oldest pending handled signal, if any *)
  wait_child : unit -> [ `Child of int * int | `None | `No_children ];
  ssh : host:int -> prog:string -> argv:string list -> (int, Errno.t) result;
      (** remote spawn; returns the remote pid. Subject to exec-wrapper
          rewriting when the caller is hijacked. *)
}

module type S = sig
  type state

  val name : string
  val encode : Util.Codec.Writer.t -> state -> unit
  val decode : Util.Codec.Reader.t -> state

  (** Initial state from the command line (pure; do syscalls in the first
      [step]). *)
  val init : argv:string list -> state

  val step : ctx -> state -> state outcome
end

(** A live program instance: module plus current state. *)
type instance = Instance : { prog : (module S with type state = 'a); mutable st : 'a } -> instance

val name_of : instance -> string

(** Outcome of a step with the new state already stored back into the
    instance. *)
type outcome_boxed =
  | B_continue
  | B_compute of float
  | B_block of wait
  | B_fork of instance  (** child instance *)
  | B_exec of { prog : string; argv : string list }
  | B_exit of int

(** One scheduler step. *)
val step_instance : ctx -> instance -> outcome_boxed

(** {2 Registry} *)

(** [register (module P)] makes [P] restorable by name.  Call it once,
    from the initialiser of the module that defines [P]
    ([let () = Simos.Program.register (module P)]).  Re-registering the
    same name is an error. *)
val register : (module S) -> unit

(** Every registered name, sorted. *)
val registered_names : unit -> string list

(** [instantiate ~name ~argv] creates a fresh instance.
    Raises [Not_found] for unknown programs. *)
val instantiate : name:string -> argv:string list -> instance

(** Serialize an instance as (name, state blob). *)
val encode_instance : Util.Codec.Writer.t -> instance -> unit

(** Rebuild from the registry.  Raises {!Util.Codec.Reader.Corrupt} for
    an unknown program name, as for any other damage. *)
val decode_instance : Util.Codec.Reader.t -> instance

val encode_wait : Util.Codec.Writer.t -> wait -> unit
val decode_wait : Util.Codec.Reader.t -> wait
