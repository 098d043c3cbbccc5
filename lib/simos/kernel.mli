(** The per-node kernel: process table, thread scheduler, file
    descriptors, and the syscall implementations behind {!Program.ctx}.

    DMTCP attaches to processes through the {!hooks} table, the simulation
    analogue of [LD_PRELOAD] symbol interposition: hooks fire only for
    processes launched with [~hijacked:true] (i.e. under
    [dmtcp_checkpoint]) and let the DMTCP layer wrap fork, exec, ssh,
    socket creation, accept and pipe — libc calls the paper lists in
    §4.2. *)

(** Disposition of a signal for a process — saved and restored by the
    checkpointer (the paper lists signal handlers among the artifacts
    DMTCP accounts for). [Handler] records the handler's identity; custom
    handlers are data to the checkpointer, not executed by the kernel. *)
type sigaction = Sig_default | Sig_ignore | Sig_handler of string

(** Fd tables, keyed by fd number.  A table iterates in a generic
    [Hashtbl]'s order (exit and {!vanish_process} close fds in it, and
    it is observable); [find_opt] reads an fd-indexed array instead,
    and hashes only an fd outside [0, 1024).  Change a process's table
    through {!install_fd}, {!alloc_fd} and {!remove_fd}, which bump
    [fd_gen]. *)
module Fdtbl : sig
  type 'a t

  val create : int -> 'a t
  val copy : 'a t -> 'a t
  val length : 'a t -> int
  val find_opt : 'a t -> int -> 'a option
  val replace : 'a t -> int -> 'a -> unit
  val remove : 'a t -> int -> unit
  val iter : (int -> 'a -> unit) -> 'a t -> unit
  val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end

type thread_state = Ready | Blocked of Program.wait | Dead

type thread = {
  tid : int;
  tproc : process;
  mutable inst : Program.instance;
  mutable tstate : thread_state;
  mutable suspended : bool;   (** checkpoint suspension (MTCP) *)
  mutable step_pending : bool;
  mutable generation : int;   (** invalidates stale scheduler events *)
  mutable manager : bool;     (** DMTCP checkpoint-manager thread *)
  mutable wake_handle : Sim.Engine.handle option;
      (** pending sleep wake-up, cancelled when the thread dies *)
  mutable wait_key : int list;
      (** The wait record, kept while the thread is blocked reading
          sockets, pipes or ptys: the fd list of the full scan that
          found the wait unsatisfied, *)
  mutable wait_gen : int;
      (** the process's [fd_gen] at that scan ([-1]: no record), *)
  mutable wait : Sim.Wake.wait;
  mutable wait_descs : Fdesc.t array;
  mutable wait_cells : Sim.Wake.cell array;
      (** and the descriptions the fds resolved to, each with a wake
          cell of [wait] armed on the socket, pipe or pty behind it
          under the description's index.  A poke skips the thread
          while no cell has fired and [fd_gen] is unchanged; otherwise
          it re-reads only the descriptions whose cells fired, and
          re-arms them if none is readable.  Blocking again on the same
          fd list with the same [fd_gen] reuses the record the same
          way. *)
  mutable ctx : Program.ctx option;
      (** the thread's syscall table, built on its first step and rebuilt
          when the process's [cmdline] or the thread's [ctx_wrapped]
          value moves *)
  mutable ctx_wrapped : bool;
      (** [hijacked && not manager] when [ctx] was built: whether its
          calls go through the hook table *)
}

and pstate = Running | Zombie of int | Reaped

and process = {
  pid : int;
  mutable ppid : int;
  pnode : int;
  mutable threads : thread list;
  fdtable : Fdesc.t Fdtbl.t;
  mutable fd_gen : int;  (** bumped by every change to [fdtable] *)
  mutable next_fd : int;
  mutable space : Mem.Address_space.t;
  mutable env : (string * string) list;
  mutable pstate : pstate;
  mutable hijacked : bool;
  mutable next_tid : int;
  mutable cmdline : string list;
  sigtable : (int, sigaction) Hashtbl.t;  (** signal number -> disposition *)
  mutable pending_signals : int list;     (** delivered, not yet consumed *)
  mutable pager : (Mem.Region.t -> int -> float) option;
      (** demand-pager for lazy restore: when set, any memory access to a
          non-resident page marks it resident and charges [pager region
          page] seconds of fault time to [fault_debt].  [None] = eager
          semantics (no residency checks).  Installed by the lazy restart
          path, cleared once the background prefetcher drains. *)
  mutable fault_debt : float;
      (** accumulated page-fault seconds, drained into the next scheduling
          delay of whichever thread of this process runs next *)
}

type t

type hooks = {
  on_spawn : t -> process -> unit;
  on_fork : t -> parent:process -> child:process -> unit;
  on_exec : t -> process -> prog:string -> argv:string list -> string * string list;
  on_ssh : t -> process -> host:int -> prog:string -> argv:string list -> string * string list;
  on_socket : t -> process -> fd:int -> Fdesc.t -> unit;
  on_accept : t -> process -> fd:int -> Fdesc.t -> unit;
  on_pipe : t -> process -> (int * int) option;
  on_close : t -> process -> fd:int -> Fdesc.t -> unit;
      (** an fd-table slot is released (close, dup2 over, exit teardown);
          fires before the description's refcount drops *)
  on_exit : t -> process -> unit;
}

val default_hooks : hooks

(** Description and pty numbering, shared by one cluster's kernels: ids
    are unique across the cluster and start at 1 in each. *)
type ids

val ids : unit -> ids

(** [create ~node_id ~engine ~fabric ~storage ~local ~ids ~cores ()]
    builds a kernel of the cluster with run store [local] and numbering
    [ids].  Call {!set_peers} before any cross-node operation. *)
val create :
  node_id:int ->
  engine:Sim.Engine.t ->
  fabric:Simnet.Fabric.t ->
  storage:Storage.Target.t ->
  local:Local.t ->
  ids:ids ->
  ?cores:int ->
  ?seed:int64 ->
  unit ->
  t

val set_peers : t -> t array -> unit
val set_hooks : t -> hooks -> unit
val hooks : t -> hooks

val node_id : t -> int
val engine : t -> Sim.Engine.t
val fabric : t -> Simnet.Fabric.t
val vfs : t -> Vfs.t

(** A fresh description with the cluster's next id. *)
val make_desc : t -> Fdesc.kind -> Fdesc.t

(** A fresh pty with the cluster's next id. *)
val make_pty : t -> Pty.t
val storage : t -> Storage.Target.t
val cores : t -> int

(** {2 Processes} *)

(** [spawn t ~prog ~argv ()] creates a process whose main thread runs the
    registered program [prog].  Raises [Not_found] for unknown programs. *)
val spawn :
  t ->
  prog:string ->
  argv:string list ->
  ?env:(string * string) list ->
  ?ppid:int ->
  ?hijacked:bool ->
  unit ->
  process

(** Assemble a process shell for restart: no threads yet, given pid is NOT
    allocated from the normal counter (restart pids come from
    {!fresh_pid}). *)
val create_raw_process :
  t -> pid:int -> ppid:int -> env:(string * string) list -> hijacked:bool -> process

val fresh_pid : t -> int

(** Add a thread running [inst] to the process; it is scheduled
    immediately unless [blocked] is given. *)
val add_thread :
  t -> process -> inst:Program.instance -> ?manager:bool -> ?blocked:Program.wait -> unit -> thread

val find_process : t -> pid:int -> process option

(** All [Running] processes on this node, ascending pid. *)
val processes : t -> process list

(** Terminate a process (as by SIGKILL): threads die, fds close, parent
    can reap. *)
val kill_process : t -> process -> unit

(** Re-create a just-forked, not-yet-run child under a fresh pid, taking
    over its fd table and address space; the original child is discarded.
    Used by the DMTCP fork wrapper when the child's would-be virtual pid
    collides with a restored process (paper §4.5). Does not re-fire the
    fork hook. *)
val refork : t -> child:process -> process

(** Forcibly delete a process without zombie bookkeeping — used when the
    original processes are discarded after a checkpoint, simulating
    migration or node loss. *)
val vanish_process : t -> process -> unit

(** {2 Checkpoint support (used by the MTCP layer)} *)

(** Suspend every non-manager thread of the process. *)
val suspend_user_threads : t -> process -> unit

(** Resume them; blocked threads re-evaluate their wait conditions. *)
val resume_user_threads : t -> process -> unit

(** Blocked, unsuspended threads whose wait record is current although
    their wait is satisfied: threads a poke would wrongly skip.  Always
    [0]; tests assert it. *)
val skipped_ready : t -> int

(** Look up an fd's description. *)
val fd_desc : process -> int -> Fdesc.t option

(** Install [desc] under a specific fd number (restart path); replaces any
    existing entry without closing it. *)
val install_fd : t -> process -> fd:int -> Fdesc.t -> unit

(** Allocate the next free fd number and install [desc] there. *)
val alloc_fd : t -> process -> Fdesc.t -> int

(** Remove an fd slot, releasing its description reference. *)
val remove_fd : t -> process -> fd:int -> unit

(** Set a signal's disposition; unset signals are [Sig_default]. *)
val set_sigaction : process -> int -> sigaction -> unit

(** [deliver_signal t proc ~signal] applies the disposition: [Sig_default]
    terminates for the fatal signals (SIGINT=2, SIGTERM=15, SIGKILL=9 —
    SIGKILL regardless of table), [Sig_ignore] drops it, [Sig_handler]
    queues it on [pending_signals]. *)
val deliver_signal : t -> process -> signal:int -> unit

