(** The DMTCP runtime: everything the injected library
    ([dmtcphijack.so]) keeps per process, plus the wrapper (hook)
    implementations and cluster-wide bookkeeping.

    Installed once per simulated cluster; a process-wide singleton mirrors
    the fact that the real library lives inside every checkpointed
    process.  Manager/coordinator/restart programs reach their state
    through {!active}. *)

(** Per-process DMTCP state (the real package keeps this in the injected
    library's data segment). *)
type pstate = {
  mutable upid : Upid.t;
  mutable vpid : int;  (** virtual pid: stable across restarts *)
  mutable conns : Conn_table.t;
  mutable conn_seq : int;
  mutable critical : int;  (** dmtcpaware delay-checkpoint depth *)
  pty_drains : (int, string * string) Hashtbl.t;  (** pty key -> drained *)
  mutable delta_prev : (string * int) option;
      (** previous checkpoint's image name and chain depth (0 = full):
          the base the next incremental checkpoint deltas against *)
  mutable ckpt_seq : int;
      (** per-process checkpoint counter; incremental mode suffixes the
          image filename with it so a delta's base is never overwritten *)
  mutable forked_pending : bool;
      (** a forked checkpoint's background write is still in flight: the
          next checkpoint's fork waits for it (at most one outstanding
          child, as in real forked checkpointing), so a delta chain's
          base is always durable before anything references it *)
}

(** Cluster-wide record of one checkpoint or restart operation. *)
type op_info = {
  mutable started : float;
  mutable finished : float;
  mutable images : (int * string) list;  (** (node, image path) *)
  mutable total_compressed : int;
  mutable total_uncompressed : int;
  mutable nprocs : int;
}

type t

(** [install cluster ~options ()] registers the wrapper hooks in every
    kernel and makes this runtime {!active}.  Use {!Api.install}, which
    also registers the DMTCP programs in the program registry. *)
val install : Simos.Cluster.t -> ?options:Options.t -> unit -> t

(** The runtime of the most recently installed cluster. Raises [Failure]
    if none. *)
val active : unit -> t

(** Same, as an option ({!Dmtcpaware} must degrade gracefully outside
    DMTCP). *)
val active_rt_for_aware : t option ref

val cluster : t -> Simos.Cluster.t
val options : t -> Options.t

(** The enabled plugins: [options.plugins] resolved against the
    {!Plugins} table once, at install, in table order.  An unknown name
    makes {!install} raise [Invalid_argument]. *)
val plugins : t -> Plugins.t list

val kernel_of : t -> node:int -> Simos.Kernel.t
val proc_of : t -> node:int -> pid:int -> Simos.Kernel.process option
val pstate_of : t -> node:int -> pid:int -> pstate option

(** All live checkpointed processes, as (node, pid, pstate). *)
val hijacked_processes : t -> (int * int * pstate) list

(** {2 Connection bookkeeping (used by the manager during drain)} *)

(** Resolve the DMTCP state of the peer endpoint of a connected socket:
    [Some (pstate, entry)] if the peer is itself under checkpoint
    control. *)
val peer_entry : t -> Simnet.Fabric.socket -> (pstate * Conn_table.entry) option

(** Register/lookup of endpoint ownership, (socket id) -> ((node,pid), fd). *)
val register_sock_owner : t -> sock_id:int -> node:int -> pid:int -> fd:int -> unit

(** {2 Virtual pids} *)

val claim_vpid : t -> vpid:int -> node:int -> pid:int -> unit
val release_vpid : t -> vpid:int -> unit

(** Current (node, real pid) for a virtual pid. *)
val resolve_vpid : t -> int -> (int * int) option

(** {2 Operation records}

    The runtime keeps no stage durations: the process that ran a stage
    emits its span ({!Faults.span}), and readers aggregate the spans
    with {!Trace.Query.stage_stats} over a collector. *)

(** Every operation record below is scoped to a coordinator {e domain},
    keyed by coordinator port ([?port]; defaults to the installed
    options' [coord_port]).  The scheduler runs one coordinator per job
    at its own port, so concurrent checkpoint/restart ops on disjoint
    jobs keep independent since-guards, refill barriers and round
    counters.  Domains are keyed by port alone because a restart may
    migrate a job's coordinator to a new host while the port stays
    fixed. *)

val ckpt_info : ?port:int -> t -> op_info

(** The most recent checkpoint that finished with at least one image —
    what a restart script should be built from (an interval checkpoint
    may be mid-flight at any given moment). *)
val last_completed_ckpt : ?port:int -> t -> op_info option

val restart_info : ?port:int -> t -> op_info

(** Called by the coordinator when it broadcasts a checkpoint request /
    releases the final barrier. *)
val note_ckpt_start : ?port:int -> t -> unit

val note_ckpt_end : ?port:int -> t -> unit

(** Checkpoint rounds ever started in this domain (monotone; a round
    counts from [note_ckpt_start]).  Regression hook: coalescing a stop
    into an in-flight checkpoint must not start a second round. *)
val ckpt_rounds : ?port:int -> t -> int

val note_restart_start : ?port:int -> t -> unit

(** Called once per restart process as it resumes its host's processes. *)
val note_restart_end : ?port:int -> t -> unit

(** Number of restart processes expected / completed in the current wave. *)
val set_restart_expected : ?port:int -> t -> int -> unit

val restart_expected : ?port:int -> t -> int

(** Refill barrier between a domain's restart processes (restart
    re-enters the checkpoint algorithm at Barrier 5, paper §4.4). *)
val arrive_refill_barrier : ?port:int -> t -> unit

val refill_barrier_passed : ?port:int -> t -> bool

(** Drop DMTCP state for a process removed outside the exit path
    (vanished/migrated). *)
val forget_process : t -> node:int -> pid:int -> unit

(** Record a written image (also feeds the flat-file lifecycle ledger
    that {!prune_images} reaps). *)
val record_image :
  ?port:int -> t -> node:int -> path:string -> upid:Upid.t -> sizes:Mtcp.Image.sizes -> unit

(** Unlink image/conninfo files of [lineage]'s generations older than
    the newest [keep_generations] (no-op when that option is [0]).
    Called by the manager once a checkpoint write completes.  Pinned
    generations ({!pin_lineage}) are exempt. *)
val prune_images : t -> lineage:string -> unit

(** [pin_lineage t ~lineage ~generation] protects [lineage]'s images at
    [generation] or newer from {!prune_images} and (when a store is
    installed) from store GC.  The scheduler pins the newest checkpoint
    of every preempted/requeued job: pid reuse can hand the same lineage
    to a new job whose checkpoints would otherwise age the preempted
    job's only restart image out of retention.  Re-pinning replaces the
    previous pin. *)
val pin_lineage : t -> lineage:string -> generation:int -> unit

val unpin_lineage : t -> lineage:string -> unit

(** The replicated content-addressed checkpoint store, when
    [options.store] enabled it at install time. *)
val store : t -> Store.t option

(** {2 Restart support} *)

val generation : t -> int
val bump_generation : t -> unit

(** Shared-memory segment registry for the current restart wave, scoped
    per coordinator domain: backing path -> restored page array. *)
val shm_lookup : ?port:int -> t -> string -> Mem.Page.content array option

val shm_register : ?port:int -> t -> string -> Mem.Page.content array -> unit

(** Drop the domain's segment registrations (other domains' concurrent
    restart waves are untouched). *)
val shm_reset : ?port:int -> t -> unit

(** Register a restored process's DMTCP state (restart path). *)
val register_pstate : t -> node:int -> pid:int -> pstate -> unit

(** {2 dmtcpaware support} *)

val enter_critical : t -> node:int -> pid:int -> unit
val leave_critical : t -> node:int -> pid:int -> unit

(** {2 Manager helpers} *)

(** Create a conn-table entry for a socketpair end (pipe promotion and
    socketpair wrapper). *)
val promote_pipe : t -> Simos.Kernel.t -> Simos.Kernel.process -> (int * int) option

(** Write the per-process connection table to disk (drain stage; small
    file next to the images). *)
val write_conn_table : t -> Simos.Kernel.t -> Simos.Kernel.process -> unit
