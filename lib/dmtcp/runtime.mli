(** The DMTCP runtime: everything the injected library
    ([dmtcphijack.so]) keeps per process, plus the wrapper (hook)
    implementations and cluster-wide bookkeeping.

    Installed once per simulated cluster, in its run store
    ({!Simos.Cluster.local}): the real library lives inside every
    checkpointed process of one computation, so the manager,
    coordinator, launcher and restart programs reach their state
    through their own ctx ({!of_ctx}), never through a process-wide
    global.  Two clusters in one process have two runtimes. *)

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
    kernel and stores the runtime in the cluster's run store, replacing
    any runtime installed there before.  {!Api.install} is the same
    call. *)
val install : Simos.Cluster.t -> ?options:Options.t -> unit -> t

(** The runtime installed on the cluster the ctx's process runs on.
    Raises [Failure] if none. *)
val of_ctx : Simos.Program.ctx -> t

(** Same, as an option ({!Dmtcpaware} must degrade gracefully outside
    DMTCP). *)
val find : Simos.Program.ctx -> t option

(** {2 Stage observer}

    The manager reports each checkpoint stage and barrier arrival, and
    the restarter each restart stage, through {!notify}; the chaos layer
    observes them to kill at exact protocol points or check stage
    invariants.  An observer schedules destructive work at the current
    virtual time, so the notifying step retires cleanly. *)

val notify : t -> node:int -> pid:int -> Faults.stage -> unit

(** [with_observer t observer f] runs [f] with [observer] receiving
    every {!notify}; the previous observer (none at install) comes back
    on any exit, exceptions included. *)
val with_observer : t -> (node:int -> pid:int -> Faults.stage -> unit) -> (unit -> 'a) -> 'a

(** {2 Command and dmtcpaware state} *)

(** The process count of the last [dmtcp_command --status] reply. *)
val last_status : t -> int option

val note_status : t -> int -> unit

(** Program name -> dmtcpaware pre- and post-checkpoint hooks
    ({!Dmtcpaware.set_hooks}). *)
val aware_hooks : t -> (string, (unit -> unit) option * (unit -> unit) option) Hashtbl.t

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

(** Record a written image in the domain's current round: its image
    list and byte totals. *)
val record_image : ?port:int -> t -> node:int -> path:string -> sizes:Mtcp.Image.sizes -> unit

(** Flat-file retention, called by the manager when the flat image of
    [upid] at [path] on [node] is committed: record it in its lineage's
    ledger, then unlink the files of that lineage's generations older
    than the newest [keep_generations] (no-op when that option is [0]).
    Pinned generations ({!pin_lineage}) are exempt.  Under the store
    nothing calls it: the store's own GC ages images out. *)
val prune_images : t -> node:int -> path:string -> upid:Upid.t -> unit

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

val bump_generation : t -> unit

(** Register a restored process's DMTCP state (restart path). *)
val register_pstate : t -> node:int -> pid:int -> pstate -> unit

(** {2 dmtcpaware support} *)

val enter_critical : t -> node:int -> pid:int -> unit
val leave_critical : t -> node:int -> pid:int -> unit
