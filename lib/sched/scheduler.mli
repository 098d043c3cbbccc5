(** Checkpoint-driven batch scheduler.

    One scheduler owns a cluster's nodes and a DMTCP runtime.  Jobs are
    submitted with a node count and a priority; the scheduler places them
    on free nodes (exclusive, whole-node allocation) and attaches a
    private DMTCP domain per job — its own coordinator on the job's first
    node, on a per-job port — so independent jobs checkpoint and restart
    without touching each other.

    Three policies bottom out in checkpoint/restart:

    - {b preemption}: a higher-priority arrival that cannot be placed
      checkpoints enough lower-priority running jobs to the store,
      stops them, and takes their nodes; the victims requeue and later
      restart from their images, possibly on different nodes
      ({!Dmtcp.Restart_script.remap}).
    - {b self-healing}: {!fail_node} kills a node and drops its store
      replicas; every job touching it is restarted from its newest
      surviving checkpoint, with the periodic-checkpoint policy
      ([~ckpt_interval]) bounding the lost work.
    - {b drain}: {!drain} migrates every job off a node by
      checkpoint + remap + restart, and the node takes no new work.

    Each job's DMTCP protocol state (operation records, refill barrier,
    discovery keys) lives in its own per-port coordinator domain, so
    checkpoint/restart operations on disjoint jobs and node sets run
    {e concurrently} through per-job op queues ({!Opq}); ops that
    conflict — same job, overlapping node sets, a restart racing a drain
    of the same job — serialize in deterministic FIFO order.  All
    progress is driven by engine events (a periodic scheduler tick);
    nothing here re-enters the engine. *)

type t

(** [create cl rt] — [ckpt_interval] arms a periodic checkpoint per
    running job (default none); [base_port] is the first per-job
    coordinator port (job [i] listens on [base_port + i], default 7800);
    [max_inflight] caps concurrently in-flight ops (0 = unbounded, the
    default; 1 reproduces the old fully-serialized queue, which is the
    bench baseline).  One operation may take 60 virtual s, a job may be
    restarted or relaunched 10 times, and a launch has 15 virtual s to
    produce its full process set.  When the runtime has a store and its
    install options set [compact_depth] above 0, each
    tick squashes at most one delta chain deeper than that into a
    consolidated full image, skipping lineages touched by in-flight
    operations. *)
val create :
  ?base_port:int ->
  ?ckpt_interval:float ->
  ?max_inflight:int ->
  Simos.Cluster.t ->
  Dmtcp.Runtime.t ->
  t

(** Submit a job; placement happens on the next scheduler tick. *)
val submit : t -> Job.spec -> Job.t

(** Operator drain: migrate every job off [node] (checkpoint + restart
    elsewhere) and stop placing work on it. *)
val drain : t -> int -> unit

(** Fail-stop node loss: processes die, the node goes down, and its
    store replicas are dropped; jobs touching it self-heal from their
    newest surviving checkpoint. *)
val fail_node : t -> int -> unit

(** Drive the simulation until every job is terminal or [until] (default
    3600 virtual s).  Returns the number of unfinished jobs. *)
val run : ?until:float -> t -> int

val jobs : t -> Job.t list
val job : t -> int -> Job.t

(** Scheduler-level invariant breaches observed while running (two jobs
    sharing a node slot, placement on a down node).  Empty when healthy. *)
val violations : t -> string list

(** Completion time of the last job, relative to the first submission. *)
val makespan : t -> float

(** Total re-executed virtual seconds across all jobs. *)
val total_lost_work : t -> float

val preemptions : t -> int
val node_failures : t -> int
val drains : t -> int
val restarts : t -> int
val relaunches : t -> int

(** Delta chains squashed by the background compactor (see {!create};
    one squash at most per scheduler tick, skipping
    lineages with in-flight operations). *)
val compactions : t -> int

(** High-water mark of concurrently in-flight checkpoint/stop/restart
    operations over the scheduler's lifetime. *)
val peak_ops_inflight : t -> int

(** Human status table, one line per job. *)
val status_lines : t -> string list
