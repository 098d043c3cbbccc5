(** High-level facade over the DMTCP stack, used by the harness, examples
    and tests.

    Typical session:
    {[
      let cl = Simos.Cluster.create ~nodes:32 () in
      let rt = Dmtcp.Api.install cl () in
      let _ = Dmtcp.Api.launch rt ~node:0 ~prog:"apps:mpirun" ~argv:[...] in
      Simos.Cluster.run ~until:30.0 cl;          (* reach steady state *)
      Dmtcp.Api.checkpoint rt;                   (* dmtcp_command -c *)
      Dmtcp.Api.await_checkpoint rt;
      let script = Dmtcp.Api.restart_script rt in
      Dmtcp.Api.kill_computation rt;             (* simulate node loss *)
      Dmtcp.Api.restart rt script;
      Simos.Cluster.run cl                       (* computation finishes *)
    ]} *)

(** Install hooks + runtime on a cluster ({!Runtime.install}).  The
    DMTCP programs (coordinator, manager, launcher, command, restart)
    need no registering: each registers itself at initialisation. *)
val install : Simos.Cluster.t -> ?options:Options.t -> unit -> Runtime.t

(** [launch rt ~node ~prog ~argv] spawns
    [dmtcp_checkpoint <prog> <argv...>] on [node] and returns the launcher
    process (the target program execs in place, keeping its pid).

    [?options] overrides the runtime-wide options in the spawned process's
    environment — several independent computations (each with its own
    coordinator host/port) can then share one cluster, which is how the
    batch scheduler attaches a DMTCP domain per job.  Only the settings
    {!Options.to_env} writes travel; the per-cluster ones ([store],
    [store_replicas], [keep_generations], [compact_depth], [plugins])
    are the runtime's and are ignored here. *)
val launch :
  ?options:Options.t ->
  Runtime.t ->
  node:int ->
  prog:string ->
  argv:string list ->
  Simos.Kernel.process

(** Spawn [dmtcp_command --checkpoint] against [?options]'s coordinator
    (default: the runtime-wide one). The caller advances the engine. *)
val checkpoint : ?options:Options.t -> Runtime.t -> unit

(** Run the engine until a checkpoint that *started at or after [since]*
    completes (all barriers released) — guarding against being satisfied
    by a previously completed checkpoint. Raises [Failure] on timeout
    (default 600 simulated s). [?options] selects which coordinator
    domain's records to watch (by its [coord_port]). *)
val await_checkpoint : ?timeout:float -> ?since:float -> ?options:Options.t -> Runtime.t -> unit

(** Convenience: request a checkpoint and wait for it. *)
val checkpoint_now : ?timeout:float -> ?options:Options.t -> Runtime.t -> unit

(** Duration of the last completed checkpoint, seconds. *)
val last_checkpoint_seconds : Runtime.t -> float

(** Aggregate image bytes of the last checkpoint:
    (compressed-on-disk, raw). *)
val last_checkpoint_bytes : Runtime.t -> int * int

(** Build the restart script record for the last checkpoint (also writes
    [dmtcp_restart_script.sh] to the coordinator node's filesystem).
    [?options] selects the coordinator address baked into the script. *)
val restart_script : ?options:Options.t -> Runtime.t -> Restart_script.t

(** Kill every checkpointed process (and the coordinator), as when a
    cluster is lost or the user stops the computation before migrating.
    Checkpoint images survive on the nodes' filesystems. *)
val kill_computation : Runtime.t -> unit

(** Same, restricted to processes on [nodes] — stops one job of a
    multi-job cluster when the scheduler owns nodes exclusively per job. *)
val kill_nodes : Runtime.t -> nodes:int list -> unit

(** Can every image of [script] still be produced somewhere — as a file
    on some node, or from the store with every block on a surviving
    replica?  Chaos recovery uses this to decide restart vs relaunch. *)
val script_images_available : Runtime.t -> Restart_script.t -> bool

(** [restart rt script] bumps the generation, clears the script's
    domain from the discovery service, starts a fresh coordinator if
    needed, and spawns one [dmtcp_restart] per (possibly remapped) host.
    Nothing is copied: each restarter reads its images where they lie,
    through {!Image_chain.read} (its own node, then any node, then the
    store), and books a file on another node on its own disk as it
    would a local one.  The caller advances the engine; use
    {!await_restart}. *)
val restart : Runtime.t -> Restart_script.t -> unit

(** Run the engine until every restart process of [?options]'s domain
    has resumed its processes. *)
val await_restart : ?timeout:float -> ?options:Options.t -> Runtime.t -> unit

(** Seconds from restart initiation to the last process resuming. *)
val last_restart_seconds : ?options:Options.t -> Runtime.t -> float
