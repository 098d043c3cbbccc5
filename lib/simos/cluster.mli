(** A whole simulated cluster: one engine, one fabric, one discovery
    service, and a kernel plus storage target per node.

    A cluster owns its run: its run store ({!local}) holds the layers
    above (the DMTCP runtime, the proxy byte ledger), and its kernels
    number descriptions and ptys together, so two runs can share a
    process and none needs a reset.

    Mirrors the paper's testbed (§5.2): 32 nodes, 4 cores each, Gigabit
    Ethernet, local disk per node; optionally a SAN reachable directly
    from the first 8 nodes and via NFS from the rest (Figure 5b). *)

type storage_config =
  | Local_disks             (** one independent disk per node (default) *)
  | San_and_nfs of { direct_nodes : int }
      (** shared SAN for the first [direct_nodes] nodes, NFS re-export of
          it for the others *)

type t

val create :
  ?seed:int64 ->
  ?latency:float ->
  ?bandwidth:float ->
  ?cores_per_node:int ->
  ?storage:storage_config ->
  nodes:int ->
  unit ->
  t

val engine : t -> Sim.Engine.t
val fabric : t -> Simnet.Fabric.t
val discovery : t -> Simnet.Discovery.t

(** The run store, the [local] of every program ctx on the cluster. *)
val local : t -> Local.t
val nodes : t -> int
val kernel : t -> int -> Kernel.t

(** Install the same hook table in every kernel. *)
val set_hooks : t -> Kernel.hooks -> unit

(** Run the simulation until quiescent or [until]. *)
val run : ?until:float -> t -> unit

(** Current virtual time. *)
val now : t -> float

(** Every running process, cluster-wide, as (kernel, process), sorted by
    (node, pid). *)
val all_processes : t -> (Kernel.t * Kernel.process) list

(** Reset each node's storage-target cache/queue state (between
    experiment repetitions). *)
val reset_storage : t -> unit

(** Node [i]'s storage target — exposed for fault injection
    ({!Storage.Target.set_slowdown}). *)
val target : t -> int -> Storage.Target.t

(** Fail-stop crash of node [i]: kill every process on it at the current
    virtual time.  Exit hooks run; remote peers observe EOF. *)
val crash_node : t -> int -> unit

(** Administrative up/down view of node [i] (all nodes start up).
    {!crash_node} does not change it — a crash models a reboot;
    {!fail_node} does. *)
val node_up : t -> int -> bool

(** Nodes currently marked up, ascending. *)
val up_nodes : t -> int list

(** {!crash_node} plus marking the node down: the machine is lost, not
    rebooting, so schedulers must migrate its work elsewhere. *)
val fail_node : t -> int -> unit
