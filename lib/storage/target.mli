(** Storage targets for checkpoint images.

    Three models from the paper's testbed (§5.2): a local disk per node
    (most figures), a shared SAN reachable directly from 8 of the 32 nodes
    over Fibre Channel, and NFS re-export of that SAN for the remaining
    nodes (Figure 5b).

    Local-disk writes pass through a page cache: up to the free cache they
    proceed at memory-copy speed, beyond it at raw disk speed.  This is
    what makes Figure 6's implied bandwidth exceed the physical disk — the
    paper observes checkpoints complete faster than 100 MB/s would allow
    because the kernel absorbs them in cache.  DMTCP's optional [sync]
    waits for the write-back and costs [dirty / raw_rate] (§5.2 measures
    +0.79 s for ParGeant4).

    Concurrent writers to one target serialize on a shared cursor, which
    makes the aggregate bandwidth — the quantity a barrier-synchronized
    checkpoint cares about — come out right. *)

type t

(** [local_disk engine ()] — defaults: 100 MB/s raw, 350 MB/s through
    cache, 6 GB cache, 300 MB/s warm read. *)
val local_disk :
  Sim.Engine.t ->
  ?raw_rate:float ->
  ?cached_rate:float ->
  ?cache_bytes:int ->
  ?read_rate:float ->
  unit ->
  t

(** [san engine ()] — defaults: 400 MB/s aggregate, 1 ms per-op latency. *)
val san : Sim.Engine.t -> ?rate:float -> ?latency:float -> unit -> t

(** [nfs engine ~backend ()] — writes traverse the NFS server's NIC
    (default 117 MB/s × 0.6 protocol efficiency, shared by all NFS
    clients) and then the backend target. *)
val nfs : Sim.Engine.t -> ?server_rate:float -> backend:t -> unit -> t

val describe : t -> string

(** Tag the target with its owning node so trace events carry a node id
    ([-1], the default, means shared/global — e.g. the SAN). *)
val set_node : t -> int -> unit

(** [write t ~bytes] books a write and returns the delay (from now) until
    it completes. *)
val write : t -> bytes:int -> float

(** [read t ~bytes] analogously for restart-time reads. *)
val read : t -> bytes:int -> float

(** Time to flush dirty cached bytes to the raw device; resets the dirty
    counter. Zero for SAN/NFS (their writes are synchronous end-to-end). *)
val sync : t -> float

(** Dirty bytes awaiting write-back (local disks only). *)
val dirty_bytes : t -> int

(** Forget cache occupancy and queue state between experiment
    repetitions.  Also restores nominal speed. *)
val reset : t -> unit

(** {2 Fault injection}

    [set_slowdown t f] degrades the device: every subsequently booked
    service interval is multiplied by [f] (clamped to ≥ 1).  [f = 1.]
    restores nominal speed. *)
val set_slowdown : t -> float -> unit
