(** Replicated content-addressed checkpoint store.

    Layered on {!Storage.Target}: checkpoint images, chunked by the
    caller on DMZ2 frame boundaries, are addressed by (CRC-32, length)
    digest and written once — successive generations of the same
    process dedup against prior generations, so an incremental
    checkpoint's unchanged pages cost zero target bytes.  New chunks
    are replicated to [replicas] distinct nodes with a write [quorum];
    a per-cluster catalog maps (lineage, generation, image name) to the
    chunk list; a generational GC keeps the newest [keep] generations
    per lineage.  Restart resolves images through the catalog and falls
    back to a surviving replica when the preferred node's disk is gone.

    Storage delays are booked in the simulation's modeled bytes: each
    put scales real chunk lengths by [sim_bytes / real_len], so a
    deduplicated generation pays I/O time proportional to the bytes it
    actually ships. *)

module Digest : sig
  type t = { crc : int32; fnv : int64; len : int }

  val of_chunk : string -> t
  val to_string : t -> string
  val equal : t -> t -> bool
  val compare : t -> t -> int
end

(** Raised by {!fetch} when catalog blocks have no surviving replica;
    carries the missing digests by name. *)
exception Missing_blocks of string list

type manifest = {
  m_lineage : string;          (** (hostid, pid), stable across restarts *)
  m_generation : int;
  m_name : string;             (** image filename, unique per upid *)
  m_program : string;
  m_blocks : Digest.t list;    (** in image order *)
  m_real_len : int;            (** concatenated chunk bytes *)
  m_sim_bytes : int;           (** modeled image size (delay currency) *)
  m_base : string option;
      (** delta images: catalog name of the base image this manifest's
          payload resolves against.  {!gc_lineage} keeps base chains of
          retained (or pinned) manifests alive transitively. *)
  m_compacted : bool;
      (** written by the background delta-chain compactor: a consolidated
          full image that replaced a delta at the same catalog name *)
}

type stats = {
  blocks_written : int;
  blocks_deduped : int;
  blocks_replicated : int;     (** extra copies beyond the primary *)
  blocks_gcd : int;
  bytes_written : int;         (** modeled bytes, primary copy *)
  bytes_deduped : int;         (** modeled bytes dedup avoided writing *)
  bytes_reclaimed : int;       (** modeled bytes freed by GC/overwrite *)
}

type gc_report = { gc_manifests : int; gc_blocks : int; gc_bytes : int }

type t

(** [create ~engine ~targets ()] — [targets.(i)] is node [i]'s storage.
    [replicas] (default 2) is clamped to the node count; [quorum]
    defaults to a majority of [replicas]; [keep] (default 2) is the GC
    retention in generations per lineage ([0] disables GC). *)
val create :
  ?replicas:int ->
  ?quorum:int ->
  ?keep:int ->
  engine:Sim.Engine.t ->
  targets:Storage.Target.t array ->
  unit ->
  t

val replicas : t -> int
val quorum : t -> int
val keep : t -> int

(** Cumulative dedup/replication/GC accounting (modeled bytes). *)
val stats : t -> stats

(** Catalog contents, newest first. *)
val manifests : t -> manifest list

val find : t -> name:string -> manifest option

(** [put t ~node ...] chunks were produced on [node] (the primary
    replica).  Dedups against every prior generation, replicates new
    chunks, updates the catalog, and returns the delay until the write
    quorum is durable — remaining replicas complete in the background.
    Re-putting an existing [name] (interval checkpoints at the same
    generation) replaces that manifest.  [sim_bytes] is the modeled
    image size used for delay booking.  [base] records the delta chain:
    the catalog name of the image this one's payload resolves against.
    [compacted] marks consolidated full images written by the
    delta-chain compactor. *)
val put :
  ?base:string ->
  ?compacted:bool ->
  t ->
  node:int ->
  lineage:string ->
  generation:int ->
  name:string ->
  program:string ->
  sim_bytes:int ->
  chunks:string list ->
  float

(** [fetch t ~node ~name] reassembles the image, striping block reads
    across the surviving replicas: each block reads from the currently
    least-loaded replica target (the reader's own disk wins ties), so
    an N-replica image streams from all N targets in parallel while
    per-target queuing stays honest through each target's serialization
    cursor.  The reads add up to the image's [m_sim_bytes], as a
    flat-file restart of the same image books; striping only changes
    which targets serve them.  Returns the bytes and the read delay,
    [None] when the name is not in the catalog.  Raises {!Missing_blocks} when referenced
    blocks have no surviving replica. *)
val fetch : t -> node:int -> name:string -> (string * float) option

(** Catalogued with every block on at least one surviving replica
    (no storage time booked). *)
val contains : t -> name:string -> bool

(** Reassemble without booking storage time — inspection only. *)
val peek : t -> name:string -> string option

(** [pin t ~lineage ~generation] protects every manifest of [lineage] at
    [generation] or newer from GC (both {!gc_lineage} retention and an
    operator {!gc}).  A scheduler holding a preempted job's checkpoint as
    its only copy pins it so pid reuse — a new job on the same node
    acquiring the same lineage and aging the catalog — cannot collect it.
    Re-pinning replaces the previous pin for the lineage. *)
val pin : t -> lineage:string -> generation:int -> unit

(** Remove the pin for [lineage] (no-op if none). *)
val unpin : t -> lineage:string -> unit

(** The pinned generation of [lineage], if any. *)
val pinned : t -> lineage:string -> int option

(** Drop generations of [lineage] older than the newest [keep]
    (default: the store's [keep]); chunks nothing references any more
    are reclaimed on every replica.  Pinned manifests are never
    collected, and neither is any manifest a retained (or pinned) delta
    transitively resolves against through [m_base] — GC cannot orphan a
    delta chain. *)
val gc_lineage : ?keep:int -> t -> lineage:string -> gc_report

(** {!gc_lineage} over every lineage in the catalog. *)
val gc : ?keep:int -> t -> gc_report

(** Fail-stop disk loss: every replica on [node] is gone and the node
    receives no new placements.  (Distinct from a process crash — the
    simulated VFS survives those.) *)
val drop_node : t -> int -> unit

(** Unique blocks currently stored. *)
val block_count : t -> int

val replica_count : t -> digest:Digest.t -> int

(** Catalog self-check: every referenced block exists, matches its
    digest, and has a surviving replica.  Returns human-readable
    problems, empty when healthy. *)
val verify : t -> string list
