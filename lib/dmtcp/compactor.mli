(** Background delta-chain compaction.

    Squashes over-deep delta chains in the checkpoint store into
    consolidated full images, re-put at the SAME catalog name — restart
    scripts, child deltas and pins keep resolving, now at chain depth 0.
    Bounds restart chain depth independently of the manager's
    write-time bound of 8 links and shrinks the GC keep-set closure.  Driven off the scheduler tick
    (conflict-checked against in-flight checkpoint/restart operations
    there); safe to call directly for tests and tools. *)

(** Manifests whose delta chain is deeper than [depth], newest first. *)
val candidates : Store.t -> depth:int -> Store.manifest list

(** [compact_one store ~node m] squashes [m] into a full image written
    from [node] (must be alive), returning the booked write delay.
    [None] when the chain cannot be resolved — every error path leaves
    the catalog untouched. *)
val compact_one : Store.t -> node:int -> Store.manifest -> float option

(** [run store ~node ~depth] compacts up to [max] (default 1) chains
    deeper than [depth] and GCs each touched lineage; returns the names
    compacted. *)
val run : ?max:int -> Store.t -> node:int -> depth:int -> string list
