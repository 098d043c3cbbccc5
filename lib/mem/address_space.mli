(** A process's virtual address space: an ordered set of page-granular
    regions with byte-level access, copy-on-write forking, and the size
    accounting the checkpointer needs. *)

type t

val create : unit -> t

(** Regions in ascending address order. *)
val regions : t -> Region.t list

(** [map t ~kind ~perms ~bytes content] maps a fresh region of at least
    [bytes] (rounded up to whole pages) at the next free address and
    returns it.  [content] defaults to all-[Zero] pages. *)
val map :
  t ->
  kind:Region.kind ->
  perms:Region.perms ->
  bytes:int ->
  ?content:(int -> Page.content) ->
  unit ->
  Region.t

val find_region : t -> addr:int -> Region.t option

(** [read t ~addr ~len] returns [len] bytes; the range must lie within one
    region. Raises [Invalid_argument] otherwise. *)
val read : t -> addr:int -> len:int -> string

(** [write t ~addr s] stores [s]; each affected page is replaced by a
    fresh, unsized [Materialized] page (copy-on-write), so forked
    snapshots and the old pages' size memos are unaffected.  A page the
    write covers whole is built from [s] alone, and is [s] itself when
    [s] is exactly one page (strings are immutable). *)
val write : t -> addr:int -> string -> unit

(** Fork semantics: private regions are cloned copy-on-write; shared
    ([Mmap_shared]) regions alias the same pages. *)
val fork : t -> t

(** Alias of {!fork}, used by forked checkpointing to snapshot the space
    while the parent keeps running. *)
val snapshot : t -> t

(** Total mapped bytes. *)
val total_bytes : t -> int

(** Pages an incremental checkpoint ships: those {!Region.ships}
    selects, so every page of a shared mapping and the dirty pages of
    the rest.  An incremental image charges exactly these pages. *)
val dirty_pages : t -> int

(** Clear every region's dirty bits — the checkpointer calls this on the
    live space right after {!snapshot}, so the snapshot keeps the
    pre-checkpoint bits and later writes re-mark the live space. *)
val clear_dirty : t -> unit

(** Bytes in untouched ([Zero]) pages. *)
val zero_bytes : t -> int

(** Total mapped pages across all regions. *)
val total_pages : t -> int

(** Pages currently resident (lazy restore marks cold regions absent;
    everything else reports fully resident). *)
val resident_pages : t -> int

(** Structural equality of all regions (order-sensitive). *)
val equal : t -> t -> bool

(** [encode ?page w t] writes the allocation cursor, the next region id
    and every region through {!Region.encode} with the same [?page] step;
    [decode ?page] reads it back through {!Region.decode}.  Full images
    use the default steps (whole pages); delta images pass their own. *)
val encode : ?page:(Util.Codec.Writer.t -> Region.t -> int -> unit) -> Util.Codec.Writer.t -> t -> unit

val decode :
  ?page:(Util.Codec.Reader.t -> region:int -> int -> Page.content) -> Util.Codec.Reader.t -> t

(** [substitute_pages t ~region_id pages] swaps a region's page array for
    [pages] (aliasing, not copying) — used at restart to re-share an
    [Mmap_shared] segment between the processes that shared it before the
    checkpoint. Unknown ids are ignored. *)
val substitute_pages : t -> region_id:int -> Page.content array -> unit
