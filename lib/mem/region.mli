(** A contiguous mapped range of an address space, page-granular, in the
    spirit of a line of [/proc/<pid>/maps]. *)

type kind =
  | Text                                      (** program/library code *)
  | Data                                      (** initialized globals *)
  | Heap
  | Stack
  | Mmap_anon
  | Mmap_shared of { backing_path : string }  (** shared mapping with a backing file *)

type perms = { read : bool; write : bool; exec : bool }

val rw : perms
val rx : perms

type t = {
  id : int;
  start_addr : int;
  kind : kind;
  perms : perms;
  pages : Page.content array;  (** slots are mutable; contents immutable *)
  dirty : Bytes.t;
      (** byte-per-page dirty bits since the last checkpoint; set by
          {!set_page}, cleared by {!clear_dirty}, all-dirty on
          {!create}/{!decode}.  Excluded from {!encode} and {!equal}. *)
  resident : Bytes.t;
      (** byte-per-page residency bits for demand-paged lazy restore: a
          lazily restored region starts mostly absent
          ({!mark_all_absent}) and pages become resident on first touch
          ({!set_resident}, also by {!set_page}) or via the background
          prefetcher.  All-resident on {!create}/{!decode}; copied by
          {!clone_private}; excluded from {!encode} and {!equal}.
          Residency is purely a time-accounting device — page contents
          are always materially present. *)
}

val npages : t -> int
val byte_size : t -> int
val end_addr : t -> int

(** [create ~id ~start_addr ~kind ~perms ~npages content] builds a region
    whose [i]-th page is [content i]. *)
val create :
  id:int -> start_addr:int -> kind:kind -> perms:perms -> npages:int -> (int -> Page.content) -> t

(** Private copy-on-write clone: a fresh page array sharing the immutable
    page contents.  Shared mappings alias the same array instead (decided
    by {!Address_space.fork}). *)
val clone_private : t -> t

(** Same region object with the page array aliased (shared mapping
    semantics: writes by either side are seen by both). *)
val alias : t -> t

(** [set_page t i content] replaces page [i] and marks it dirty. *)
val set_page : t -> int -> Page.content -> unit

(** Page [i] was written since the last {!clear_dirty} (conservative:
    freshly created or decoded regions report every page dirty). *)
val is_dirty : t -> int -> bool

(** The one page-shipping rule: page [i] goes into an incremental image
    (inline in a delta, and charged by its size accounting) when it
    {!is_dirty}, or always when the region is [Mmap_shared].  Another
    process writes a shared segment through its own attached view of the
    region record and may clear the bits this view would read, so a
    shared region's bitmap cannot be trusted to have seen every store. *)
val ships : t -> int -> bool

(** Mark every page clean — called by the checkpointer once a snapshot
    of the region has been taken. *)
val clear_dirty : t -> unit

(** Page [i] has been paged in since the region was lazily restored
    (always true for eagerly restored or freshly created regions). *)
val is_resident : t -> int -> bool

(** Mark page [i] resident (first touch, or prefetcher pass). *)
val set_resident : t -> int -> unit

(** Mark every page absent — the lazy restart path calls this on cold
    regions right after decode so first touches fault in. *)
val mark_all_absent : t -> unit

(** Number of resident pages. *)
val resident_count : t -> int

(** [encode ?page w t] writes the region's identity, shape and page
    count, then calls [page w t i] for each page index in order.  The
    default writes page [i] whole; a delta image passes a step that
    writes a reference for each page that does not ship ({!ships}). *)
val encode : ?page:(Util.Codec.Writer.t -> t -> int -> unit) -> Util.Codec.Writer.t -> t -> unit

(** [decode ?page r] reads what {!encode} wrote: the page count through
    {!Util.Codec.Reader.count}, then [page r ~region:id i] for [i] in
    index order, where [id] is the region's id.  The default reads a
    whole page.  Every page of the result is dirty and resident. *)
val decode :
  ?page:(Util.Codec.Reader.t -> region:int -> int -> Page.content) -> Util.Codec.Reader.t -> t

(** Structural equality of metadata and page contents by {!Page.equal}
    (synthetic pages compare by descriptor; size memos are ignored). *)
val equal : t -> t -> bool
