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
val ro : perms

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

(** Number of dirty pages. *)
val dirty_count : t -> int

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

val kind_name : kind -> string

val encode : Util.Codec.Writer.t -> t -> unit
val decode : Util.Codec.Reader.t -> t

(** The kind codec alone — delta images serialize a region skeleton
    (identity and shape, no page payloads) and need it separately. *)
val encode_kind : Util.Codec.Writer.t -> kind -> unit

val decode_kind : Util.Codec.Reader.t -> kind

(** Structural equality of metadata and page contents by {!Page.equal}
    (synthetic pages compare by descriptor; size memos are ignored). *)
val equal : t -> t -> bool
