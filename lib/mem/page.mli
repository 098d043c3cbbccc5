(** A fixed-size virtual-memory page and its content representation.

    Pages are immutable values: {!Address_space.write} installs a fresh
    page rather than editing one, and a copy-on-write snapshot shares the
    page values of its parent.  So a real page's compressed length is a
    property of the value, and {!compressed_size} memoizes it there. *)

(** Accounting page size in bytes.  Real x86 pages are 4 KiB; the
    simulator tracks content at 64 KiB granularity so that Figure 6's
    70 GB cluster-wide footprints stay cheap to represent.  Compression
    ratios are per-content-class, so the coarser granularity does not
    change size accounting. *)
val size : int

type content =
  | Zero                                             (** never written *)
  | Materialized of {
      data : string;  (** real bytes, length {!size} *)
      mutable sized : (Compress.Algo.t * int) option;
          (** memo of {!compressed_size}: the scheme last priced and the
              length it gave.  [None] until the page is first sized;
              written only by {!size_all}, on the domain that calls it,
              and ignored by {!equal} and {!encode}. *)
    }
  | Synthetic of { seed : int64; cls : Entropy.t }   (** generated on demand *)

(** [of_string data] is an unsized [Materialized] page.  Raises
    [Invalid_argument] unless [data] is {!size} bytes long. *)
val of_string : string -> content

(** The page's {!size} bytes.  [Zero] pages share one string of zeros;
    [Synthetic] pages generate deterministically from their seed, so
    materializing twice gives equal bytes. *)
val materialize : content -> string

(** True only for [Zero] (a materialized page of zeros is not detected). *)
val is_zero : content -> bool

(** Bytes this page would occupy after compression with [algo]:
    real compression for [Materialized], ratio-extrapolated for
    [Synthetic], ~0 for [Zero]. Used for simulated image sizing.  A
    [Materialized] page not yet sized under [algo] is sized by
    {!size_all}; later calls read its memo. *)
val compressed_size : Compress.Algo.t -> content -> int

(** [size_all algo iter] sets the memo of every [Materialized] page that
    [iter visit] passes to [visit] and that is not yet sized under
    [algo], so that {!compressed_size} then reads it.  It is the one
    function that compresses a page.  Each distinct content is
    compressed once, through {!Util.Par.init}, however many pages hold
    it; the memos are written on the calling domain. *)
val size_all : Compress.Algo.t -> ((content -> unit) -> unit) -> unit

(** Equality of contents: same variant and same bytes or descriptor.  The
    size memo is ignored, so a sized page equals an unsized copy of it
    (polymorphic equality would not). *)
val equal : content -> content -> bool

val encode : Util.Codec.Writer.t -> content -> unit
val decode : Util.Codec.Reader.t -> content
