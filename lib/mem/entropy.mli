(** Entropy classes for synthetic page contents.

    Large experiments (Figure 6 checkpoints up to 70 GB of cluster memory)
    cannot materialize every byte.  Pages therefore carry a *class*; bulk
    pages are generated on demand from a seed, and their compressed size is
    extrapolated from the measured ratio of the real {!Compress.Deflate}
    codec on sample pages of the same class.  Small runs and all protocol
    tests use fully materialized pages and the real compressor. *)

type t =
  | Zeros    (** untouched allocations, e.g. NAS/IS's over-provisioned buckets *)
  | Text     (** natural-language-like data: strings, logs, interpreter heaps *)
  | Code     (** machine-code-like: the 540 dynamic libraries of runCMS *)
  | Numeric  (** arrays of floats with smooth variation: scientific data *)
  | Random   (** incompressible data *)

val all : t list
val name : t -> string

(** [generate cls ~seed ~len] deterministically produces [len] bytes of the
    class ([seed] selects the variant). *)
val generate : t -> seed:int64 -> len:int -> bytes

(** Measured ratio [compressed_size / original_size] of {!Compress.Deflate}
    on sample pages of this class (memoized; computed once per process by
    running the real compressor). *)
val deflate_ratio : t -> float

(** Ratio for an arbitrary scheme ([Null] is 1.0). *)
val ratio : Compress.Algo.t -> t -> float

val encode : Util.Codec.Writer.t -> t -> unit
val decode : Util.Codec.Reader.t -> t
