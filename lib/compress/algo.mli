(** Compression scheme selector.

    DMTCP invokes gzip by default before saving checkpoint images;
    [Deflate] plays that role here.  [Null] corresponds to running with
    compression disabled (the "uncompressed" series in Figures 4–6), and
    [Rle] is a cheap baseline used by the ablation benchmarks. *)

type t = Null | Rle | Deflate

val all : t list
val name : t -> string

(** Inverse of {!name}. *)
val of_name : string -> t option

(** Compress a raw payload (body only — see {!Container} for the framed
    format with CRC). *)
val compress : t -> string -> string

val encode : Util.Codec.Writer.t -> t -> unit
val decode : Util.Codec.Reader.t -> t
