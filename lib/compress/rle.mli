(** PackBits-style run-length encoding: a cheap baseline compressor used
    in ablations against {!Deflate}. *)

val compress : string -> string

(** Inverse of {!compress}; malformed input is {!Util.Codec.Reader.Corrupt}. *)
val decompress : string -> string
