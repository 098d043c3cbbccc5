(** CRC-32 (IEEE 802.3 polynomial, as used by gzip), computed by
    slicing-by-8: eight table lookups per eight input bytes. *)

type t = int32

(** Initial accumulator. *)
val init : t

(** [update acc s pos len] folds [len] bytes of [s] starting at [pos] into
    the accumulator.  Raises [Invalid_argument] unless [pos] and [len]
    name a valid range of [s]. *)
val update : t -> string -> int -> int -> t

(** Finalize an accumulator into the standard CRC value. *)
val finish : t -> int32

(** One-shot digest of a full string. *)
val digest : string -> int32
