(** Binary serialization used for checkpoint images, connection tables and
    program state blobs.

    The format is self-describing only to the extent the caller makes it so:
    readers must consume fields in the exact order writers produced them.
    Integers use LEB128 varints (with zigzag for signed values) so that the
    common small values cost one byte; fixed-width forms are provided for
    fields whose size must be predictable (e.g. image headers). *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t

  (** Number of bytes written so far. *)
  val length : t -> int

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val i64 : t -> int64 -> unit

  (** Unsigned LEB128. Raises [Invalid_argument] on negative input. *)
  val uvarint : t -> int -> unit

  (** Zigzag-encoded signed varint. *)
  val varint : t -> int -> unit

  val f64 : t -> float -> unit
  val bool : t -> bool -> unit

  (** Length-prefixed string. *)
  val string : t -> string -> unit

  (** Raw bytes, no length prefix. *)
  val raw : t -> string -> unit

  val option : (t -> 'a -> unit) -> t -> 'a option -> unit
  val list : (t -> 'a -> unit) -> t -> 'a list -> unit
  val array : (t -> 'a -> unit) -> t -> 'a array -> unit
  val pair : (t -> 'a -> unit) -> (t -> 'b -> unit) -> t -> 'a * 'b -> unit

  val contents : t -> string
end

module Reader : sig
  type t

  (** Raised on malformed input (truncation, bad tag, out-of-range
      count, trailing junk).  Every decoder of image, store or wire
      bytes reports damage with this exception and no other. *)
  exception Corrupt of string

  (** [corrupt fmt ...] raises {!Corrupt} with the formatted message. *)
  val corrupt : ('a, Format.formatter, unit, 'b) format4 -> 'a

  val of_string : ?pos:int -> ?len:int -> string -> t

  (** Bytes remaining. *)
  val remaining : t -> int

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val i64 : t -> int64
  val uvarint : t -> int
  val varint : t -> int
  val f64 : t -> float
  val bool : t -> bool
  val string : t -> string

  (** [raw t n] reads exactly [n] bytes; a negative [n] is {!Corrupt}. *)
  val raw : t -> int -> string

  (** A uvarint element count in [0 .. remaining t], else {!Corrupt}.
      Sound for any encoding whose elements take at least one byte each;
      {!list} and {!array} read their count through it. *)
  val count : t -> int

  val option : (t -> 'a) -> t -> 'a option
  val list : (t -> 'a) -> t -> 'a list
  val array : (t -> 'a) -> t -> 'a array
  val pair : (t -> 'a) -> (t -> 'b) -> t -> 'a * 'b

  (** Raises {!Corrupt} unless all input has been consumed. *)
  val expect_end : t -> unit
end

(** [roundtrip enc dec v] encodes then decodes [v]; used by tests. *)
val roundtrip : (Writer.t -> 'a -> unit) -> (Reader.t -> 'a) -> 'a -> 'a
