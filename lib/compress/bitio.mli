(** Bit-granular I/O for the Huffman coder. Bits are packed LSB-first
    within each byte, as in DEFLATE. *)

module Writer : sig
  type t

  val create : unit -> t

  (** [put t ~bits ~count] appends the low [count] bits of [bits]
      (0 <= count <= 24). *)
  val put : t -> bits:int -> count:int -> unit

  (** Pad to a byte boundary with zero bits and return the buffer. *)
  val contents : t -> string

  (** Bits written so far (before padding). *)
  val bit_length : t -> int
end

module Reader : sig
  type t

  val of_string : string -> t

  (** [get t count] reads [count] bits (LSB-first, 0 <= count <= 24).
      Raises {!Util.Codec.Reader.Corrupt} past end of input. *)
  val get : t -> int -> int

  (** [peek t count] returns the next [count] bits (count <= 24) without
      consuming them; positions past the end of the input read as zero.
      The table-driven Huffman decoder keys its root lookup on this. *)
  val peek : t -> int -> int

  (** [consume t count] discards [count] previously peeked bits. Raises
      {!Util.Codec.Reader.Corrupt} if fewer than [count] bits remain. *)
  val consume : t -> int -> unit

  (** Read a single bit. *)
  val bit : t -> int
end
