(** Canonical Huffman coding over a fixed symbol alphabet. *)

(** An encoder assigns each symbol a (code, bit-length) pair. *)
type encoder

(** A decoder reconstructed from the same code lengths. *)
type decoder

(** Maximum code length produced (DEFLATE-compatible). *)
val max_bits : int

(** [lengths_of_freqs freqs] computes canonical code lengths (0 for unused
    symbols) from symbol frequencies, bounded by {!max_bits}.  At least one
    symbol must have nonzero frequency. *)
val lengths_of_freqs : int array -> int array

(** Build an encoder from code lengths. *)
val encoder_of_lengths : int array -> encoder

(** Build a decoder from the same lengths. Raises
    {!Util.Codec.Reader.Corrupt} if the lengths do not describe a prefix
    code. *)
val decoder_of_lengths : int array -> decoder

(** [encode enc w sym] appends [sym]'s code. Raises if [sym] is unused. *)
val encode : encoder -> Bitio.Writer.t -> int -> unit

(** [tables enc] is the ((bit-reversed) code, bit-length) arrays indexed
    by symbol, for hot encode loops that inline the {!Bitio.Writer} calls;
    lengths are 0 for unused symbols.  The arrays are live — do not
    mutate them. *)
val tables : encoder -> int array * int array

(** [decode dec r] reads one symbol; a bit pattern no code covers is
    {!Util.Codec.Reader.Corrupt}. *)
val decode : decoder -> Bitio.Reader.t -> int
