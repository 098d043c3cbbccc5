(** DEFLATE-style entropy coder: LZ77 tokens encoded with two canonical
    Huffman codes (literal/length and distance), using the standard
    DEFLATE length and distance bucket tables.

    The container format is our own (a single dynamic block with code
    lengths stored explicitly); it is not RFC 1951 bit-compatible, but the
    compression pipeline — hash-chain matching, canonical Huffman, extra
    bits — is the real algorithm, so measured ratios are representative of
    gzip's. *)

(** Worst-case decoded bytes per payload byte (a 2-bit match emitting 258
    bytes); declared lengths above [payload * this] are rejected before
    any allocation is sized from them. *)
val max_expansion_per_byte : int

(** [compress s] returns the compressed representation, which depends
    on [s] alone.  It tokenizes with {!Lz77.tokenize}, whose tables are
    per domain. *)
val compress : string -> string

(** [decompress s] inverts {!compress}. Raises
    {!Util.Codec.Reader.Corrupt} on malformed input. *)
val decompress : string -> string
