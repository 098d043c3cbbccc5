(** Framed compressed payloads, playing the role of the [.gz] files DMTCP
    writes.

    The current format ("DMZ2") is block-based: the input is split into
    fixed-size blocks (default 256 KiB) and each block is independently
    encoded with the cheapest of stored / RLE / deflate that the requested
    {!Algo.t} allows.  The stored fallback bounds expansion on
    incompressible data to the per-block framing overhead, a per-block
    CRC-32 names the damaged block on corruption, and block independence
    lets {!pack} encode the blocks on every core. *)

(** [pack ~algo s] frames and compresses [s] into a DMZ2 container.
    [block_size] is exposed for tests (block-boundary coverage); the
    default is 256 KiB.  The blocks are encoded and checksummed through
    {!Util.Par.init}; the [compress.*] counters are updated and the
    container written on the calling domain, in block order, so the
    bytes and the counts equal a one-domain encoding's. *)
val pack : ?block_size:int -> algo:Algo.t -> string -> string

(** [unpack s] decompresses and verifies lengths and CRCs.  Raises
    {!Util.Codec.Reader.Corrupt} on any damage; a block's length, tag or
    CRC mismatch names the damaged block index.  Corrupt or implausible
    header fields are rejected before any allocation sized from them. *)
val unpack : string -> string

(** Scheme recorded in a frame, without unpacking the body.  Raises
    {!Util.Codec.Reader.Corrupt} on a bad magic or tag. *)
val algo_of : string -> Algo.t

(** [frame_bounds s] returns the DMZ2 frame boundaries of [s]: the
    header and each per-block record as [(offset, length)] pairs, in
    order, whose concatenation reproduces [s] exactly.  Block records
    cover fixed windows of the input, so a localized change to the
    uncompressed data re-encodes exactly one frame — the dedup unit of
    the content-addressed checkpoint store.  [None] if [s] is not a
    well-formed DMZ2 container (raw strings dedup as a single unit). *)
val frame_bounds : string -> (int * int) list option
