module R = Util.Codec.Reader

let magic = "DMZ2"
let default_block_size = 256 * 1024

(* Hard decode-side bounds: a header field past these is corrupt by
   definition, and rejecting it *before* any [Bytes.create] keeps a
   flipped varint from demanding a multi-GB allocation. *)
let max_block_size = 1 lsl 26

(* Cheapest possible encodings: RLE emits at most 128 bytes per 2-byte
   control pair (64x), deflate at most 258 bytes per 2-bit match (1032x).
   Anything above deflate's bound cannot be a real payload. *)
let max_expansion_per_byte = Deflate.max_expansion_per_byte

let plausible_len ~payload_bytes orig_len =
  orig_len >= 0 && orig_len <= (payload_bytes * max_expansion_per_byte) + 64

(* ------------------------------------------------------------------ *)
(* compression metrics: cheap unconditional accumulators surfaced by
   `dmtcp_sim trace --metrics` *)

let m_bytes_in algo = Trace.Metrics.counter ("compress." ^ Algo.name algo ^ ".bytes_in")
let m_bytes_out algo = Trace.Metrics.counter ("compress." ^ Algo.name algo ^ ".bytes_out")
let m_in_null = m_bytes_in Algo.Null
let m_out_null = m_bytes_out Algo.Null
let m_in_rle = m_bytes_in Algo.Rle
let m_out_rle = m_bytes_out Algo.Rle
let m_in_deflate = m_bytes_in Algo.Deflate
let m_out_deflate = m_bytes_out Algo.Deflate
let m_blocks_stored = Trace.Metrics.counter "compress.blocks.stored"
let m_blocks_rle = Trace.Metrics.counter "compress.blocks.rle"
let m_blocks_deflate = Trace.Metrics.counter "compress.blocks.deflate"

let note_pack algo ~bytes_in ~bytes_out =
  let m_in, m_out =
    match algo with
    | Algo.Null -> (m_in_null, m_out_null)
    | Algo.Rle -> (m_in_rle, m_out_rle)
    | Algo.Deflate -> (m_in_deflate, m_out_deflate)
  in
  Trace.Metrics.add m_in (float_of_int bytes_in);
  Trace.Metrics.add m_out (float_of_int bytes_out)

(* ------------------------------------------------------------------ *)
(* per-block encodings *)

(* Block encoding tags. Distinct from {!Algo}: the algo records what the
   caller asked for; each block then independently gets the cheapest
   encoding its algo allows (stored is always allowed, which bounds
   expansion on incompressible data to the framing overhead). *)
let enc_stored = 0
let enc_rle = 1
let enc_deflate = 2

let encode_block ~algo block =
  (* candidates by requested algo: Null never pays compression cost,
     Rle tries RLE, Deflate tries both RLE and deflate; stored is the
     universal fallback *)
  let best_tag = ref enc_stored and best = ref block in
  let consider tag payload =
    if String.length payload < String.length !best then begin
      best_tag := tag;
      best := payload
    end
  in
  (match algo with
  | Algo.Null -> ()
  | Algo.Rle -> consider enc_rle (Rle.compress block)
  | Algo.Deflate ->
    consider enc_rle (Rle.compress block);
    consider enc_deflate (Deflate.compress block));
  (match !best_tag with
  | t when t = enc_stored -> Trace.Metrics.incr m_blocks_stored
  | t when t = enc_rle -> Trace.Metrics.incr m_blocks_rle
  | _ -> Trace.Metrics.incr m_blocks_deflate);
  (!best_tag, !best)

(* ------------------------------------------------------------------ *)
(* DMZ2: block-based container.

   Layout: magic "DMZ2", algo tag, uvarint block_size, uvarint orig_len,
   uvarint nblocks, then per block: u8 encoding tag, uvarint original
   block length, u32 CRC-32 of the original block bytes, length-prefixed
   payload.  Blocks are independent — corruption is reported with the
   damaged block's index, and a future encoder can compress them in
   parallel or stream them. *)

let pack ?(block_size = default_block_size) ~algo s =
  if block_size <= 0 then invalid_arg "Container.pack: block_size must be positive";
  let n = String.length s in
  let nblocks = (n + block_size - 1) / block_size in
  let w = Util.Codec.Writer.create ~capacity:(n / 2 + 64) () in
  Util.Codec.Writer.raw w magic;
  Algo.encode w algo;
  Util.Codec.Writer.uvarint w block_size;
  Util.Codec.Writer.uvarint w n;
  Util.Codec.Writer.uvarint w nblocks;
  for b = 0 to nblocks - 1 do
    let off = b * block_size in
    let len = min block_size (n - off) in
    let block = String.sub s off len in
    let tag, payload = encode_block ~algo block in
    Util.Codec.Writer.u8 w tag;
    Util.Codec.Writer.uvarint w len;
    Util.Codec.Writer.u32 w (Int32.to_int (Util.Crc32.digest block) land 0xffffffff);
    Util.Codec.Writer.string w payload
  done;
  let packed = Util.Codec.Writer.contents w in
  note_pack algo ~bytes_in:n ~bytes_out:(String.length packed);
  packed

let read_header s =
  let r = R.of_string s in
  if R.raw r (String.length magic) <> magic then R.corrupt "bad magic";
  let algo = Algo.decode r in
  (r, algo)

let algo_of s = snd (read_header s)

let unpack s =
  let r, _ = read_header s in
  let payload_bytes = String.length s in
  let block_size = R.uvarint r in
  if block_size <= 0 || block_size > max_block_size then R.corrupt "implausible block size";
  let orig_len = R.uvarint r in
  if not (plausible_len ~payload_bytes orig_len) then R.corrupt "implausible declared length";
  let nblocks = R.uvarint r in
  if nblocks <> (orig_len + block_size - 1) / block_size then
    R.corrupt "block count disagrees with declared length";
  let out = Bytes.create orig_len in
  for b = 0 to nblocks - 1 do
    let off = b * block_size in
    let expect_len = min block_size (orig_len - off) in
    let fail msg = R.corrupt "block %d/%d: %s" b nblocks msg in
    let tag = R.u8 r in
    let blen = R.uvarint r in
    if blen <> expect_len then fail "bad block length";
    let crc = R.u32 r in
    let payload = R.string r in
    (* the decoders raise [R.Corrupt] themselves; this arm only prefixes
       the damaged block's index *)
    let block =
      try
        if tag = enc_stored then payload
        else if tag = enc_rle then Rle.decompress payload
        else if tag = enc_deflate then Deflate.decompress payload
        else R.corrupt "bad block encoding tag %d" tag
      with R.Corrupt msg -> fail msg
    in
    if String.length block <> expect_len then fail "block length mismatch";
    if Int32.to_int (Util.Crc32.digest block) land 0xffffffff <> crc then fail "CRC mismatch";
    Bytes.blit_string block 0 out off expect_len
  done;
  R.expect_end r;
  Bytes.unsafe_to_string out

(* ------------------------------------------------------------------ *)
(* Frame boundaries, for content-addressed chunking.

   Each DMZ2 per-block record is self-delimiting and covers a fixed
   256 KiB window of the *input*, so its boundaries do not shift when a
   neighbouring block's compressed payload changes size.  That makes
   the records the natural dedup unit of a content-addressed store: a
   page dirtied in one input block re-encodes exactly one frame. *)

let frame_bounds s =
  try
    let r, _ = read_header s in
    let pos () = String.length s - R.remaining r in
    let block_size = R.uvarint r in
    let orig_len = R.uvarint r in
    let nblocks = R.uvarint r in
    if
      block_size <= 0 || block_size > max_block_size
      || nblocks <> (orig_len + block_size - 1) / block_size
    then None
    else begin
      let bounds = ref [] in
      let start = ref 0 in
      let cut () =
        let p = pos () in
        bounds := (!start, p - !start) :: !bounds;
        start := p
      in
      cut ();
      for _ = 1 to nblocks do
        let (_ : int) = R.u8 r in
        let (_ : int) = R.uvarint r in
        let (_ : int) = R.u32 r in
        let (_ : string) = R.string r in
        cut ()
      done;
      R.expect_end r;
      Some (List.rev !bounds)
    end
  with R.Corrupt _ -> None
