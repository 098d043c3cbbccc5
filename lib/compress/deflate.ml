(* Standard DEFLATE length codes: symbol 257 + index. *)
let length_base =
  [| 3; 4; 5; 6; 7; 8; 9; 10; 11; 13; 15; 17; 19; 23; 27; 31; 35; 43; 51; 59; 67; 83; 99; 115; 131; 163; 195; 227; 258 |]

let length_extra =
  [| 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3; 4; 4; 4; 4; 5; 5; 5; 5; 0 |]

let dist_base =
  [| 1; 2; 3; 4; 5; 7; 9; 13; 17; 25; 33; 49; 65; 97; 129; 193; 257; 385; 513; 769; 1025; 1537; 2049; 3073; 4097; 6145; 8193; 12289; 16385; 24577 |]

let dist_extra =
  [| 0; 0; 0; 0; 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6; 7; 7; 8; 8; 9; 9; 10; 10; 11; 11; 12; 12; 13; 13 |]

let eob = 256
let num_litlen = 286
let num_dist = 30

(* Symbol lookup is on the per-token hot path; replace the linear base-
   table scans with O(1) tables (zlib's _length_code/_dist_code layout):
   lengths are direct-indexed, distances use 256 entries for 1..256 plus
   256 entries indexed by (dist-1) lsr 7 for 257..32768. *)
let length_code =
  let t = Array.make (Lz77.max_match + 1) 0 in
  let sym = ref 0 in
  for len = Lz77.min_match to Lz77.max_match do
    while
      !sym + 1 < Array.length length_base && length_base.(!sym + 1) <= len
    do
      incr sym
    done;
    t.(len) <- !sym
  done;
  t

let dist_code =
  let t = Array.make 512 0 in
  let sym = ref 0 in
  for dist = 1 to 256 do
    while !sym + 1 < Array.length dist_base && dist_base.(!sym + 1) <= dist do
      incr sym
    done;
    t.(dist - 1) <- !sym
  done;
  for i = 0 to 255 do
    (* representative distance for bucket i of the high half *)
    let dist = (i lsl 7) + 1 in
    let sym = ref 0 in
    while !sym + 1 < Array.length dist_base && dist_base.(!sym + 1) <= dist do
      incr sym
    done;
    t.(256 + i) <- !sym
  done;
  t

let length_symbol len = Array.unsafe_get length_code len

let dist_symbol dist =
  if dist <= 256 then Array.unsafe_get dist_code (dist - 1)
  else Array.unsafe_get dist_code (256 + ((dist - 1) lsr 7))

let compress s =
  let tokens = Lz77.tokenize s in
  let toks = tokens.Lz77.toks and ntoks = tokens.Lz77.count in
  let lit_freq = Array.make num_litlen 0 in
  let dist_freq = Array.make num_dist 0 in
  for i = 0 to ntoks - 1 do
    let tok = Array.unsafe_get toks i in
    if Lz77.tok_is_literal tok then begin
      let c = Lz77.tok_char tok in
      Array.unsafe_set lit_freq c (Array.unsafe_get lit_freq c + 1)
    end
    else begin
      let ls = 257 + length_symbol (Lz77.tok_len tok) in
      Array.unsafe_set lit_freq ls (Array.unsafe_get lit_freq ls + 1);
      let ds = dist_symbol (Lz77.tok_dist tok) in
      Array.unsafe_set dist_freq ds (Array.unsafe_get dist_freq ds + 1)
    end
  done;
  lit_freq.(eob) <- lit_freq.(eob) + 1;
  let lit_lens = Huffman.lengths_of_freqs lit_freq in
  let has_dist = Array.exists (fun f -> f > 0) dist_freq in
  let dist_lens = if has_dist then Huffman.lengths_of_freqs dist_freq else Array.make num_dist 0 in
  let lit_enc = Huffman.encoder_of_lengths lit_lens in
  let dist_enc = if has_dist then Some (Huffman.encoder_of_lengths dist_lens) else None in
  let bw = Bitio.Writer.create () in
  (* emit with the code tables inlined: one [put] per literal, and the
     length/distance extra bits fused into their symbol's code so a match
     costs two [put]s (huffman codes are <= 15 bits and extras <= 13, so a
     fused field fits [put]'s 24-bit limit only for lengths; distances get
     a separate put when extras overflow it) *)
  let lit_codes, lit_lens = Huffman.tables lit_enc in
  let dist_codes, dist_lens =
    match dist_enc with Some de -> Huffman.tables de | None -> ([||], [||])
  in
  for i = 0 to ntoks - 1 do
    let tok = Array.unsafe_get toks i in
    if Lz77.tok_is_literal tok then
      Bitio.Writer.put bw ~bits:(Array.unsafe_get lit_codes tok)
        ~count:(Array.unsafe_get lit_lens tok)
    else begin
      let len = Lz77.tok_len tok and dist = Lz77.tok_dist tok in
      let ls = length_symbol len in
      let sym = 257 + ls in
      let c = Array.unsafe_get lit_codes sym and cl = Array.unsafe_get lit_lens sym in
      if cl = 0 then invalid_arg "Deflate.compress: unused length symbol";
      let ex = Array.unsafe_get length_extra ls in
      Bitio.Writer.put bw
        ~bits:(c lor ((len - Array.unsafe_get length_base ls) lsl cl))
        ~count:(cl + ex);
      let ds = dist_symbol dist in
      let dc = Array.unsafe_get dist_codes ds and dl = Array.unsafe_get dist_lens ds in
      if dl = 0 then invalid_arg "Deflate.compress: unused distance symbol";
      let dex = Array.unsafe_get dist_extra ds in
      if dl + dex <= 24 then
        Bitio.Writer.put bw
          ~bits:(dc lor ((dist - Array.unsafe_get dist_base ds) lsl dl))
          ~count:(dl + dex)
      else begin
        Bitio.Writer.put bw ~bits:dc ~count:dl;
        Bitio.Writer.put bw ~bits:(dist - Array.unsafe_get dist_base ds) ~count:dex
      end
    end
  done;
  Huffman.encode lit_enc bw eob;
  let bits = Bitio.Writer.contents bw in
  let w = Util.Codec.Writer.create ~capacity:(String.length bits + 512) () in
  let put_lens lens =
    (* code lengths are 0..15: pack two per byte *)
    let n = Array.length lens in
    Util.Codec.Writer.uvarint w n;
    let i = ref 0 in
    while !i < n do
      let lo = lens.(!i) in
      let hi = if !i + 1 < n then lens.(!i + 1) else 0 in
      Util.Codec.Writer.u8 w (lo lor (hi lsl 4));
      i := !i + 2
    done
  in
  Util.Codec.Writer.uvarint w (String.length s);
  put_lens lit_lens;
  put_lens dist_lens;
  Util.Codec.Writer.string w bits;
  Util.Codec.Writer.contents w

(* The cheapest encoding of a match costs two bits (1-bit length code + 1-
   bit distance code) and yields at most 258 bytes, so a payload byte can
   never expand to more than 4*258 output bytes.  A declared length above
   that bound is corrupt; checking it *before* [Bytes.create] keeps a
   flipped varint from demanding a multi-GB allocation. *)
let max_expansion_per_byte = 4 * 258

let plausible_len ~payload_bytes orig_len =
  orig_len >= 0 && orig_len <= (payload_bytes * max_expansion_per_byte) + 8

let corrupt = Util.Codec.Reader.corrupt

let decompress packed =
  let r = Util.Codec.Reader.of_string packed in
  let orig_len = Util.Codec.Reader.uvarint r in
  if not (plausible_len ~payload_bytes:(String.length packed) orig_len) then
    corrupt "Deflate.decompress: implausible declared length";
  let get_lens () =
    let n = Util.Codec.Reader.uvarint r in
    if n < 0 || n > 4096 then corrupt "Deflate.decompress: implausible code-length count";
    let lens = Array.make n 0 in
    let i = ref 0 in
    while !i < n do
      let b = Util.Codec.Reader.u8 r in
      lens.(!i) <- b land 0xf;
      if !i + 1 < n then lens.(!i + 1) <- b lsr 4;
      i := !i + 2
    done;
    lens
  in
  let lit_lens = get_lens () in
  let dist_lens = get_lens () in
  let bits = Util.Codec.Reader.string r in
  Util.Codec.Reader.expect_end r;
  let lit_dec = Huffman.decoder_of_lengths lit_lens in
  let dist_dec =
    if Array.exists (fun l -> l > 0) dist_lens then Some (Huffman.decoder_of_lengths dist_lens)
    else None
  in
  let br = Bitio.Reader.of_string bits in
  (* output length is declared up front: decode into a preallocated
     buffer, copying matches with [Bytes.blit] instead of per-byte
     Buffer appends *)
  let out = Bytes.create orig_len in
  let pos = ref 0 in
  let finished = ref false in
  while not !finished do
    let sym = Huffman.decode lit_dec br in
    if sym < 256 then begin
      if !pos >= orig_len then corrupt "Deflate.decompress: length mismatch";
      Bytes.unsafe_set out !pos (Char.unsafe_chr sym);
      incr pos
    end
    else if sym = eob then finished := true
    else begin
      let ls = sym - 257 in
      if ls < 0 || ls >= Array.length length_base then corrupt "Deflate.decompress: bad length symbol";
      let len = length_base.(ls) + Bitio.Reader.get br length_extra.(ls) in
      let de =
        match dist_dec with
        | Some d -> d
        | None -> corrupt "Deflate.decompress: match without distance table"
      in
      let ds = Huffman.decode de br in
      if ds >= Array.length dist_base then corrupt "Deflate.decompress: bad distance symbol";
      let dist = dist_base.(ds) + Bitio.Reader.get br dist_extra.(ds) in
      let start = !pos - dist in
      if start < 0 then corrupt "Deflate.decompress: distance before start";
      if !pos + len > orig_len then corrupt "Deflate.decompress: length mismatch";
      if dist >= len then begin
        Bytes.blit out start out !pos len;
        pos := !pos + len
      end
      else begin
        (* overlapping run: the copyable span doubles every blit *)
        let remaining = ref len in
        while !remaining > 0 do
          let chunk = min (!pos - start) !remaining in
          Bytes.blit out start out !pos chunk;
          pos := !pos + chunk;
          remaining := !remaining - chunk
        done
      end
    end
  done;
  if !pos <> orig_len then corrupt "Deflate.decompress: length mismatch";
  Bytes.unsafe_to_string out
