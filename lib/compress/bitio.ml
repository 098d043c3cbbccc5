module Writer = struct
  (* Growable flat byte buffer instead of [Buffer.t]: the Huffman encoder
     calls [put] once or twice per token, so the per-call overhead of
     Buffer's bounds/validity checks is measurable on checkpoint-sized
     inputs. *)
  type t = { mutable buf : Bytes.t; mutable len : int; mutable acc : int; mutable nbits : int }

  let create () = { buf = Bytes.create 4096; len = 0; acc = 0; nbits = 0 }

  let ensure t n =
    let needed = t.len + n in
    if needed > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf * 2) in
      while !cap < needed do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit t.buf 0 nb 0 t.len;
      t.buf <- nb
    end

  external unsafe_set64_ne : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
  external bswap64 : int64 -> int64 = "%bswap_int64"

  (* little-endian store regardless of host endianness *)
  let unsafe_set64 b i v = unsafe_set64_ne b i (if Sys.big_endian then bswap64 v else v)

  (* Dump every whole byte of the accumulator with one unaligned 64-bit
     store; the store's tail bytes landing past [len] is fine (capacity is
     ensured and they are overwritten by the next flush).  The accumulator
     holds up to 62 bits, so [put]'s <= 24-bit payloads only force a flush
     every couple of tokens rather than on every call. *)
  let flush_words t =
    ensure t 8;
    let bytes = t.nbits lsr 3 in
    unsafe_set64 t.buf t.len (Int64.of_int t.acc);
    t.len <- t.len + bytes;
    t.acc <- t.acc lsr (bytes * 8);
    t.nbits <- t.nbits - (bytes * 8)

  let put t ~bits ~count =
    if count < 0 || count > 24 then invalid_arg "Bitio.Writer.put: count out of range";
    if t.nbits > 62 - count then flush_words t;
    t.acc <- t.acc lor ((bits land ((1 lsl count) - 1)) lsl t.nbits);
    t.nbits <- t.nbits + count

  let bit_length t = (t.len * 8) + t.nbits

  let contents t =
    flush_words t;
    if t.nbits > 0 then begin
      ensure t 1;
      Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (t.acc land 0xff));
      t.len <- t.len + 1;
      t.acc <- 0;
      t.nbits <- 0
    end;
    Bytes.sub_string t.buf 0 t.len
end

module Reader = struct
  type t = { src : string; mutable pos : int; mutable acc : int; mutable nbits : int }

  let of_string src = { src; pos = 0; acc = 0; nbits = 0 }

  external unsafe_get64_ne : string -> int -> int64 = "%caml_string_get64u"
  external bswap64 : int64 -> int64 = "%bswap_int64"

  (* little-endian load regardless of host endianness *)
  let unsafe_get64 s i =
    let v = unsafe_get64_ne s i in
    if Sys.big_endian then bswap64 v else v

  (* Word-at-a-time refill: pull up to 7 bytes from the source with a
     single unaligned 64-bit load.  The accumulator holds at most 62 bits
     (an OCaml int), which is plenty for the 24-bit [get] limit and the
     Huffman decoder's 10-bit peeks. *)
  let refill t =
    if t.nbits <= 32 then begin
      let len = String.length t.src in
      if t.pos + 8 <= len then begin
        let w = Int64.to_int (unsafe_get64 t.src t.pos) land 0xff_ffff_ffff_ffff in
        let take = (62 - t.nbits) lsr 3 in
        let bits = take * 8 in
        t.acc <- t.acc lor ((w land ((1 lsl bits) - 1)) lsl t.nbits);
        t.pos <- t.pos + take;
        t.nbits <- t.nbits + bits
      end
      else
        while t.nbits <= 54 && t.pos < len do
          t.acc <- t.acc lor (Char.code (String.unsafe_get t.src t.pos) lsl t.nbits);
          t.pos <- t.pos + 1;
          t.nbits <- t.nbits + 8
        done
    end

  let truncated () = Util.Codec.Reader.corrupt "truncated bitstream"

  (* Look at the next [count] bits without consuming them; bits past the
     end of the input read as zero (the writer pads the final byte with
     zeros, so a table lookup keyed on a peek stays in range). *)
  let peek t count =
    refill t;
    t.acc land ((1 lsl count) - 1)

  let consume t count =
    if t.nbits < count then begin
      refill t;
      if t.nbits < count then truncated ()
    end;
    t.acc <- t.acc lsr count;
    t.nbits <- t.nbits - count

  let get t count =
    if count < 0 || count > 24 then invalid_arg "Bitio.Reader.get: count out of range";
    refill t;
    if t.nbits < count then truncated ();
    let v = t.acc land ((1 lsl count) - 1) in
    t.acc <- t.acc lsr count;
    t.nbits <- t.nbits - count;
    v

  let bit t = get t 1
end
