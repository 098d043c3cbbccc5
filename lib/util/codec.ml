module Writer = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(capacity = 256) () = { buf = Bytes.create (max 16 capacity); len = 0 }
  let length t = t.len

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

  let u8 t v =
    ensure t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (v land 0xff));
    t.len <- t.len + 1

  let u16 t v =
    u8 t v;
    u8 t (v lsr 8)

  let u32 t v =
    u16 t v;
    u16 t (v lsr 16)

  let i64 t v =
    ensure t 8;
    Bytes.set_int64_le t.buf t.len v;
    t.len <- t.len + 8

  (* LEB128 over the full word, treating [v] as unsigned (so zigzagged
     values that wrapped negative still terminate). *)
  let rec uvarint_raw t v =
    if v >= 0 && v < 0x80 then u8 t v
    else begin
      u8 t (0x80 lor (v land 0x7f));
      uvarint_raw t (v lsr 7)
    end

  let uvarint t v =
    if v < 0 then invalid_arg "Codec.Writer.uvarint: negative";
    uvarint_raw t v

  let varint t v =
    (* zigzag *)
    uvarint_raw t ((v lsl 1) lxor (v asr (Sys.int_size - 1)))

  let f64 t v = i64 t (Int64.bits_of_float v)
  let bool t v = u8 t (if v then 1 else 0)

  let raw t s =
    let n = String.length s in
    ensure t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let string t s =
    uvarint t (String.length s);
    raw t s

  let option enc t = function
    | None -> bool t false
    | Some v ->
      bool t true;
      enc t v

  let list enc t l =
    uvarint t (List.length l);
    List.iter (enc t) l

  let array enc t a =
    uvarint t (Array.length a);
    Array.iter (enc t) a

  let pair enc_a enc_b t (a, b) =
    enc_a t a;
    enc_b t b

  let contents t = Bytes.sub_string t.buf 0 t.len
end

module Reader = struct
  type t = { src : string; limit : int; mutable pos : int }

  exception Corrupt of string

  let corrupt fmt = Format.kasprintf (fun m -> raise (Corrupt m)) fmt

  let of_string ?(pos = 0) ?len src =
    let limit =
      match len with
      | None -> String.length src
      | Some n -> pos + n
    in
    if pos < 0 || limit > String.length src || pos > limit then
      corrupt "Reader.of_string: bad bounds";
    { src; limit; pos }

  let remaining t = t.limit - t.pos

  let need t n =
    if n < 0 then corrupt "negative length %d" n;
    if remaining t < n then corrupt "truncated input (need %d bytes, have %d)" n (remaining t)

  let u8 t =
    need t 1;
    let v = Char.code (String.unsafe_get t.src t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let a = u8 t in
    let b = u8 t in
    a lor (b lsl 8)

  let u32 t =
    let a = u16 t in
    let b = u16 t in
    a lor (b lsl 16)

  let i64 t =
    need t 8;
    let v = String.get_int64_le t.src t.pos in
    t.pos <- t.pos + 8;
    v

  let uvarint t =
    let rec go shift acc =
      if shift > 63 then corrupt "varint too long";
      let b = u8 t in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let varint t =
    let v = uvarint t in
    (v lsr 1) lxor (-(v land 1))

  let f64 t = Int64.float_of_bits (i64 t)

  let bool t =
    match u8 t with
    | 0 -> false
    | 1 -> true
    | n -> corrupt "bad bool tag %d" n

  let raw t n =
    need t n;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let string t =
    let n = uvarint t in
    raw t n

  (* Every element costs at least one byte, so a count above the bytes
     left is damage, and rejecting it here keeps a flipped varint from
     sizing an allocation. *)
  let count t =
    let n = uvarint t in
    if n < 0 || n > remaining t then corrupt "count %d exceeds the %d bytes left" n (remaining t);
    n

  let option dec t = if bool t then Some (dec t) else None

  let list dec t =
    let n = count t in
    List.init n (fun _ -> dec t)

  let array dec t =
    let n = count t in
    Array.init n (fun _ -> dec t)

  let pair dec_a dec_b t =
    let a = dec_a t in
    let b = dec_b t in
    (a, b)

  let expect_end t = if remaining t <> 0 then corrupt "%d trailing bytes" (remaining t)
end

let roundtrip enc dec v =
  let w = Writer.create () in
  enc w v;
  let r = Reader.of_string (Writer.contents w) in
  let v' = dec r in
  Reader.expect_end r;
  v'
