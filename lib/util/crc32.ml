type t = int32

(* Slicing-by-8 tables, flattened: entry [k * 256 + n] is the CRC of byte
   [n] followed by [k] zero bytes.  Slice 0 is the classic byte-at-a-time
   table; slice [k] extends slice [k - 1] by one zero byte. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t

let init = 0xFFFFFFFFl

let[@inline] byte s i = Char.code (String.unsafe_get s i)
let[@inline] slice k n = Array.unsafe_get table ((k * 256) + n)

let update acc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.update";
  let c = ref (Int32.to_int acc land 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  (* eight bytes per step: the four that overlap the accumulator index the
     high slices, the next four the low ones *)
  while !i + 8 <= stop do
    let p = !i in
    let x =
      !c
      lxor (byte s p lor (byte s (p + 1) lsl 8) lor (byte s (p + 2) lsl 16)
           lor (byte s (p + 3) lsl 24))
    in
    c :=
      slice 7 (x land 0xff)
      lxor slice 6 ((x lsr 8) land 0xff)
      lxor slice 5 ((x lsr 16) land 0xff)
      lxor slice 4 (x lsr 24)
      lxor slice 3 (byte s (p + 4))
      lxor slice 2 (byte s (p + 5))
      lxor slice 1 (byte s (p + 6))
      lxor slice 0 (byte s (p + 7));
    i := p + 8
  done;
  while !i < stop do
    c := slice 0 ((!c lxor byte s !i) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int !c

let finish acc = Int32.logxor acc 0xFFFFFFFFl

let digest s = finish (update init s 0 (String.length s))
