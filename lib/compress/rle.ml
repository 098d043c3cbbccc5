(* PackBits: control byte n in 0..127 means "copy the next n+1 literal
   bytes"; n in 129..255 means "repeat the next byte 257-n times"
   (run lengths 2..128); 128 is unused. *)

let compress s =
  let n = String.length s in
  let buf = Buffer.create ((n / 2) + 16) in
  (* length of the run starting at j, capped at 128 *)
  let run_at j =
    let r = ref 1 in
    while j + !r < n && !r < 128 && s.[j + !r] = s.[j] do
      incr r
    done;
    !r
  in
  let i = ref 0 in
  while !i < n do
    let r = run_at !i in
    if r >= 2 then begin
      Buffer.add_char buf (Char.chr (257 - r));
      Buffer.add_char buf s.[!i];
      i := !i + r
    end
    else begin
      let start = !i in
      let count = ref 0 in
      while !i < n && !count < 128 && run_at !i < 2 do
        incr i;
        incr count
      done;
      Buffer.add_char buf (Char.chr (!count - 1));
      Buffer.add_substring buf s start !count
    end
  done;
  Buffer.contents buf

let decompress s =
  let n = String.length s in
  let buf = Buffer.create (n * 2) in
  let i = ref 0 in
  while !i < n do
    let c = Char.code s.[!i] in
    incr i;
    if c < 128 then begin
      let count = c + 1 in
      if !i + count > n then Util.Codec.Reader.corrupt "Rle.decompress: truncated literals";
      Buffer.add_substring buf s !i count;
      i := !i + count
    end
    else if c = 128 then Util.Codec.Reader.corrupt "Rle.decompress: reserved control byte"
    else begin
      if !i >= n then Util.Codec.Reader.corrupt "Rle.decompress: truncated run";
      let count = 257 - c in
      Buffer.add_string buf (String.make count s.[!i]);
      incr i
    end
  done;
  Buffer.contents buf
