type t = Null | Rle | Deflate

let all = [ Null; Rle; Deflate ]

let name = function
  | Null -> "null"
  | Rle -> "rle"
  | Deflate -> "deflate"

let of_name = function
  | "null" -> Some Null
  | "rle" -> Some Rle
  | "deflate" | "gzip" -> Some Deflate
  | _ -> None

let compress t s =
  match t with
  | Null -> s
  | Rle -> Rle.compress s
  | Deflate -> Deflate.compress s

let to_tag = function
  | Null -> 0
  | Rle -> 1
  | Deflate -> 2

let encode w t = Util.Codec.Writer.u8 w (to_tag t)

let decode r =
  match Util.Codec.Reader.u8 r with
  | 0 -> Null
  | 1 -> Rle
  | 2 -> Deflate
  | n -> Util.Codec.Reader.corrupt "bad compression tag %d" n
