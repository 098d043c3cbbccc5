type host = int

type t =
  | Inet of { host : host; port : int }
  | Unix of { host : host; path : string }

let host_of = function
  | Inet { host; _ } -> host
  | Unix { host; _ } -> host

let to_string = function
  | Inet { host; port } -> Printf.sprintf "10.0.0.%d:%d" host port
  | Unix { host; path } -> Printf.sprintf "unix[%d]:%s" host path

let encode w = function
  | Inet { host; port } ->
    Util.Codec.Writer.u8 w 0;
    Util.Codec.Writer.uvarint w host;
    Util.Codec.Writer.uvarint w port
  | Unix { host; path } ->
    Util.Codec.Writer.u8 w 1;
    Util.Codec.Writer.uvarint w host;
    Util.Codec.Writer.string w path

let decode r =
  match Util.Codec.Reader.u8 r with
  | 0 ->
    let host = Util.Codec.Reader.uvarint r in
    let port = Util.Codec.Reader.uvarint r in
    Inet { host; port }
  | 1 ->
    let host = Util.Codec.Reader.uvarint r in
    let path = Util.Codec.Reader.string r in
    Unix { host; path }
  | n -> Util.Codec.Reader.corrupt "bad addr tag %d" n
