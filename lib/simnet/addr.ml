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
