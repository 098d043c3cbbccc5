(** Network addresses: TCP/IP endpoints and UNIX-domain paths.

    Hosts are small integers (node ids); a cluster-unique [hostid] string
    is derived for DMTCP's globally unique socket IDs. *)

type host = int

type t =
  | Inet of { host : host; port : int }
  | Unix of { host : host; path : string }  (** UNIX sockets are host-local *)

val host_of : t -> host
val to_string : t -> string
