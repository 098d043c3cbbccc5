type role = Connector | Acceptor | Pair_a | Pair_b

type sock_kind = Tcp | Unixsock | Pair

type entry = {
  mutable conn_id : Conn_id.t;
  mutable role : role;
  kind : sock_kind;
  desc_id : int;
  mutable drained : string;
  mutable eof : bool;
  mutable saved_owner : int;
}

type t = (int, entry) Hashtbl.t

let entry ~conn_id ~role ~kind ~desc_id =
  { conn_id; role; kind; desc_id; drained = ""; eof = false; saved_owner = 0 }

let create () = Hashtbl.create 8
let add t ~fd entry = Hashtbl.replace t fd entry
let find t ~fd = Hashtbl.find_opt t fd
let remove t ~fd = Hashtbl.remove t fd

let entries t =
  Hashtbl.fold (fun fd e acc -> (fd, e) :: acc) t [] |> List.sort (fun (a, _) (b, _) -> compare a b)

let unique_descs t =
  let seen = Hashtbl.create 8 in
  entries t
  |> List.filter (fun (_, e) ->
         if Hashtbl.mem seen e.desc_id then false
         else begin
           Hashtbl.add seen e.desc_id ();
           true
         end)

let clone t =
  let c = Hashtbl.create (Hashtbl.length t) in
  Hashtbl.iter (fun fd e -> Hashtbl.replace c fd { e with drained = e.drained }) t;
  c

let role_tag = function Connector -> 0 | Acceptor -> 1 | Pair_a -> 2 | Pair_b -> 3

let role_of_tag = function
  | 0 -> Connector
  | 1 -> Acceptor
  | 2 -> Pair_a
  | 3 -> Pair_b
  | n -> Util.Codec.Reader.corrupt "bad role %d" n

let kind_tag = function Tcp -> 0 | Unixsock -> 1 | Pair -> 2

let kind_of_tag = function
  | 0 -> Tcp
  | 1 -> Unixsock
  | 2 -> Pair
  | n -> Util.Codec.Reader.corrupt "bad sock kind %d" n

let encode_entry w e =
  Conn_id.encode w e.conn_id;
  Util.Codec.Writer.u8 w (role_tag e.role);
  Util.Codec.Writer.u8 w (kind_tag e.kind);
  Util.Codec.Writer.uvarint w e.desc_id;
  Util.Codec.Writer.string w e.drained;
  Util.Codec.Writer.bool w e.eof;
  Util.Codec.Writer.varint w e.saved_owner

let decode_entry r =
  let conn_id = Conn_id.decode r in
  let role = role_of_tag (Util.Codec.Reader.u8 r) in
  let kind = kind_of_tag (Util.Codec.Reader.u8 r) in
  let desc_id = Util.Codec.Reader.uvarint r in
  let drained = Util.Codec.Reader.string r in
  let eof = Util.Codec.Reader.bool r in
  let saved_owner = Util.Codec.Reader.varint r in
  { conn_id; role; kind; desc_id; drained; eof; saved_owner }

let encode w t =
  Util.Codec.Writer.list
    (fun w (fd, e) ->
      Util.Codec.Writer.uvarint w fd;
      encode_entry w e)
    w (entries t)

let decode r =
  let pairs =
    Util.Codec.Reader.list
      (fun r ->
        let fd = Util.Codec.Reader.uvarint r in
        let e = decode_entry r in
        (fd, e))
      r
  in
  let t = create () in
  List.iter (fun (fd, e) -> add t ~fd e) pairs;
  t
