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
