type t = (string, Addr.t) Hashtbl.t

let create () = Hashtbl.create 64
let advertise t ~key addr = Hashtbl.replace t key addr
let lookup t ~key = Hashtbl.find_opt t key

let remove_prefix t ~prefix =
  Hashtbl.filter_map_inplace (fun key v -> if String.starts_with ~prefix key then None else Some v) t
