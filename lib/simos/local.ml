type binding = ..

type 'a key = { init : unit -> 'a; inj : 'a -> binding; prj : binding -> 'a option }

type t = { mutable bindings : binding list }

let create () = { bindings = [] }

(* Each key extends [binding] with a constructor of its own, so a
   binding projects only through the key that made it. *)
let key (type a) (init : unit -> a) : a key =
  let module K = struct
    type binding += V of a
  end in
  { init; inj = (fun v -> K.V v); prj = (function K.V v -> Some v | _ -> None) }

let get t k =
  match List.find_map k.prj t.bindings with
  | Some v -> v
  | None ->
    let v = k.init () in
    t.bindings <- k.inj v :: t.bindings;
    v

let set t k v = t.bindings <- k.inj v :: List.filter (fun b -> Option.is_none (k.prj b)) t.bindings
