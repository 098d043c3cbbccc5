(* Finding checkpoint images and walking their delta chains: the one
   lookup order (preferred node's file, any node's file, store catalog)
   and the one depth-bounded walk that restart, the compactor, inspect
   and the availability check share. *)

type source = Local_file | Remote_file | Store

let source_name = function
  | Local_file -> "file"
  | Remote_file -> "remote-file"
  | Store -> "store"

let file_on cl node path = Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cl node)) path

let locate ?prefer cl path =
  let rec scan node =
    if node >= Simos.Cluster.nodes cl then None
    else
      match file_on cl node path with
      | Some f -> Some (f, Remote_file)
      | None -> scan (node + 1)
  in
  match Option.bind prefer (fun node -> file_on cl node path) with
  | Some f -> Some (f, Local_file)
  | None -> scan 0

let find_file cl path = Option.map fst (locate cl path)

let read ?prefer ?(from_store = fun store name -> Store.peek store ~name) rt path =
  match locate ?prefer (Runtime.cluster rt) path with
  | Some (f, source) -> Some (Simos.Vfs.read_all f, source)
  | None -> (
    match Runtime.store rt with
    | None -> None
    | Some store ->
      Option.map (fun bytes -> (bytes, Store)) (from_store store (Filename.basename path)))

type link = Ckpt_image.t * source

let peek ?prefer rt path =
  match read ?prefer rt path with
  | None -> None
  | Some (bytes, source) -> (
    match Ckpt_image.decode bytes with
    | img -> Some (img, source)
    | exception Util.Codec.Reader.Corrupt _ -> None)

(* the one bound on how many bases an image may resolve through *)
let walk ~base_of ~load first = Util.Chain.walk ~limit:64 ~base_of ~load first

let images ~load (img : Ckpt_image.t) =
  walk
    ~base_of:(fun ((base : Ckpt_image.t), _) -> base.Ckpt_image.delta_base)
    ~load img.Ckpt_image.delta_base

let peek_chain rt path img =
  images img ~load:(fun base -> peek rt (Filename.concat (Filename.dirname path) base))

let catalog_depth store ~name =
  match Store.find store ~name with
  | None -> 0
  | Some m ->
    Util.Chain.depth
      (Util.Chain.walk
         ~base_of:(fun (m : Store.manifest) -> m.Store.m_base)
         ~load:(fun name -> Store.find store ~name)
         m.Store.m_base)

(* Decode the bottom (full) image, then apply each delta on the way back
   up: the recursion returns deepest first. *)
let mtcp ?(on_delta = fun ~image:_ _ -> ()) ~name img chain =
  if chain.Util.Chain.missing <> None then Util.Codec.Reader.corrupt "delta chain broken";
  if chain.Util.Chain.cut then Util.Codec.Reader.corrupt "delta chain too deep";
  let rec replay name (img : Ckpt_image.t) = function
    | [] -> Ckpt_image.mtcp img
    | ((base, (base_img, _)) as link) :: deeper ->
      let base_mtcp = replay base base_img deeper in
      on_delta ~image:name link;
      Ckpt_image.delta_mtcp img ~base:base_mtcp
  in
  replay name img chain.Util.Chain.links
