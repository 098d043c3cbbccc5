(** Finding checkpoint images and walking their delta chains.

    An incremental checkpoint writes a delta image that names its base in
    [Ckpt_image.delta_base]; the base lives next to it under that name,
    as a file on some node or in the store catalog.  Restart, the
    compactor, {!Inspect} and the restart-or-relaunch availability check
    all find images and follow these links here, so the lookup order and
    the depth bound are defined once. *)

(** Where image bytes were found: the preferred node's filesystem,
    another node's (migration copies only the named image), or the store
    catalog. *)
type source = Local_file | Remote_file | Store

(** ["file"], ["remote-file"] or ["store"], as the restart trace prints it. *)
val source_name : source -> string

(** The file at [path] on the first node, in node order, holding one. *)
val find_file : Simos.Cluster.t -> string -> Simos.Vfs.file option

(** Image bytes at [path]: the file on [prefer], else {!find_file}'s,
    else [from_store store (Filename.basename path)] when the runtime has
    a store.  The default [Store.peek] books no storage time; restart
    passes a booking fetch. *)
val read :
  ?prefer:int ->
  ?from_store:(Store.t -> string -> string option) ->
  Runtime.t ->
  string ->
  (string * source) option

(** A loaded image and where it came from. *)
type link = Ckpt_image.t * source

(** {!read} and decode, for inspection: missing or damaged is [None]. *)
val peek : ?prefer:int -> Runtime.t -> string -> link option

(** The bases below an image by name, nearest first, down to the nearest
    full image.  [missing] is the first base that did not load; [cut] is
    set when the walk stopped at a base already in the chain (a cycle) or
    at its depth limit. *)
type 'a chain = { links : (string * 'a) list; missing : string option; cut : bool }

(** [walk ~base_of ~load first] follows links from [first], the top
    image's base ([None] for a full image): [load] fetches a base by
    name, [base_of] reads the next name from it.  At most [limit] bases
    are loaded (default 64). *)
val walk :
  ?limit:int -> base_of:('a -> string option) -> load:(string -> 'a option) -> string option -> 'a chain

(** Links to the nearest full image, a missing base counting as one. *)
val depth : 'a chain -> int

(** The chain below [img], its bases loaded with [load]. *)
val images : load:(string -> link option) -> Ckpt_image.t -> link chain

(** {!images} for the image found at [path], each base {!peek}ed next to
    it. *)
val peek_chain : Runtime.t -> string -> Ckpt_image.t -> link chain

(** {!depth} from the store catalog alone, following manifests' [m_base]
    without reading any image and without a depth limit: 0 for a full or
    unknown image; a cycle stops at the first repeated name. *)
val catalog_depth : Store.t -> name:string -> int

(** [mtcp ~name img chain] decodes the nearest full image of [chain] and
    replays every delta back up to [img] (named [name]); [on_delta ~image
    base] runs, deepest first, just before delta [image] is applied onto
    its [base].  Raises [Ckpt_image.Corrupt_image] on damage and on an
    incomplete chain: callers that recover from a lost base test
    [missing] first. *)
val mtcp :
  ?on_delta:(image:string -> string * link -> unit) ->
  name:string ->
  Ckpt_image.t ->
  link chain ->
  Mtcp.Image.t
