(** Finding checkpoint images and walking their delta chains.

    An incremental checkpoint writes a delta image that names its base in
    [Ckpt_image.delta_base]; the base lives next to it under that name,
    as a file on some node or in the store catalog.  Restart,
    [Harness.Inspect] and the restart-or-relaunch availability check
    all find images and follow these links here, so the lookup order
    and the depth bound are defined once.  The manager keeps chains
    short where it writes them (a full image after 8 links); the
    64-base bound guards only against damaged or cyclic input. *)

(** Where image bytes were found: the preferred node's filesystem,
    another node's (a migrated restart reads its images, bases included,
    where they were written; nothing copies them), or the store
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

(** [walk ~base_of ~load first] is {!Util.Chain.walk} from [first], the
    top image's base ([None] for a full image), bounded at 64 bases: the
    one limit on how deep a delta chain restart resolves.  Its
    {!Util.Chain.depth} counts links to the nearest full image. *)
val walk :
  base_of:('a -> string option) -> load:(string -> 'a option) -> string option -> 'a Util.Chain.t

(** The chain below [img], its bases loaded with [load]. *)
val images : load:(string -> link option) -> Ckpt_image.t -> link Util.Chain.t

(** {!images} for the image found at [path], each base {!peek}ed next to
    it. *)
val peek_chain : Runtime.t -> string -> Ckpt_image.t -> link Util.Chain.t

(** Chain depth from the store catalog alone, following manifests'
    [m_base] without reading any image and without a depth limit: 0 for
    a full or unknown image; a cycle stops at the first repeated name. *)
val catalog_depth : Store.t -> name:string -> int

(** [mtcp ~name img chain] decodes the nearest full image of [chain] and
    replays every delta back up to [img] (named [name]); [on_delta ~image
    base] runs, deepest first, just before delta [image] is applied onto
    its [base].  Raises [Util.Codec.Reader.Corrupt] on damage and on an
    incomplete chain: callers that recover from a lost base test
    [missing] first. *)
val mtcp :
  ?on_delta:(image:string -> string * link -> unit) ->
  name:string ->
  Ckpt_image.t ->
  link Util.Chain.t ->
  Mtcp.Image.t
