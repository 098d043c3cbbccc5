(** Walking a chain of named links: a delta image's bases, or the store
    catalog's [m_base] references.  The walk never raises: it stops at
    the first link that does not load, at a link already walked (a
    cycle), or after [limit] links. *)

(** The links below a start, nearest first.  [missing] is the first
    name that did not load; [cut] is set when the walk stopped at a name
    already in the chain or at its limit. *)
type 'a t = { links : (string * 'a) list; missing : string option; cut : bool }

(** [walk ~base_of ~load first] follows links from [first] ([None]: no
    link at all): [load] fetches a link by name, [base_of] reads the
    next name from it.  At most [limit] links are loaded (default: no
    limit). *)
val walk :
  ?limit:int -> base_of:('a -> string option) -> load:(string -> 'a option) -> string option -> 'a t

(** Links to the end of the chain, a missing link counting as one. *)
val depth : 'a t -> int
