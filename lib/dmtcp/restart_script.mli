(** The generated restart script (paper §3): one [dmtcp_restart] call per
    node, plus the coordinator address.  It travels as this record (the
    harness and tests restart from it) and as shell-script text written
    next to the images, as the real package does; it has no binary
    form. *)

type t = {
  coord_host : int;
  coord_port : int;
  entries : (int * string list) list;  (** (host, image paths) *)
}

(** The [dmtcp_restart_script.sh] text. *)
val to_text : t -> string

(** Remap original hosts to new hosts (process migration), e.g. restart a
    whole cluster run on one laptop with [fun _ -> 0]. *)
val remap : t -> (int -> int) -> t

(** Slot-accurate remap for scheduler restarts.  [old_alloc] is the
    allocation the script was captured under and [new_alloc] the target
    allocation; images of a host occupying several slots of [old_alloc]
    are spread (in sorted order) over the hosts at the {e same
    positions} of [new_alloc], instead of all collapsing onto one host
    as a host-level {!remap} would.  The coordinator host follows its
    first slot; positions beyond [new_alloc] keep their old host. *)
val remap_positional : t -> old_alloc:int array -> new_alloc:int array -> t
