(** The restart-time discovery service (paper §4.4 step 2).

    After restart, processes may have migrated, so socket acceptors
    advertise the address of their restart listener under the connection's
    globally unique ID, and connectors poll {!lookup} until the
    advertisement appears.  The service is cluster-wide; the paper notes
    it is centralized for simplicity, as here. *)

type t

val create : unit -> t

(** Advertise [addr] under [key], replacing any earlier advertisement. *)
val advertise : t -> key:string -> Addr.t -> unit

val lookup : t -> key:string -> Addr.t option

(** Drop advertisements whose key starts with [prefix].  Restart waves
    namespace their keys by coordinator port ("<port>/<conn id>"), so
    one job's new wave clears its own stale adverts without disturbing
    another job's concurrent restart. *)
val remove_prefix : t -> prefix:string -> unit
