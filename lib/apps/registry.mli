(** Does nothing: every workload program registers itself when its
    module initialises, and the [apps] library links whole.  Kept for
    callers written when registration was a call. *)

val register_all : unit -> unit
