(** Built-in plugins: the paper's "open world" heuristics, implemented
    on the {!Plugin} event API (see DESIGN.md §8 for the hook catalog
    and the heuristics table). *)

(** Register the built-ins ([ext-sock], [blacklist-ports], [proc-fd],
    [ext-shm], [mpi-proxy]) in their fixed dispatch order.
    Idempotent. *)
val ensure_registered : unit -> unit

(** All built-in names, registration order — the set the heuristic
    chaos scenarios and [trace --plugins] enable. *)
val all_names : string list
