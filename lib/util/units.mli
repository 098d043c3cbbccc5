(** Byte and time quantities with human-readable formatting. *)

(** A decimal megabyte, used when matching the paper's "MB/s" device
    rates. *)
val mb : int

(** [pp_bytes n] formats with a binary suffix, e.g. ["12.4 MiB"]. *)
val pp_bytes : int -> string

(** [pp_mb n] formats as decimal megabytes, e.g. ["225.1 MB"]. *)
val pp_mb : int -> string

(** [pp_seconds s] picks s/ms/us as appropriate. *)
val pp_seconds : float -> string
