(** Calibrated local costs of MTCP operations (see DESIGN.md §4).

    These cover the parts of Table 1 that are not data movement: stopping
    threads with signals, and setting up the copy-on-write clone used by
    forked checkpointing. *)

(** Signal all user threads and wait for them to park
    (Table 1a "Suspend user threads" ~= 25 ms for a typical MPI rank). *)
val suspend_seconds : nthreads:int -> float

(** Copy-on-write fork for forked checkpointing: page-table copy cost,
    proportional to resident pages. *)
val snapshot_seconds : pages:int -> float

(** Leader-election fcntl round per file descriptor (Table 1a "Elect FD
    leaders" ~= 1.4 ms). *)
val elect_seconds : nfds:int -> float

(** Reopening regular files and recreating ptys at restart (Table 1b). *)
val reopen_seconds : nfds:int -> float

(** [jitter rng dt]: run-to-run variation of a compression or I/O time
    (the paper's error bars), a few percent either way and never below
    3/4 of [dt]; one Gaussian draw from [rng]. *)
val jitter : Util.Rng.t -> float -> float
