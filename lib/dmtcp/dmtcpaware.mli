(** The application programming interface ([dmtcpaware.a], paper §3.1).

    Applications that want to cooperate with DMTCP — without ceasing to
    work when run outside it — call these from inside their [step]
    functions. *)

(** Is this process running under DMTCP? *)
val is_enabled : Simos.Program.ctx -> bool

(** Delay checkpoints during a critical section. Nestable. No-ops outside
    DMTCP. *)
val delay_checkpoints : Simos.Program.ctx -> unit

val allow_checkpoints : Simos.Program.ctx -> unit

(** Ask the coordinator for a checkpoint (fire-and-forget: spawns a
    [dmtcp_command --checkpoint] helper process). *)
val request_checkpoint : Simos.Program.ctx -> unit

(** Status: number of processes under the coordinator at the last
    status query of this process's run, if this process is under DMTCP
    and such a query has completed. *)
val last_known_status : Simos.Program.ctx -> int option

(** Register hook functions that the managers of [rt]'s run call before
    a checkpoint and after a checkpoint or restart of a process running
    [prog].  Keyed by program name; survives checkpointing because
    registration is code, not state.  The hooks belong to the run:
    another cluster's runtime has none. *)
val set_hooks :
  Runtime.t -> prog:string -> ?pre_ckpt:(unit -> unit) -> ?post_ckpt:(unit -> unit) -> unit -> unit

(** Called by the manager and the restarter (exposed for them, not for
    applications). *)
val run_pre_ckpt : Runtime.t -> prog:string -> unit

val run_post_ckpt : Runtime.t -> prog:string -> unit
