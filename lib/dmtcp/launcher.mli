(** The user-facing commands (paper §3).

    [dmtcp_checkpoint <program> <args>] — program name
    ["dmtcp:checkpoint"] — spawns the coordinator if none is running,
    marks the environment so the DMTCP library is injected, and execs the
    target program.

    [dmtcp_command --checkpoint|--status|--quit] — program name
    ["dmtcp:command"] — connects to the coordinator's command socket and
    sends the request; the reply to [--status] is kept in the run's
    runtime ({!Runtime.last_status}).

    Both programs register themselves when this module initialises. *)

val checkpoint_name : string
val command_name : string
