(** [dmtcp_restart] — program name ["dmtcp:restart"] (paper §4.4).

    One restart process runs per host, with the image paths of every
    process to restore there as argv.  It proceeds through the paper's
    seven restart steps: reopen files and recreate ptys; recreate and
    reconnect sockets through the cluster discovery service (acceptors
    advertise a restart listener under the connection's globally unique
    ID, connectors subscribe, the two sides handshake on the new socket);
    "fork" into the user processes (processes sharing a socket or file
    description are reassembled around a single shared description);
    rearrange fds to their original numbers; restore memory and threads
    through the MTCP layer; refill kernel buffers with the drained data
    from the images; and resume user threads.

    Restored processes keep their *virtual* pids; real pids are fresh,
    which is what makes the fork-wrapper conflict detection (§4.5)
    necessary and testable.  The program registers itself when this
    module initialises. *)

val name : string
