(** The per-node proxy process (["mpi:proxy"]): owns every inter-node
    TCP socket of an MPI job and multiplexes frames for its local ranks,
    which reach it over the job's unix socket ({!Wire.sock_path}).

    Proxies run *outside* checkpoint control (never hijacked, never
    checkpointed): a checkpoint leaves them running to absorb in-flight
    traffic while the ranks are suspended, and a restart simply
    relaunches them empty — the ranks' end-to-end resend protocol
    ({!Wire}) recovers any custody that died with a proxy.

    The daemon's program state is deliberately not serializable (it
    encodes as a reboot marker): there is nothing in it worth saving.

    The program registers itself when this module initialises. *)

val prog_name : string

(** Spawn a proxy for job [base_port] on [kernel]'s node unless one is
    already running there.  The process is plain (not hijacked). *)
val ensure : Simos.Kernel.t -> base_port:int -> rpn:int -> unit

(** [spawn_on cl ~node ~base_port ~rpn]: {!ensure} on a cluster node. *)
val spawn_on : Simos.Cluster.t -> node:int -> base_port:int -> rpn:int -> unit

(** Nodes hosting ranks of a [size]/[rpn] job (proxies go on each). *)
val nodes_of_job : size:int -> rpn:int -> int list
