(** MPI runtimes: the resource-manager processes that the paper
    emphasizes are checkpointed *together with* the computation (§3: "the
    MPI resource management processes are also checkpointed").

    Two runtimes, mirroring the evaluation:
    - MPICH2-style: a ring of [mpd] daemons (one per node, connected to
      the next node's daemon over TCP), booted by [mpdboot];
    - OpenMPI-style: per-node [orted] daemons connected in a star to the
      [mpirun] process (OpenRTE).

    [mpirun] sshes one rank process per slot; under DMTCP the ssh wrapper
    makes the remote processes hijacked automatically.  Rank programs
    receive argv [rank size base_port ranks_per_node notify_host
    notify_port ...extra] and report completion to [mpirun]'s control
    socket.

    Programs registered: ["mpi:mpd"], ["mpi:mpdboot"], ["mpi:orted"],
    ["mpi:mpirun"]. *)


(** Parse the standard rank-argv prefix:
    (rank, size, base_port, ranks_per_node, notify_host, notify_port,
    extra args). *)
val parse_rank_args :
  string list -> int * int * int * int * int * int * string list

(** Sub-state machine used by rank programs to notify [mpirun] when they
    finish: drive {!notify_step} until [`Done]. *)
type notify

val notify_start : host:int -> port:int -> notify
val notify_step : Simos.Program.ctx -> notify -> [ `Done | `Pending ]
val encode_notify : Util.Codec.Writer.t -> notify -> unit
val decode_notify : Util.Codec.Reader.t -> notify
