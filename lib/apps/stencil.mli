(** Transport-aware MPI workload family exercising the rank/proxy split.

    Both programs are kernels of {!Nas.Make}: they take the standard
    rank argv ([rank size base_port rpn notify_host notify_port ...]),
    an optional leading extra word selects the {!Mpi.transport}
    (["direct"] | ["proxy"]; without one, direct), and rank 0 writes
    the result to [/result/<short>-<base_port>] with full float
    precision so a direct run and a proxy run of the same problem can
    be compared byte-for-byte.

    - ["mpi:stencil"] — iterative 1-D Jacobi solver with deep-halo
      exchange over a ring (extras: cells-per-rank, halo depth,
      supersteps, think seconds per superstep).  Each superstep: exchange [h] boundary cells, run
      [h] relaxation sweeps, allreduce the interior sum.
    - ["mpi:bsp"] — bulk-synchronous phase program (extras: phases,
      bytes-per-message, straggle-every, straggle-seconds).  Each
      phase: exchange patterned payloads with ring neighbours, verify
      them, optionally straggle one designated rank — parking the
      others mid-allreduce for the whole delay — then allreduce a
      checksum. *)

val stencil_prog : string
val bsp_prog : string
