(** iPython workloads (paper §5.2, "based on sockets directly").

    ["apps:ipython-shell"] — the interactive interpreter, idle at
    checkpoint time: a single process with a text-heavy heap, blocked on
    its pty (argv: none needed beyond the standard rank prefix is NOT
    used; launch directly with argv []).

    ["apps:ipython-demo"] — the "parallel computing" demo: a controller
    (rank 0) farms map tasks to engines over raw sockets and sums the
    results; verified against a serial evaluation.  Runs as a rank
    program (standard rank argv; extra: [[ntasks]]). *)


val shell_name : string
val demo_name : string
val demo_mem_bytes : int
val shell_mem_bytes : int
