(** The checkpoint coordinator (paper §4.1, §4.3).

    A normal process (spawned automatically by the first
    [dmtcp_checkpoint]) that listens on a TCP port; every checkpoint
    manager thread connects to it.  It implements the only global
    communication primitive the protocol needs — the cluster-wide barrier
    — plus the [dmtcp_command] command socket and optional interval
    checkpointing.  The paper notes the centralized coordinator is chosen
    for simplicity and is not a bottleneck at 32 nodes; the Figure 5
    reproduction confirms the same here.

    Program name: ["dmtcp:coordinator"]; argv: [[port]] (optional).  It
    registers itself when this module initialises. *)

val name : string
