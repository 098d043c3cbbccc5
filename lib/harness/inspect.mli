(** Human-readable rendering of checkpoint images — the paper's use case
    5, "checkpointed image as the ultimate bug report": everything a
    developer needs to understand a frozen process without the machine it
    ran on. *)

(** Describe a whole checkpoint (a restart script's worth of images),
    reading image files from the cluster's filesystems and falling back
    to the block store; delta chains are resolved the same way.  Each
    per-process image shows its identity (upid/vpid/program), every file
    descriptor with its restore plan (path+offset, connection id and
    drained bytes, pty and its modes), the memory layout with per-class
    page counts and projected compressed size, thread program states and
    their wait conditions, and the signal table.  A delta image's body is
    read through its loaded base chain; when a base is gone the
    thread/memory sections are replaced by a note. *)
val describe_checkpoint : Dmtcp.Runtime.t -> Dmtcp.Restart_script.t -> string
