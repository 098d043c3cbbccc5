(** Human-readable rendering of checkpoint images — the paper's use case
    5, "checkpointed image as the ultimate bug report": everything a
    developer needs to understand a frozen process without the machine it
    ran on. *)

(** Describe one per-process image: identity (upid/vpid/program), every
    file descriptor with its restore plan (path+offset, connection id and
    drained bytes, pty and its modes), the memory layout with per-class
    page counts and projected compressed size, thread program states and
    their wait conditions, and the signal table.

    An incremental delta image's body only decodes against its base
    chain; [chain] supplies the loaded bases so the description can peek
    through the delta.  When a base is gone the thread/memory sections
    are replaced by a note. *)
val describe : chain:Image_chain.link Util.Chain.t -> Ckpt_image.t -> string

(** Describe a whole checkpoint (a restart script's worth of images),
    reading image files from the cluster's filesystems and falling back
    to the block store; delta chains are resolved the same way. *)
val describe_checkpoint : Runtime.t -> Restart_script.t -> string
