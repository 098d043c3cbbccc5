(** The Figure-6 workload: "a synthetic OpenMPI program allocating random
    data", used to measure checkpoint/restart time as total memory grows.

    Each rank allocates [mb] MB of incompressible pages and then loops:
    a barrier, a slab of compute, repeat — long enough for checkpoints to
    land wherever they like.  Rank program ["apps:synthetic"];
    extra argv: [[mb; rounds]]. *)


val prog_name : string
