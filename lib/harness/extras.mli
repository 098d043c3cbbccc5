(** The evaluation's in-text experiments and the ablations DESIGN.md
    commits to. *)

(** §5.1: runCMS — a 680 MB image with 540 libraries; the paper reports
    25.2 s checkpoint, 18.4 s restart, 225 MB compressed image. *)
type runcms_result = { ckpt : float; restart : float; image_mb : float }

val runcms : ?reps:int -> unit -> runcms_result
val runcms_text : runcms_result -> string

(** §5.2: cost of issuing sync(2) after a ParGeant4 checkpoint (paper:
    +0.79 s ± 0.24). *)
type sync_result = { without_sync : Util.Stats.t; with_sync : Util.Stats.t }

val sync_cost : ?reps:int -> ?nprocs:int -> unit -> sync_result
val sync_text : sync_result -> string

(** Ablation: forked vs plain checkpointing on a memory-heavy process
    (user-visible pause). *)
type forked_result = { plain_s : float; forked_s : float }

val forked_ablation : unit -> forked_result
val forked_text : forked_result -> string

(** Ablation: incremental checkpointing — consecutive checkpoint times
    of a mostly-idle process: the first is a full image, later ones write
    only dirtied pages (the compressed-differences idea of the paper's
    refs [2][25]). *)
type incremental_result = { full_first : float; incrementals : float list }

val incremental_ablation : ?ckpts:int -> unit -> incremental_result
val incremental_text : incremental_result -> string

(** Ablation: compression scheme sweep (null / rle / deflate) on the same
    image — time vs size. *)
type algo_point = { algo : Compress.Algo.t; seconds : float; size_mb : float }

val algo_ablation : unit -> algo_point list
val algo_text : algo_point list -> string

(** Ablation: is the centralized coordinator a bottleneck? Barrier-bound
    stage times (suspend+elect) vs process count. *)
type coord_point = { nprocs : int; barrier_bound_s : float }

val coordinator_ablation : ?sizes:int list -> unit -> coord_point list
val coordinator_text : coord_point list -> string

(** Ablation: drain-stage time vs socket-buffer occupancy, using the
    flooding producer/consumer pairs. *)
type drain_point = { pairs : int; drain_s : float; drained_kb : float }

val drain_ablation : ?pairs_list:int list -> unit -> drain_point list
val drain_text : drain_point list -> string
