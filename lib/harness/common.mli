(** Experiment plumbing shared by the figure/table reproductions: build a
    cluster, start a workload under [dmtcp_checkpoint] (including its MPI
    resource managers), and measure repeated checkpoint and restart
    cycles the way the paper does (mean ± stddev over repetitions,
    storage caches reset between trials). *)

type runtime_kind =
  | Mpich2   (** mpd ring + mpirun + ranks *)
  | Openmpi  (** orted star + mpirun + ranks *)
  | Direct   (** rank processes launched directly (iPython-style) *)
  | Proxy
      (** rank processes launched directly, plus one un-hijacked
          {!Proxy.Daemon} per node; ["proxy"] is prepended to [w_extra]
          so the rank program ({!Apps.Nas.Make}) picks the proxy
          backend *)
  | Plain    (** a single non-rank program; [w_extra] is its raw argv *)

type workload = {
  w_name : string;
  w_kind : runtime_kind;
  w_prog : string;
  w_nprocs : int;
  w_rpn : int;  (** ranks per node *)
  w_extra : string list;
  w_warmup : float;  (** simulated seconds of steady state before measuring *)
}

type env = { cl : Simos.Cluster.t; rt : Dmtcp.Runtime.t }

val setup :
  ?nodes:int ->
  ?cores_per_node:int ->
  ?storage:Simos.Cluster.storage_config ->
  ?options:Dmtcp.Options.t ->
  unit ->
  env

(** Launch the workload (booting mpd/orted resource managers as the kind
    requires) and run until every expected process is registered plus the
    warmup. Raises [Failure] if processes fail to appear. *)
val start_workload : env -> workload -> unit

(** Expected number of checkpointed processes (ranks + resource
    managers). *)
val expected_processes : workload -> int

(** MPI job port every workload launch uses (rank result files land at
    [/result/<short>-<base_port>]). *)
val base_port : int

type ckpt_measure = {
  ckpt_times : Util.Stats.t;
  restart_times : Util.Stats.t;
  compressed_bytes : int;   (** aggregate, from the last checkpoint *)
  uncompressed_bytes : int;
  nprocs : int;
}

(** [measure env ~ckpt_reps ~restart_reps] runs [ckpt_reps] checkpoints
    (storage reset and a short steady-state gap between them) and then
    [restart_reps] checkpoint+kill+restart cycles. *)
val measure : env -> ckpt_reps:int -> restart_reps:int -> ckpt_measure

(** Stop everything that is still checkpointed (end of a workload's
    measurements). *)
val teardown : env -> unit

(** Simulated-seconds helper. *)
val run_for : env -> float -> unit

(** [run_until ?every env ~timeout pred] runs in [every]-second slices
    (default 0.1) until [pred ()] holds or [timeout] simulated seconds
    have passed. *)
val run_until : ?every:float -> env -> timeout:float -> (unit -> bool) -> unit

(** The contents of [path] in [node]'s file system, if it exists. *)
val read_file : env -> node:int -> string -> string option

(** The DMTCP options a workload of this kind runs under: the
    mpi-proxy plugin beside ext-sock for [Proxy], the defaults
    otherwise. *)
val options_for : runtime_kind -> Dmtcp.Options.t

(** Established socket specs and drained bytes, summed over the
    checkpoint images at [(host, image paths)] — a restart script's
    entries; an image absent from its host counts as empty. *)
val socket_stats : env -> (int * string list) list -> int * int

(** Encoded bytes of the checkpoint images at [(host, image paths)],
    summed the same way as {!socket_stats}. *)
val image_bytes : env -> (int * string list) list -> int

(** Render a measurement row: name, ckpt s, restart s, sizes MB. *)
val row : string -> ckpt_measure -> string list
