(** DMTCP configuration.

    The settings a checkpointed process reads from its own environment
    travel in [DMTCP_*] variables, as in the real package; checkpoint
    images capture that environment.  The per-cluster settings (store,
    retention, plugins) are read from the options the runtime was
    installed with ({!Runtime.options}) and never enter a process
    environment. *)

type t = {
  coord_host : int;            (** node running the coordinator *)
  coord_port : int;            (** default 7779, as in DMTCP *)
  ckpt_dir : string;           (** directory for checkpoint images *)
  algo : Compress.Algo.t;      (** [Deflate] = gzip enabled (the default) *)
  forked : bool;               (** forked checkpointing *)
  incremental : bool;
      (** write only pages dirtied since the previous checkpoint; delta
          chains reset to a full image after 8 links *)
  interval : float option;     (** automatic checkpoint interval, seconds *)
  sync_after : bool;           (** issue sync(2) after writing images *)
  lazy_restart : bool;
      (** demand-paged lazy restore: restart restores only the hot set
          (stacks, text, shared segments) before resuming threads; cold
          pages fault in on first touch and a background prefetcher
          drains the remainder, so restart blackout is O(hot set)
          instead of O(image) *)
  store : bool;
      (** per cluster: write checkpoints to the replicated
          content-addressed store instead of flat per-node files; the
          store waits for a majority of [store_replicas] *)
  store_replicas : int;        (** per cluster: copies of each new block, distinct nodes *)
  keep_generations : int;
      (** per cluster: checkpoint generations retained per process
          lineage, by the store GC and by the legacy flat-file reaper
          alike; [0] keeps everything forever *)
  plugins : string list;
      (** per cluster: the enabled plugin set, applied once at install;
          an unknown name raises [Invalid_argument] there *)
}

val default : t

(** The settings a process reads from its own environment, as
    [DMTCP_*] entries: coordinator host and port, checkpoint directory,
    compression, forked, incremental, interval, sync and lazy restart. *)
val to_env : t -> (string * string) list

(** Parse the entries {!to_env} writes; every other field, and every
    missing key, takes [base]'s value.  A value {!to_env} could not have
    written raises [Invalid_argument] naming the key and the value: a
    coordinator host or port that is not a non-negative integer (a port
    above 65535), a checkpoint directory that is not an absolute path,
    an unknown compression name, a flag other than ["0"] or ["1"], an
    interval that is not ["0"] or a positive finite number. *)
val of_env : base:t -> (string * string) list -> t

(** {!of_env} over a [getenv]-style lookup (a program's view of its own
    environment); programs pass {!Runtime.options} as [base], so their
    record agrees with the runtime on the per-cluster fields. *)
val of_getenv : base:t -> (string -> string option) -> t

(** Environment marker that makes {!Simos.Kernel} treat a process as
    hijacked ([LD_PRELOAD=dmtcphijack.so] in the real system). *)
val hijack_key : string

(** Strict [DMTCP_PLUGINS] parser for a host shell's setting:
    comma-separated plugin names, [""] or ["none"] for the empty set.
    Raises [Invalid_argument] on a malformed name (anything outside
    [a-z0-9-]). *)
val parse_plugins : string -> string list
