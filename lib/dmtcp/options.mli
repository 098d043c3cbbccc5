(** DMTCP configuration, carried in process environments the way the real
    package uses [DMTCP_*] environment variables. *)

type t = {
  coord_host : int;            (** node running the coordinator *)
  coord_port : int;            (** default 7779, as in DMTCP *)
  ckpt_dir : string;           (** directory for checkpoint images *)
  algo : Compress.Algo.t;      (** [Deflate] = gzip enabled (the default) *)
  forked : bool;               (** forked checkpointing *)
  incremental : bool;
      (** write only pages dirtied since the previous checkpoint *)
  interval : float option;     (** automatic checkpoint interval, seconds *)
  sync_after : bool;           (** issue sync(2) after writing images *)
  store : bool;
      (** write checkpoints to the replicated content-addressed store
          instead of flat per-node files *)
  store_replicas : int;        (** copies of each new block, distinct nodes *)
  store_quorum : int;
      (** replicas a write waits for; [0] = majority of [store_replicas] *)
  keep_generations : int;
      (** checkpoint generations retained per process lineage, by the
          store GC and by the legacy flat-file reaper alike; [0] keeps
          everything forever *)
  delta_chain : int;
      (** incremental mode: maximum delta-chain depth before the next
          checkpoint is written as a full image again (bounds restart's
          chain-resolution work); [0] disables deltas — incremental
          size accounting with full image payloads *)
  lazy_restart : bool;
      (** demand-paged lazy restore ([DMTCP_LAZY_RESTART]): restart
          restores only the hot set (stacks, text, shared segments)
          before resuming threads; cold pages fault in on first touch
          and a background prefetcher drains the remainder, so restart
          blackout is O(hot set) instead of O(image) *)
  compact_depth : int;
      (** background delta-chain compaction ([DMTCP_COMPACT_DEPTH]),
          run by the scheduler's tick: chains deeper than this are
          squashed into consolidated full images at the same catalog
          name, bounding restart chain depth independently of
          [delta_chain]; [0] disables the compactor *)
  plugins : string list;
      (** enabled plugin set ([DMTCP_PLUGINS], comma-separated plugin
          names; ["none"] or empty disables all plugins).  Cached once
          per runtime install, like coordinator options are cached at
          coordinator boot.  Parsed strictly: a malformed name raises
          [Invalid_argument] rather than silently dropping the plugin. *)
  blacklist_ports : int list;
      (** blacklist-ports plugin knob ([DMTCP_PLUGIN_BLACKLIST_PORTS]):
          service ports (DNS 53, LDAP 389/636 by default) whose
          connections are skipped at drain and recreated as dead
          sockets on restart.  Bad ports raise [Invalid_argument]. *)
  ext_shm_prefix : string;
      (** ext-shm plugin knob ([DMTCP_PLUGIN_EXT_SHM_PREFIX]): shared
          mappings backed by paths under this prefix belong to an
          external service (NSCD-style) and are zeroed in the written
          image *)
  mpi_proxy_prefix : string;
      (** mpi-proxy plugin knob ([DMTCP_PLUGIN_MPI_PROXY_PREFIX]): unix
          sockets whose path starts with this prefix connect a rank to
          its node's MPI proxy daemon ({!Proxy.Daemon}).  The plugin
          skips them at drain, captures them as immediately-dead
          sockets, and at restart relaunches the node's proxy (from the
          rank's [MPI_PROXY] environment marker) before the rank
          resumes and reconnects. *)
}

val default : t

(** Render as [DMTCP_*] environment entries. *)
val to_env : t -> (string * string) list

(** Parse from a process environment (missing keys = defaults). *)
val of_env : (string * string) list -> t

(** Build from a [getenv]-style lookup (a program's view of its own
    environment), reading every key {!to_env} writes. *)
val of_getenv : (string -> string option) -> t

(** Environment marker that makes {!Simos.Kernel} treat a process as
    hijacked ([LD_PRELOAD=dmtcphijack.so] in the real system). *)
val hijack_key : string

(** Strict [DMTCP_PLUGINS] parser: comma-separated plugin names, [""]
    or ["none"] for the empty set.  Raises [Invalid_argument] on a
    malformed name (anything outside [a-z0-9-]). *)
val parse_plugins : string -> string list

(** Strict [DMTCP_PLUGIN_BLACKLIST_PORTS] parser: comma-separated
    ports; raises [Invalid_argument] on a non-port token. *)
val parse_ports : string -> int list
