type t = {
  coord_host : int;
  coord_port : int;
  ckpt_dir : string;
  algo : Compress.Algo.t;
  forked : bool;
  incremental : bool;
  interval : float option;
  sync_after : bool;
  store : bool;
  store_replicas : int;
  store_quorum : int;  (* 0 = majority of store_replicas *)
  keep_generations : int;  (* retention for store GC and legacy files; 0 = unbounded *)
  delta_chain : int;
      (* incremental mode: max delta-chain depth before the next
         checkpoint is written full again; 0 = always full images *)
  lazy_restart : bool;
  compact_depth : int;
      (* background compaction: squash delta chains deeper than this
         into consolidated full images; 0 = compactor off *)
  plugins : string list;
      (* enabled plugin set (DMTCP_PLUGINS, comma-separated; "none"
         disables every plugin).  Parsed strictly: malformed names
         raise, unlike the forgiving numeric knobs, because a typo'd
         plugin silently not running is an open-world data-loss bug. *)
  blacklist_ports : int list;
      (* blacklist-ports plugin knob (DMTCP_PLUGIN_BLACKLIST_PORTS):
         service ports whose connections are skipped at drain and
         recreated as dead sockets on restart *)
  ext_shm_prefix : string;
      (* ext-shm plugin knob (DMTCP_PLUGIN_EXT_SHM_PREFIX): shared
         mappings backed by paths under this prefix belong to an
         external service and are zeroed in the written image *)
  mpi_proxy_prefix : string;
      (* mpi-proxy plugin knob (DMTCP_PLUGIN_MPI_PROXY_PREFIX): unix
         sockets whose path starts with this prefix connect a rank to
         its node's MPI proxy daemon; they are not drained and restore
         as dead sockets so the rank reconnects to the relaunched
         proxy *)
}

let default =
  {
    coord_host = 0;
    coord_port = 7779;
    ckpt_dir = "/ckpt";
    algo = Compress.Algo.Deflate;
    forked = false;
    incremental = false;
    interval = None;
    sync_after = false;
    store = false;
    store_replicas = 2;
    store_quorum = 0;
    keep_generations = 2;
    delta_chain = 8;
    lazy_restart = false;
    compact_depth = 0;
    plugins = [ "ext-sock" ];
    blacklist_ports = [ 53; 389; 636 ];
    ext_shm_prefix = "/var/db/nscd";
    mpi_proxy_prefix = Proxy.Wire.path_prefix;
  }

let hijack_key = "DMTCP_HIJACK"

let plugin_name_ok n =
  n <> ""
  && String.for_all (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-') n

(* Strict: raises [Invalid_argument] on malformed values. *)
let parse_plugins s =
  match String.trim s with
  | "" | "none" -> []
  | s ->
    let names = String.split_on_char ',' s |> List.map String.trim in
    List.iter
      (fun n ->
        if not (plugin_name_ok n) then
          invalid_arg (Printf.sprintf "DMTCP_PLUGINS: malformed plugin name %S" n))
      names;
    names

let parse_ports s =
  match String.trim s with
  | "" -> []
  | s ->
    String.split_on_char ',' s
    |> List.map (fun tok ->
           match int_of_string_opt (String.trim tok) with
           | Some p when p > 0 && p < 65536 -> p
           | _ ->
             invalid_arg (Printf.sprintf "DMTCP_PLUGIN_BLACKLIST_PORTS: bad port %S" tok))

let plugins_to_string = function [] -> "none" | names -> String.concat "," names

(* Note: deliberately does NOT set the hijack marker — only
   dmtcp_checkpoint's exec wrapper injects the library, so DMTCP's own
   helper processes (coordinator, command, restart) stay un-hijacked. *)
let to_env t =
  [
    ("DMTCP_COORD_HOST", string_of_int t.coord_host);
    ("DMTCP_COORD_PORT", string_of_int t.coord_port);
    ("DMTCP_CHECKPOINT_DIR", t.ckpt_dir);
    ("DMTCP_GZIP", Compress.Algo.name t.algo);
    ("DMTCP_FORKED", if t.forked then "1" else "0");
    ("DMTCP_INCREMENTAL", if t.incremental then "1" else "0");
    ("DMTCP_INTERVAL", (match t.interval with Some i -> string_of_float i | None -> "0"));
    ("DMTCP_SYNC", if t.sync_after then "1" else "0");
    ("DMTCP_STORE", if t.store then "1" else "0");
    ("DMTCP_STORE_REPLICAS", string_of_int t.store_replicas);
    ("DMTCP_STORE_QUORUM", string_of_int t.store_quorum);
    ("DMTCP_KEEP_GENERATIONS", string_of_int t.keep_generations);
    ("DMTCP_DELTA_CHAIN", string_of_int t.delta_chain);
    ("DMTCP_LAZY_RESTART", if t.lazy_restart then "1" else "0");
    (* retired knob, read by nobody: checkpoint images capture the
       process environment, so dropping the entry would change every
       image's bytes *)
    ("DMTCP_RESTART_PARALLEL", "0");
    ("DMTCP_COMPACT_DEPTH", string_of_int t.compact_depth);
    ("DMTCP_PLUGINS", plugins_to_string t.plugins);
    ( "DMTCP_PLUGIN_BLACKLIST_PORTS",
      String.concat "," (List.map string_of_int t.blacklist_ports) );
    ("DMTCP_PLUGIN_EXT_SHM_PREFIX", t.ext_shm_prefix);
    ("DMTCP_PLUGIN_MPI_PROXY_PREFIX", t.mpi_proxy_prefix);
  ]

let of_env env =
  let get key default = Option.value ~default (List.assoc_opt key env) in
  let get_int key default = try int_of_string (get key (string_of_int default)) with _ -> default in
  let coord_host = get_int "DMTCP_COORD_HOST" default.coord_host in
  let coord_port = get_int "DMTCP_COORD_PORT" default.coord_port in
  let ckpt_dir = get "DMTCP_CHECKPOINT_DIR" default.ckpt_dir in
  let algo =
    Option.value ~default:default.algo (Compress.Algo.of_name (get "DMTCP_GZIP" "deflate"))
  in
  let forked = get "DMTCP_FORKED" "0" = "1" in
  let incremental = get "DMTCP_INCREMENTAL" "0" = "1" in
  let interval = match float_of_string (get "DMTCP_INTERVAL" "0") with 0. -> None | i -> Some i in
  let sync_after = get "DMTCP_SYNC" "0" = "1" in
  let store = get "DMTCP_STORE" "0" = "1" in
  let store_replicas = get_int "DMTCP_STORE_REPLICAS" default.store_replicas in
  let store_quorum = get_int "DMTCP_STORE_QUORUM" default.store_quorum in
  let keep_generations = get_int "DMTCP_KEEP_GENERATIONS" default.keep_generations in
  let delta_chain = get_int "DMTCP_DELTA_CHAIN" default.delta_chain in
  let lazy_restart = get "DMTCP_LAZY_RESTART" "0" = "1" in
  let compact_depth = get_int "DMTCP_COMPACT_DEPTH" default.compact_depth in
  let plugins =
    match List.assoc_opt "DMTCP_PLUGINS" env with
    | None -> default.plugins
    | Some s -> parse_plugins s
  in
  let blacklist_ports =
    match List.assoc_opt "DMTCP_PLUGIN_BLACKLIST_PORTS" env with
    | None -> default.blacklist_ports
    | Some s -> parse_ports s
  in
  let ext_shm_prefix = get "DMTCP_PLUGIN_EXT_SHM_PREFIX" default.ext_shm_prefix in
  let mpi_proxy_prefix = get "DMTCP_PLUGIN_MPI_PROXY_PREFIX" default.mpi_proxy_prefix in
  {
    coord_host;
    coord_port;
    ckpt_dir;
    algo;
    forked;
    incremental;
    interval;
    sync_after;
    store;
    store_replicas;
    store_quorum;
    keep_generations;
    delta_chain;
    lazy_restart;
    compact_depth;
    plugins;
    blacklist_ports;
    ext_shm_prefix;
    mpi_proxy_prefix;
  }

(* look up every key [to_env] writes: no hand-kept list for a new key to
   go missing from *)
let of_getenv getenv =
  of_env (List.filter_map (fun (k, _) -> Option.map (fun v -> (k, v)) (getenv k)) (to_env default))
