type t = {
  coord_host : int;
  coord_port : int;
  ckpt_dir : string;
  algo : Compress.Algo.t;
  forked : bool;
  incremental : bool;
  interval : float option;
  sync_after : bool;
  lazy_restart : bool;
  (* per cluster, read through Runtime.options; never in the environment *)
  store : bool;
  store_replicas : int;
  keep_generations : int;  (* retention for store GC and legacy files; 0 = unbounded *)
  compact_depth : int;
      (* background compaction: squash delta chains deeper than this
         into consolidated full images; 0 = compactor off *)
  plugins : string list;
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
    lazy_restart = false;
    store = false;
    store_replicas = 2;
    keep_generations = 2;
    compact_depth = 0;
    plugins = [ "ext-sock" ];
  }

let hijack_key = "DMTCP_HIJACK"

let plugin_name_ok n =
  n <> ""
  && String.for_all (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-') n

(* Strict: raises [Invalid_argument] on malformed values, because a
   typo'd plugin silently not running is an open-world data-loss bug. *)
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

let flag b = if b then "1" else "0"

(* Note: deliberately does NOT set the hijack marker — only
   dmtcp_checkpoint's exec wrapper injects the library, so DMTCP's own
   helper processes (coordinator, command, restart) stay un-hijacked. *)
let to_env t =
  [
    ("DMTCP_COORD_HOST", string_of_int t.coord_host);
    ("DMTCP_COORD_PORT", string_of_int t.coord_port);
    ("DMTCP_CHECKPOINT_DIR", t.ckpt_dir);
    ("DMTCP_GZIP", Compress.Algo.name t.algo);
    ("DMTCP_FORKED", flag t.forked);
    ("DMTCP_INCREMENTAL", flag t.incremental);
    ("DMTCP_INTERVAL", (match t.interval with Some i -> string_of_float i | None -> "0"));
    ("DMTCP_SYNC", flag t.sync_after);
    ("DMTCP_LAZY_RESTART", flag t.lazy_restart);
  ]

(* Strict: a value [to_env] could not have written raises
   [Invalid_argument] naming the key and the value, because a process
   that silently runs with other settings than its launcher chose is an
   open-world bug of its own. *)
let of_getenv ~base getenv =
  let read key parse default =
    match getenv key with
    | None -> default
    | Some v -> (
      match parse v with
      | Some x -> x
      | None -> invalid_arg (Printf.sprintf "%s: malformed value %S" key v))
  in
  let nat ?(max = max_int) key =
    read key (fun v ->
        match int_of_string_opt v with Some n when n >= 0 && n <= max -> Some n | _ -> None)
  in
  let flag key = read key (function "0" -> Some false | "1" -> Some true | _ -> None) in
  {
    base with
    coord_host = nat "DMTCP_COORD_HOST" base.coord_host;
    coord_port = nat ~max:65535 "DMTCP_COORD_PORT" base.coord_port;
    ckpt_dir =
      read "DMTCP_CHECKPOINT_DIR"
        (fun v -> if String.starts_with ~prefix:"/" v then Some v else None)
        base.ckpt_dir;
    algo = read "DMTCP_GZIP" Compress.Algo.of_name base.algo;
    forked = flag "DMTCP_FORKED" base.forked;
    incremental = flag "DMTCP_INCREMENTAL" base.incremental;
    interval =
      read "DMTCP_INTERVAL"
        (fun v ->
          match float_of_string_opt v with
          | Some 0. -> Some None
          | Some i when i > 0. && Float.is_finite i -> Some (Some i)
          | _ -> None)
        base.interval;
    sync_after = flag "DMTCP_SYNC" base.sync_after;
    lazy_restart = flag "DMTCP_LAZY_RESTART" base.lazy_restart;
  }

let of_env ~base env = of_getenv ~base (fun key -> List.assoc_opt key env)
