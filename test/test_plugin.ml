(* The plugin table: registry semantics, dispatch order and folds,
   option parsing, the golden hook-span sequence over a full
   checkpoint/restart cycle, and the ext-sock migration regression. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* the table *)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* a test plugin hooking nothing; each case fills in its sites *)
let fake name =
  {
    Dmtcp.Plugins.name;
    doc = "test plugin";
    stage = None;
    drain_select = None;
    fd_capture = None;
    image_write = None;
    restart_discovery = None;
    restart_rearrange = None;
  }

let names = List.map (fun (p : Dmtcp.Plugins.t) -> p.name)

let test_registry_order () =
  let builtins = [ "ext-sock"; "blacklist-ports"; "proc-fd"; "ext-shm"; "mpi-proxy" ] in
  check Alcotest.(list string) "the built-ins open the table, in program order" builtins
    (List.filteri (fun i _ -> i < 5) (names (Dmtcp.Plugins.registered ())));
  check Alcotest.(list string) "all_names lists them in that order" builtins
    Dmtcp.Plugins.all_names;
  Dmtcp.Plugins.register (fake "zz-test-r");
  Dmtcp.Plugins.register (fake "zz-test-s");
  let before = names (Dmtcp.Plugins.registered ()) in
  Dmtcp.Plugins.register { (fake "zz-test-r") with doc = "replaced" };
  check Alcotest.(list string) "register replaces in place" before
    (names (Dmtcp.Plugins.registered ()));
  check Alcotest.string "the replacement is what the table holds" "replaced"
    (List.find (fun (p : Dmtcp.Plugins.t) -> p.name = "zz-test-r") (Dmtcp.Plugins.registered ()))
      .doc

let test_unknown_name_raises () =
  check Alcotest.bool "unknown plugin name rejected" true
    (raises_invalid (fun () -> Dmtcp.Plugins.resolve [ "ext-sock"; "no-such-plugin" ]));
  check Alcotest.(list string) "known names resolve" [ "ext-sock" ]
    (names (Dmtcp.Plugins.resolve [ "ext-sock" ]))

let test_dispatch_table_order () =
  let ran = ref [] in
  let recorder name = { (fake name) with stage = Some (fun _ _ -> ran := name :: !ran) } in
  Dmtcp.Plugins.register (recorder "zz-test-a");
  Dmtcp.Plugins.register (recorder "aa-test-b");
  (* the names come in the reverse of table order: dispatch must
     follow the table regardless *)
  let enabled = Dmtcp.Plugins.resolve [ "aa-test-b"; "zz-test-a" ] in
  Dmtcp.Plugins.stage enabled ~node:0 ~pid:1 ~now:0. `Pre Dmtcp.Faults.Suspend;
  check Alcotest.(list string) "dispatch follows table order" [ "zz-test-a"; "aa-test-b" ]
    (List.rev !ran)

(* fd-capture folds: each hook receives the classification the one
   before it returned, and each emits its span after it runs, in table
   order, at the caller's node, pid and time *)
let test_fd_capture_fold () =
  let file = Simos.Vfs.open_or_create (Simos.Vfs.create ()) "/tmp/fold" in
  let desc = Simos.Fdesc.make ~id:1 (Simos.Fdesc.File { file; offset = 0 }) in
  let path = function Some (Dmtcp.Ckpt_image.FFile { path; _ }) -> path | _ -> "<other>" in
  let seen = ref [] in
  let appender name suffix =
    {
      (fake name) with
      fd_capture =
        Some
          (fun _ info ->
            seen := (name, path info) :: !seen;
            match info with
            | Some (Dmtcp.Ckpt_image.FFile f) ->
              Some (Dmtcp.Ckpt_image.FFile { f with path = f.path ^ suffix })
            | other -> other);
    }
  in
  Dmtcp.Plugins.register (appender "zz-fold-1" "+1");
  Dmtcp.Plugins.register (appender "aa-fold-2" "+2");
  let enabled = Dmtcp.Plugins.resolve [ "aa-fold-2"; "zz-fold-1" ] in
  let col = Trace.collector () in
  let out =
    Trace.with_sink (Trace.collector_sink col) (fun () ->
        Dmtcp.Plugins.fd_capture enabled ~node:3 ~pid:42 ~now:1.5 desc
          (Some (Dmtcp.Ckpt_image.FFile { path = "/tmp/fold"; offset = 0 })))
  in
  check Alcotest.(list (pair string string)) "the second hook sees the first's rewrite"
    [ ("zz-fold-1", "/tmp/fold"); ("aa-fold-2", "/tmp/fold+1") ]
    (List.rev !seen);
  check Alcotest.string "the fold returns the last rewrite" "/tmp/fold+1+2" (path out);
  check Alcotest.(list string) "one span per hook, in table order, where the site fired"
    [ "plugin/zz-fold-1/fd-capture n3 p42 1.5"; "plugin/aa-fold-2/fd-capture n3 p42 1.5" ]
    (List.map
       (fun (e : Trace.event) ->
         Printf.sprintf "%s n%d p%d %g" e.Trace.name e.Trace.node e.Trace.pid e.Trace.time)
       (Trace.events col))

(* ------------------------------------------------------------------ *)
(* option parsing: strict *)

let test_parse_plugins () =
  check Alcotest.(list string) "csv" [ "ext-sock"; "proc-fd" ]
    (Dmtcp.Options.parse_plugins "ext-sock,proc-fd");
  check Alcotest.(list string) "empty means none" [] (Dmtcp.Options.parse_plugins "");
  check Alcotest.(list string) "none means none" [] (Dmtcp.Options.parse_plugins "none");
  check Alcotest.bool "malformed name rejected" true
    (raises_invalid (fun () -> Dmtcp.Options.parse_plugins "ext-sock,Bad Name!"))

(* processes no longer parse DMTCP_PLUGINS or the plugin knobs: the
   plugin set is an install option, and a malformed one raises at
   install, before any computation starts; a malformed value of a key a
   process does read raises *)
let test_of_getenv_bad_value_raises () =
  let env pairs k = List.assoc_opt k pairs in
  let base = Dmtcp.Options.default in
  check Alcotest.bool "plugin keys in a process environment are not read" true
    (Dmtcp.Options.of_getenv ~base
       (env [ ("DMTCP_PLUGINS", "ext sock"); ("DMTCP_PLUGIN_BLACKLIST_PORTS", "53,ldap") ])
    = base);
  check Alcotest.bool "unknown plugin in install options raises" true
    (raises_invalid (fun () ->
         Dmtcp.Api.install (Simos.Cluster.create ~nodes:1 ())
           ~options:{ base with Dmtcp.Options.plugins = [ "ext sock" ] }
           ()));
  (* each of the nine keys: a value [to_env] could not have written
     raises, naming the key and the value *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (key, value) ->
      check Alcotest.bool
        (Printf.sprintf "%s=%S raises, naming both" key value)
        true
        (try
           ignore (Dmtcp.Options.of_getenv ~base (env [ (key, value) ]));
           false
         with Invalid_argument m -> contains m key && contains m (Printf.sprintf "%S" value)))
    [
      ("DMTCP_COORD_HOST", "node3");
      ("DMTCP_COORD_PORT", "65536");
      ("DMTCP_CHECKPOINT_DIR", "ckpt");
      ("DMTCP_GZIP", "zstd");
      ("DMTCP_FORKED", "yes");
      ("DMTCP_INCREMENTAL", "true");
      ("DMTCP_INTERVAL", "soon");
      ("DMTCP_SYNC", "2");
      ("DMTCP_LAZY_RESTART", "");
    ]

(* ------------------------------------------------------------------ *)
(* vfs path rewrite *)

let test_vfs_rewrite () =
  let vfs = Simos.Vfs.create () in
  let f = Simos.Vfs.open_or_create vfs "/proc/7/status" in
  Simos.Vfs.append f "pid:7\n";
  let swap p = if p = "/proc/7/status" then "/proc/9/status" else p in
  Simos.Vfs.with_rewrite vfs swap (fun () ->
      let g = Simos.Vfs.open_or_create vfs "/proc/7/status" in
      check Alcotest.string "open went to the rewritten path" "/proc/9/status"
        (Simos.Vfs.path_of g));
  (* hook restored on exit *)
  check Alcotest.bool "original path reachable again" true (Simos.Vfs.exists vfs "/proc/7/status");
  (* Fun.protect: restored even when the body raises *)
  (try Simos.Vfs.with_rewrite vfs swap (fun () -> failwith "boom") with Failure _ -> ());
  check Alcotest.bool "hook restored after an exception" true
    (Simos.Vfs.exists vfs "/proc/7/status")

(* ------------------------------------------------------------------ *)
(* golden hook-span sequence over a full checkpoint/restart cycle *)

module Common = Harness.Common

let plugin_spans events =
  List.filter_map
    (fun (e : Trace.event) ->
      if String.starts_with ~prefix:"plugin/" e.Trace.name then Some e.Trace.name else None)
    events

let all_on = { Dmtcp.Options.default with Dmtcp.Options.plugins = Dmtcp.Plugins.all_names }

(* the dns pair (port 53) under every built-in plugin: checkpoint, kill,
   restart, and a slice of the restarted run *)
let dns_cycle () =
  let env = Common.setup ~nodes:4 ~cores_per_node:2 ~options:all_on () in
  ignore (Dmtcp.Api.launch env.Common.rt ~node:2 ~prog:"p:dnssrv" ~argv:[ "53" ]);
  Common.run_for env 0.3;
  ignore
    (Dmtcp.Api.launch env.Common.rt ~node:1 ~prog:"p:dnscli"
       ~argv:[ "2"; "53"; "1200"; "/data/tp_dns" ]);
  Common.run_for env 0.6;
  let col = Trace.collector () in
  Trace.with_sink (Trace.collector_sink col) (fun () ->
      Dmtcp.Api.checkpoint_now env.Common.rt;
      let script = Dmtcp.Api.restart_script env.Common.rt in
      Dmtcp.Api.kill_computation env.Common.rt;
      Dmtcp.Api.restart env.Common.rt script;
      Dmtcp.Api.await_restart env.Common.rt;
      Common.run_for env 0.3);
  Trace.events col

(* The exact span stream the cycle must produce — locked in as a golden:
   any change to hook placement, dispatch order, or the per-fd capture
   loop shows up as a diff here.  Sites appear in protocol order
   (drain-select at the drain stage, fd-capture per fd at the write
   stage, image-write per image, restart-rearrange per restored
   process); within one site, plugins fire in registration order. *)
let golden_spans =
  [
    "plugin/blacklist-ports/drain-select";
    "plugin/mpi-proxy/drain-select";
    "plugin/blacklist-ports/drain-select";
    "plugin/mpi-proxy/drain-select";
    "plugin/ext-shm/image-write";
    "plugin/blacklist-ports/fd-capture";
    "plugin/mpi-proxy/fd-capture";
    "plugin/blacklist-ports/fd-capture";
    "plugin/mpi-proxy/fd-capture";
    "plugin/ext-shm/image-write";
    "plugin/blacklist-ports/fd-capture";
    "plugin/mpi-proxy/fd-capture";
    "plugin/blacklist-ports/fd-capture";
    "plugin/mpi-proxy/fd-capture";
    "plugin/proc-fd/restart-rearrange";
    "plugin/mpi-proxy/restart-rearrange";
    "plugin/proc-fd/restart-rearrange";
    "plugin/mpi-proxy/restart-rearrange";
  ]

let test_golden_spans () =
  let got = plugin_spans (dns_cycle ()) in
  check Alcotest.(list string) "plugin span sequence matches the golden" golden_spans got

let test_spans_deterministic () =
  let a = plugin_spans (dns_cycle ()) in
  let b = plugin_spans (dns_cycle ()) in
  check Alcotest.(list string) "two cycles, identical span streams" a b

(* ------------------------------------------------------------------ *)
(* ext-sock migration regression: the inline external-peer dead-socket
   special case now lives in the ext-sock plugin; the restart must
   behave exactly as before the migration — same 5 s discovery wait,
   dead socket from the plugin hook — and produce deterministic images *)

let external_peer_cycle () =
  let env = Common.setup ~nodes:4 ~cores_per_node:2 () in
  let cl = env.Common.cl in
  (* plain (unhijacked) server: survives kill_computation and is never
     part of the restart set *)
  ignore
    (Simos.Kernel.spawn (Simos.Cluster.kernel cl 1) ~prog:"p:stream-server"
       ~argv:[ "6000"; "200000"; "/tmp/xp" ] ());
  Common.run_for env 0.3;
  ignore
    (Dmtcp.Api.launch env.Common.rt ~node:2 ~prog:"p:stream-client"
       ~argv:[ "1"; "6000"; "200000" ]);
  Common.run_for env 0.3;
  Dmtcp.Api.checkpoint_now env.Common.rt;
  let script = Dmtcp.Api.restart_script env.Common.rt in
  let image_bytes =
    List.concat_map
      (fun (host, paths) ->
        List.map
          (fun path ->
            match Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cl host)) path with
            | Some f -> Simos.Vfs.read_all f
            | None -> Alcotest.failf "image %s missing on node %d" path host)
          paths)
      script.Dmtcp.Restart_script.entries
    |> String.concat ""
  in
  Dmtcp.Api.kill_computation env.Common.rt;
  let col = Trace.collector () in
  Trace.with_sink (Trace.collector_sink col) (fun () ->
      Dmtcp.Api.restart env.Common.rt script;
      Dmtcp.Api.await_restart env.Common.rt);
  let reconnect_secs =
    match List.assoc_opt "restart/reconnect" (Trace.Query.stage_stats (Trace.events col)) with
    | Some s -> Util.Stats.mean s
    | None -> Alcotest.fail "restart/reconnect not recorded"
  in
  (image_bytes, plugin_spans (Trace.events col), reconnect_secs)

let test_ext_sock_migration () =
  let bytes_a, spans, reconnect = external_peer_cycle () in
  (* pre-migration behavior, now produced through the hook: the full
     discovery deadline, then a dead socket from ext-sock *)
  check Alcotest.bool
    (Printf.sprintf "discovery gave up at the 5 s deadline (got %.9f)" reconnect)
    true
    (Float.abs (reconnect -. 5.0) < 1e-6);
  check Alcotest.bool "ext-sock answered the discovery hook" true
    (List.mem "plugin/ext-sock/restart-discovery" spans);
  (* image byte-identity: a second identical run writes the same bytes *)
  let bytes_b, _, _ = external_peer_cycle () in
  check Alcotest.bool "checkpoint images byte-identical across runs" true (bytes_a = bytes_b);
  check Alcotest.bool "images non-trivial" true (String.length bytes_a > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "plugin"
    [
      ( "registry",
        [
          Alcotest.test_case "registration order stable" `Quick test_registry_order;
          Alcotest.test_case "unknown name rejected" `Quick test_unknown_name_raises;
          Alcotest.test_case "dispatch in registration order" `Quick test_dispatch_table_order;
          Alcotest.test_case "fd-capture folds in table order" `Quick test_fd_capture_fold;
        ] );
      ( "options",
        [
          Alcotest.test_case "parse_plugins" `Quick test_parse_plugins;
          Alcotest.test_case "bad env values raise" `Quick test_of_getenv_bad_value_raises;
        ] );
      ( "vfs-rewrite",
        [ Alcotest.test_case "with_rewrite scoping" `Quick test_vfs_rewrite ] );
      ( "hook-order",
        [
          Alcotest.test_case "golden span sequence (ckpt/restart cycle)" `Quick
            test_golden_spans;
          Alcotest.test_case "span stream deterministic" `Quick test_spans_deterministic;
        ] );
      ( "migration",
        [
          Alcotest.test_case "ext-sock reproduces the inline special case" `Quick
            test_ext_sock_migration;
        ] );
    ]
