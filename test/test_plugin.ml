(* The plugin/event-hook subsystem: registry semantics, option parsing,
   dispatch-order determinism, the golden hook-span sequence over a full
   checkpoint/restart cycle, and the ext-sock migration regression. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* registry *)

let test_registry_order () =
  Dmtcp.Plugins.ensure_registered ();
  let names () = List.map (fun (p : Plugin.t) -> p.Plugin.p_name) (Plugin.registered ()) in
  let first = names () in
  List.iter
    (fun n -> check Alcotest.bool (n ^ " registered") true (List.mem n first))
    Dmtcp.Plugins.all_names;
  (* re-registration is positionally stable: the order cannot depend on
     how many times ensure_registered ran *)
  Dmtcp.Plugins.ensure_registered ();
  Dmtcp.Plugins.ensure_registered ();
  check Alcotest.(list string) "order stable across re-registration" first (names ())

let test_set_enabled_unknown_raises () =
  Dmtcp.Plugins.ensure_registered ();
  check Alcotest.bool "unknown plugin name rejected" true
    (try
       Plugin.set_enabled [ "ext-sock"; "no-such-plugin" ];
       false
     with Invalid_argument _ -> true);
  (* a rejected set must not have been half-applied *)
  Plugin.set_enabled [ "ext-sock" ];
  check Alcotest.(list string) "enabled set intact" [ "ext-sock" ] (Plugin.enabled_names ())

type Plugin.payload += Test_payload

let test_dispatch_registration_order () =
  Dmtcp.Plugins.ensure_registered ();
  let ran = ref [] in
  let fake name =
    {
      Plugin.p_name = name;
      p_doc = "test plugin";
      p_hooks = [ ("test-site", fun _ -> ran := name :: !ran) ];
    }
  in
  Plugin.register (fake "zz-test-a");
  Plugin.register (fake "aa-test-b");
  (* enablement order is the reverse of registration order: dispatch
     must follow registration order regardless *)
  Plugin.set_enabled [ "aa-test-b"; "zz-test-a" ];
  Plugin.dispatch ~now:0. "test-site" Test_payload;
  check Alcotest.(list string) "dispatch follows registration order"
    [ "zz-test-a"; "aa-test-b" ] (List.rev !ran);
  Plugin.set_enabled []

let test_site_counts () =
  Dmtcp.Plugins.ensure_registered ();
  let hits = ref 0 in
  Plugin.register
    { Plugin.p_name = "zz-test-c"; p_doc = "t"; p_hooks = [ ("count-site", fun _ -> incr hits) ] };
  Plugin.set_enabled [ "zz-test-c" ];
  Plugin.reset_counts ();
  for _ = 1 to 3 do
    Plugin.dispatch ~now:0. "count-site" Test_payload
  done;
  check Alcotest.(option int) "three dispatches counted" (Some 3)
    (List.assoc_opt "count-site" (Plugin.site_counts ()));
  check Alcotest.int "handler ran per dispatch" 3 !hits;
  Plugin.set_enabled []

(* ------------------------------------------------------------------ *)
(* option parsing: strict *)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

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
  Chaos.Heuristic_progs.ensure_registered ();
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
  Chaos.Progs.ensure_registered ();
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
          Alcotest.test_case "unknown name rejected" `Quick test_set_enabled_unknown_raises;
          Alcotest.test_case "dispatch in registration order" `Quick
            test_dispatch_registration_order;
          Alcotest.test_case "site counts" `Quick test_site_counts;
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
