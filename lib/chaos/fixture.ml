(* The chaos fixture: the paper's one end-to-end check (§5) —
   checkpoint, fault, restart, compare against an unfaulted run —
   written once.

   A scenario is a [cycle] value plus its own checks.  [run] plays
   setup → launch → settle → checkpoint(s) → fault → restart → run until
   the verdict file appears, all under one trace collector, and returns
   the [outcome] the judges read: [expect] compares the verdict with an
   expected string or with a no-fault reference run of the same cycle,
   and [clean_abort] demands that an unrecoverable restart fail cleanly.

   The scenarios live outside [Scenario.sample], so the pinned torture
   corpus's RNG draw order is untouched, and all of them are
   deterministic.  [scenarios] is the one table that `dmtcp_sim chaos`
   and the test suites run.  The scheduler scenarios
   ([Sched_scenario]) reuse [store_options] and [unless]. *)

module Common = Harness.Common

let sprintf = Printf.sprintf

(* [[]] when [ok], else the one violation [msg] *)
let unless ok msg = if ok then [] else [ msg ]

type cycle = {
  options : Dmtcp.Options.t;
  launch : Common.env -> unit;
  settle : float;  (* run before the first checkpoint *)
  gaps : float list;  (* each gap is run, then one further checkpoint *)
  fault : Common.env -> string list;
      (* after the last checkpoint, before the restart; returns violations *)
  restart : Common.env -> Dmtcp.Restart_script.t -> string list;
  verdict : int * string;  (* node and path of the file the workload writes last *)
  timeout : float;  (* virtual seconds the restarted run gets to write it *)
}

type outcome = {
  cycle : cycle;
  env : Common.env;
  script : Dmtcp.Restart_script.t;  (* what the restart ran from *)
  output : string option;  (* the verdict file, if it was written *)
  events : Trace.event list;  (* the whole cycle's trace *)
  notes : string list;  (* violations the fault and restart steps reported *)
}

let kill env = Dmtcp.Api.kill_computation env.Common.rt

let restart env script =
  Dmtcp.Api.restart env.Common.rt script;
  []

let home = 1 (* the workload's node; the coordinator runs on node 0 *)

(* launch, settle, one checkpoint, kill, restart; the verdict is [path]
   on [node] *)
let make ?(node = home) ~options ~settle ~timeout ~launch path =
  {
    options;
    launch;
    settle;
    gaps = [];
    fault =
      (fun env ->
        kill env;
        []);
    restart;
    verdict = (node, path);
    timeout;
  }

let launch_on env ~node prog argv = ignore (Dmtcp.Api.launch env.Common.rt ~node ~prog ~argv)

let boot c =
  let env = Common.setup ~nodes:4 ~cores_per_node:2 ~options:c.options () in
  c.launch env;
  env

let await_verdict c env =
  let node, path = c.verdict in
  Common.run_until env ~timeout:c.timeout (fun () -> Common.read_file env ~node path <> None);
  Common.read_file env ~node path

let run c =
  let col = Trace.collector () in
  Trace.with_sink (Trace.collector_sink col) (fun () ->
      let env = boot c in
      Common.run_for env c.settle;
      Dmtcp.Api.checkpoint_now env.Common.rt;
      List.iter
        (fun gap ->
          Common.run_for env gap;
          Dmtcp.Api.checkpoint_now env.Common.rt)
        c.gaps;
      let faulted = c.fault env in
      let script = Dmtcp.Api.restart_script env.Common.rt in
      let restarted = c.restart env script in
      let output = await_verdict c env in
      { cycle = c; env; script; output; events = Trace.events col; notes = faulted @ restarted })

(* the same launch, never checkpointed: the bytes every faulted run of
   the cycle must reproduce *)
let reference c = await_verdict c (boot c)

(* ------------------------------------------------------------------ *)
(* Queries *)

let args o name =
  List.find_map
    (fun (e : Trace.event) -> if e.Trace.name = name then Some e.Trace.args else None)
    o.events

let saw o name = args o name <> None

let exit_codes o =
  List.filter_map
    (fun (e : Trace.event) ->
      if e.Trace.name = "proc/exit" then List.assoc_opt "code" e.Trace.args else None)
    o.events

let store env = Option.get (Dmtcp.Runtime.store env.Common.rt)

let images_available env =
  Dmtcp.Api.script_images_available env.Common.rt (Dmtcp.Api.restart_script env.Common.rt)

(* While [f fired] runs, kill the whole computation the moment any
   manager reaches [stage] — between that stage's hooks and the next
   stage's.  The kill is scheduled at the current virtual time so the
   notifying step retires cleanly (same pattern as the torture
   runner). *)
let with_stage_kill env stage f =
  let fired = ref false in
  Dmtcp.Runtime.with_observer env.Common.rt
    (fun ~node:_ ~pid:_ s ->
      if s = stage && not !fired then begin
        fired := true;
        ignore
          (Sim.Engine.schedule (Simos.Cluster.engine env.Common.cl) ~delay:0. (fun () ->
               kill env))
      end)
    (fun () -> f fired)

(* the delta-chain depth of each image the restart ran from *)
let chain_depths o =
  let rt = o.env.Common.rt in
  List.concat_map
    (fun (_, paths) ->
      List.filter_map
        (fun path ->
          Option.map
            (fun (img, _) -> Util.Chain.depth (Dmtcp.Image_chain.peek_chain rt path img))
            (Dmtcp.Image_chain.peek rt path))
        paths)
    o.script.Dmtcp.Restart_script.entries

(* ------------------------------------------------------------------ *)
(* Judges *)

type want = Exactly of string | Unfaulted

let expect ~what want o =
  let want = match want with Exactly s -> Some s | Unfaulted -> reference o.cycle in
  match (want, o.output) with
  | None, _ -> [ sprintf "%s: the no-fault reference run never produced a verdict" what ]
  | _, None -> [ sprintf "%s: never produced a verdict" what ]
  | Some w, Some got ->
    unless (got = w) (sprintf "%s: expected %S, got %S" what w got)

(* An unrecoverable restart must fail cleanly: the restarter exits 73
   with the lost blocks named in the trace, nothing is half-restored,
   and no output appears. *)
let clean_abort o =
  let codes = exit_codes o in
  let lost = string_of_int Dmtcp.Exit_code.blocks_lost in
  unless (List.mem lost codes)
    (sprintf "restarter did not exit %s (saw exits: %s)" lost (String.concat "," codes))
  @ (match args o "rst/missing-blocks" with
    | None -> [ "no missing-blocks report from the restarter" ]
    | Some a ->
      unless
        (Option.value ~default:"" (List.assoc_opt "blocks" a) <> "")
        "missing-blocks report does not name the lost blocks")
  @ unless
      (Dmtcp.Runtime.hijacked_processes o.env.Common.rt = [])
      (sprintf "processes half-restored after a failed (exit %s) restart" lost)
  @ unless (o.output = None) "output produced despite unrecoverable images"

(* ------------------------------------------------------------------ *)
(* Store, delta-chain and lazy-restore faults, on one memhog process:
   8 MB resident, output written only at completion *)

let store_options =
  {
    Dmtcp.Options.default with
    Dmtcp.Options.store = true;
    store_replicas = 2;
    keep_generations = 2;
  }

let hog_result iters = sprintf "hog:%d" iters

let hog ?(iters = 400) ?(options = store_options) path =
  make ~options ~settle:0.5 ~timeout:30. path ~launch:(fun env ->
      launch_on env ~node:home "p:memhog" [ "8"; string_of_int iters; path ])

(* the home node's disk dies: every block loses its local replica; the
   restart must pull the surviving remote ones *)
let replica_loss () =
  let o =
    run
      {
        (hog "/data/sf_out") with
        fault =
          (fun env ->
            kill env;
            Store.drop_node (store env) home;
            unless (images_available env)
              "images reported unavailable with a replica of every block surviving"
            @ List.map
                (sprintf "store verify after one-replica loss: %s")
                (Store.verify (store env)));
      }
  in
  o.notes
  @ expect ~what:"restart from surviving replica" (Exactly (hog_result 400)) o
  @ Invariant.store_replication o.env.Common.rt

(* every node's disk dies: no replica of any block survives *)
let total_loss () =
  let o =
    run
      {
        (hog "/data/sf_out") with
        fault =
          (fun env ->
            kill env;
            for node = 0 to Simos.Cluster.nodes env.Common.cl - 1 do
              Store.drop_node (store env) node
            done;
            unless (not (images_available env)) "images reported available with every replica lost");
        timeout = 5.;
      }
  in
  o.notes @ clean_abort o

(* four checkpoints under incremental mode leave a depth-3 delta chain;
   its restart must be byte-identical to the same cadence with full
   images — deltas are invisible to the computation *)
let deep_chain () =
  let chain incremental path =
    run
      {
        (hog ~iters:3000 ~options:{ Dmtcp.Options.default with Dmtcp.Options.incremental } path)
        with
        gaps = [ 0.2; 0.2; 0.2 ];
      }
  in
  let delta = chain true "/data/df_delta" in
  let full = chain false "/data/df_full" in
  let depths o = String.concat "," (List.map string_of_int (chain_depths o)) in
  let replays o =
    List.length (List.filter (fun (e : Trace.event) -> e.Trace.name = "rst/delta-resolve") o.events)
  in
  unless (depths delta = "3")
    (sprintf "incremental run restarted from chain depths [%s], not one depth-3 chain"
       (depths delta))
  @ unless (replays delta = 3)
      (sprintf "the depth-3 restart replayed %d deltas, not 3" (replays delta))
  @ unless (depths full = "0")
      (sprintf "full-image run restarted from chain depths [%s]" (depths full))
  @ expect ~what:"delta-chain restart" (Exactly (hog_result 3000)) delta
  @ expect ~what:"full-image restart" (Exactly (hog_result 3000)) full

(* the node dies while a forked incremental checkpoint's background
   write is still in flight.  The restart must come back with the exact
   output — from the delta if its write landed, else from the newest
   fully-resolvable generation — or abort cleanly. *)
let forked_crash () =
  let options =
    {
      store_options with
      Dmtcp.Options.incremental = true;
      forked = true;
      keep_generations = 3;
    }
  in
  let o =
    run
      {
        (hog ~iters:3000 ~options "/data/df_forked") with
        fault =
          (fun env ->
            (* let the full checkpoint's background write land, so the
               delta has a durable base *)
            Common.run_until env ~timeout:30. (fun () -> Store.manifests (store env) <> []);
            let landed = Store.manifests (store env) <> [] in
            Common.run_for env 0.3;
            (* the delta's blackout ends at the snapshot; the node dies
               with its compression and store write still running *)
            Dmtcp.Api.checkpoint_now env.Common.rt;
            Simos.Cluster.crash_node env.Common.cl home;
            unless landed "full checkpoint never landed in the store");
      }
  in
  o.notes
  @
  if o.output = None then clean_abort o
  else
    expect ~what:"restart after mid-forked crash" (Exactly (hog_result 3000)) o
    @ unless
        (saw o "rst/delta-resolve" || saw o "rst/delta-fallback")
        "restart recovered but the trace shows neither a delta resolve nor a fallback"

(* the only replica of a delta's base generation is lost: the chain is
   unresolvable and the restart must abort cleanly *)
let base_loss () =
  let options =
    {
      Dmtcp.Options.default with
      Dmtcp.Options.incremental = true;
      store = true;
      store_replicas = 1;
      keep_generations = 3;
    }
  in
  let o =
    run
      {
        (hog ~iters:3000 ~options "/data/df_base") with
        gaps = [ 0.3 ];
        timeout = 5.;
        fault =
          (fun env ->
            kill env;
            let store = store env in
            (* the catalog must hold a delta chained to a full base, or
               this scenario is not testing what it claims *)
            let shape =
              match
                List.find_opt
                  (fun (m : Store.manifest) -> m.Store.m_base <> None)
                  (Store.manifests store)
              with
              | None -> [ "no delta manifest in the catalog after two incremental checkpoints" ]
              | Some m -> (
                let base = Option.get m.Store.m_base in
                match Store.find store ~name:base with
                | None -> [ sprintf "delta's base %s is not catalogued" base ]
                | Some b -> unless (b.Store.m_base = None) "expected a full base, got a delta")
            in
            (* every block, base generation included, has its single
               replica on the writing node *)
            Store.drop_node store home;
            shape
            @ unless (not (images_available env))
                "images reported available with the delta's base generation gone");
      }
  in
  o.notes @ clean_abort o

let lazy_options =
  { store_options with Dmtcp.Options.store_replicas = 3; lazy_restart = true }

(* a lazy restart's node crashes while the prefetcher is mid-drain; a
   second restart from the same images must finish exactly, and the
   orphaned prefetcher must stop without touching the dead processes *)
let lazy_kill () =
  let o =
    run
      {
        (hog ~options:lazy_options "/data/rf_out") with
        fault =
          (fun env ->
            kill env;
            Dmtcp.Api.restart env.Common.rt (Dmtcp.Api.restart_script env.Common.rt);
            Dmtcp.Api.await_restart env.Common.rt;
            (* threads run, but most cold pages are still absent *)
            Common.run_for env 0.02;
            Simos.Cluster.crash_node env.Common.cl home;
            let survivors = Dmtcp.Runtime.hijacked_processes env.Common.rt in
            Common.run_for env 1.0;
            unless (survivors = []) "hijacked processes survived a node crash");
      }
  in
  o.notes
  @ expect ~what:"restart after mid-prefetch crash" (Exactly (hog_result 400)) o
  @ Invariant.store_replication o.env.Common.rt

(* two of four nodes drop out from under a lazy restart's striped
   fetch.  Replicas land on three distinct nodes, so every block keeps
   a copy on node 0 or [home] and the restart must complete. *)
let stripe_drop () =
  let o =
    run
      {
        (hog ~options:lazy_options "/data/rf_out") with
        restart =
          (fun env script ->
            Dmtcp.Api.restart env.Common.rt script;
            (* between the restarter's boot and memory-restore phases *)
            Common.run_for env 0.01;
            Store.drop_node (store env) 2;
            Store.drop_node (store env) 3;
            List.map
              (sprintf "store verify after striped-replica loss: %s")
              (Store.verify (store env)));
      }
  in
  o.notes @ expect ~what:"restart across replica drop" (Exactly (hog_result 400)) o

(* ------------------------------------------------------------------ *)
(* The open-world heuristics (SNIPPETS.md §2) as plugins.  With the
   plugin on, the fault is a second checkpoint round killed between two
   of the heuristic's hook stages; with it off, a plain kill. *)

let kill_in_round stage env =
  with_stage_kill env stage (fun fired ->
      Dmtcp.Api.checkpoint env.Common.rt;
      Common.run_until env ~timeout:30. (fun () ->
          !fired && Dmtcp.Runtime.hijacked_processes env.Common.rt = []));
  []

let heuristic ~settle ~launch path plugins =
  make ~options:{ Dmtcp.Options.default with Dmtcp.Options.plugins } ~settle ~timeout:60. ~launch
    path

let dns_count = 1200

(* a client/server pair on port 53 — a blacklisted port *)
let dns =
  heuristic ~settle:0.6 "/data/pf_dns" ~launch:(fun env ->
      launch_on env ~node:2 "p:dnssrv" [ "53" ];
      Common.run_for env 0.3;
      launch_on env ~node:home "p:dnscli" [ "2"; "53"; string_of_int dns_count; "/data/pf_dns" ])

let proc_iters = 2500

(* holds an fd on /proc/<pid>/status across the restart *)
let procfd =
  heuristic ~settle:0.8 "/data/pf_proc" ~launch:(fun env ->
      launch_on env ~node:home "p:procfd" [ string_of_int proc_iters; "/data/pf_proc" ])

let shm_lookups = 2500

(* lookups through an NSCD-style shared segment under /var/db/nscd *)
let nscd =
  heuristic ~settle:0.8 "/data/pf_shm" ~launch:(fun env ->
      launch_on env ~node:home "p:nscdapp" [ string_of_int shm_lookups; "/data/pf_shm" ])

(* Plugin on: the connection is skipped at drain, demoted to a dead
   socket at capture, and the kill lands at the drain stage of a second
   round.  Restarted from round one, the client must finish every lookup
   in fallback mode without the 5 s external-peer stall.  Plugin off:
   the connection is drained and restored, and the run finishes live. *)
let blacklist_skip () =
  let o =
    run { (dns [ "ext-sock"; "blacklist-ports" ]) with fault = kill_in_round Dmtcp.Faults.Drain }
  in
  let restart_secs = Dmtcp.Api.last_restart_seconds o.env.Common.rt in
  o.notes
  @ expect ~what:"blacklisted restart" (Exactly (sprintf "dns:%d degraded" dns_count)) o
  @ unless (saw o "plugin/blacklist-ports/drain-select") "no blacklist-ports span at drain-select"
  @ unless (saw o "plugin/blacklist-ports/fd-capture") "no blacklist-ports span at fd-capture"
  @ (match args o "rst/sockets-done" with
    | Some a ->
      unless (List.assoc_opt "external" a = Some "0")
        "blacklisted connection still went through external discovery"
      @ unless (List.assoc_opt "timed_out" a = Some "false")
          "restart waited out the discovery deadline for a blacklisted connection"
    | None -> [ "no sockets-done record in the restart trace" ])
  @ unless (restart_secs < 4.0)
      (sprintf "restart stalled %.1f s — the blacklist skip should avoid the discovery wait"
         restart_secs)
  @ expect ~what:"plugin-off restart" (Exactly (sprintf "dns:%d live" dns_count))
      (run (dns [ "ext-sock" ]))

(* Plugin on: the kill lands between the write and resume hooks of a
   second round; hook [restart-rearrange] re-points the held fd at the
   restarted pid.  Plugin off: the fd still names the dead pid's file. *)
let proc_repoint () =
  let o =
    run { (procfd [ "ext-sock"; "proc-fd" ]) with fault = kill_in_round Dmtcp.Faults.Refill }
  in
  o.notes
  @ expect ~what:"restart with proc-fd" (Exactly (sprintf "PROC OK %d" proc_iters)) o
  @ unless (saw o "plugin/proc-fd/restart-rearrange") "no proc-fd span at restart-rearrange"
  @ expect ~what:"restart with proc-fd off" (Exactly (sprintf "PROC STALE %d" proc_iters))
      (run (procfd [ "ext-sock" ]))

(* Plugin on: hook [image-write] zeroes the segment in the image only,
   so the restarted run degrades cleanly while the same round's live run
   stays warm (zeroing through the page alias would corrupt the running
   service).  Plugin off: the cache survives the restart verbatim. *)
let shm_zero () =
  let on = [ "ext-sock"; "ext-shm" ] in
  let cached = Exactly (sprintf "nscd:%d cached" shm_lookups) in
  let o = run { (nscd on) with fault = kill_in_round Dmtcp.Faults.Refill } in
  o.notes
  @ expect ~what:"restart with a zeroed segment" (Exactly (sprintf "nscd:%d degraded" shm_lookups))
      o
  @ unless (saw o "plugin/ext-shm/image-write") "no ext-shm span at image-write"
  @ expect ~what:"live run after an ext-shm checkpoint" cached
      (run { (nscd on) with fault = (fun _ -> []); restart = (fun _ _ -> []) })
  @ expect ~what:"restart with ext-shm off" cached (run (nscd [ "ext-sock" ]))

(* `dmtcp_sim plugins run`: each heuristic through a plain checkpoint →
   kill → restart cycle, one verdict per heuristic *)
let heuristic_verdicts ~plugins_on =
  List.map
    (fun (name, cycle, plugin) ->
      let plugins = if plugins_on then [ "ext-sock"; plugin ] else [ "ext-sock" ] in
      (name, Option.value ~default:"<no verdict>" (run (cycle plugins)).output))
    [
      ("blacklist", dns, "blacklist-ports");
      ("procfd", procfd, "proc-fd");
      ("extshm", nscd, "ext-shm");
    ]

(* ------------------------------------------------------------------ *)
(* The rank/proxy split: the mpi-proxy plugin plus the proxy transport,
   with the checkpoint and a worker-node crash landing inside a
   collective.  The crash takes out two ranks *and* their proxy daemon,
   so the surviving proxies hold stale custody that races the
   post-restart resend.  The restarted result must be byte-identical to
   an unfaulted run, and rank images must carry no live socket state. *)

let proxy ~prog ~extra ~short ~in_flight =
  let base_port = Common.base_port in
  {
    (make ~node:0 ~options:(Common.options_for Common.Proxy) ~settle:0.02 ~timeout:120.
       (sprintf "/result/%s-%d" short base_port)
       ~launch:(fun env ->
         Common.start_workload env
           {
             Common.w_name = prog;
             w_kind = Common.Proxy;
             w_prog = prog;
             w_nprocs = 8;
             w_rpn = 2;
             w_extra = extra;
             w_warmup = 0.05;
           }))
    with
    fault =
      (fun env ->
        (* let traffic move again, sample the ledger, crash node 1 (ranks
           2 and 3 plus its proxy daemon), then kill the rest *)
        Common.run_for env 0.02;
        let ledger = Proxy.Accounting.totals env.Common.cl ~base_port in
        Simos.Cluster.crash_node env.Common.cl 1;
        Common.run_for env 0.1;
        kill env;
        in_flight ledger);
  }

let proxy_scenario ~what c () =
  let o = run c in
  let estab, drained = Common.socket_stats o.env o.script.Dmtcp.Restart_script.entries in
  o.notes
  @ unless (saw o "plugin/mpi-proxy/fd-capture") (what ^ ": no mpi-proxy span at fd-capture")
  @ unless
      (saw o "plugin/mpi-proxy/restart-rearrange")
      (what ^ ": no mpi-proxy span at restart-rearrange")
  @ unless (estab = 0)
      (sprintf "%s: %d established socket specs in proxy-backend rank images" what estab)
  @ unless (drained = 0)
      (sprintf "%s: %d drained bytes in proxy-backend rank images" what drained)
  @ expect ~what Unfaulted o

(* bsp: 4 phases, every other one straggling for 0.8 s.  The phase-0
   straggler is rank 0, the allreduce root, so for the whole straggle —
   long enough to cover the checkpoint — the other ranks' gather frames
   sit undelivered: bytes demonstrably in flight at the crash. *)
let mid_allreduce =
  proxy_scenario ~what:"mid-allreduce"
    (proxy ~prog:Apps.Stencil.bsp_prog ~extra:[ "4"; "4096"; "2"; "0.8" ] ~short:"bsp"
       ~in_flight:(fun (sent, delivered, _) ->
         unless (sent > delivered)
           (sprintf
              "mid-allreduce crash found nothing in flight (sent %d, delivered %d) — the kill \
               missed the collective"
              sent delivered)))

(* stencil: deep halos and enough supersteps that a checkpoint a few
   tens of milliseconds in lands mid-exchange *)
let mid_halo =
  proxy_scenario ~what:"mid-halo"
    (proxy ~prog:Apps.Stencil.stencil_prog ~extra:[ "256"; "8"; "40"; "0.02" ] ~short:"stencil"
       ~in_flight:(fun (sent, delivered, _) ->
         unless (sent > 0) "mid-halo crash saw no traffic at all (sent 0)"
         @ unless (delivered <= sent)
             (sprintf "ledger inversion at the crash instant: delivered %d > sent %d" delivered
                sent)))

(* ------------------------------------------------------------------ *)

let scenarios =
  [
    ("replica-loss", replica_loss);
    ("total-loss", total_loss);
    ("deep-chain", deep_chain);
    ("forked-crash", forked_crash);
    ("base-loss", base_loss);
    ("lazy-kill", lazy_kill);
    ("stripe-drop", stripe_drop);
    ("blacklist", blacklist_skip);
    ("proc-repoint", proc_repoint);
    ("shm-zero", shm_zero);
    ("mid-allreduce", mid_allreduce);
    ("mid-halo", mid_halo);
  ]
