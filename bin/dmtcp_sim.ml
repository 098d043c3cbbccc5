(* dmtcp_sim: command-line driver that regenerates every table and figure
   of the paper's evaluation, plus the ablations and the deterministic
   ratio records (Ratios), on the simulated cluster. *)

open Cmdliner

let reps_arg =
  Arg.(value & opt int 3 & info [ "reps" ] ~docv:"N" ~doc:"Repetitions per measurement (paper: 10).")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shrink process counts for a fast smoke run.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Also append the report to $(docv).")

let emit out text =
  print_string text;
  (match out with
  | Some path ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    output_string oc text;
    output_string oc "\n";
    close_out oc
  | None -> ());
  flush stdout

(* ------------------------------------------------------------------ *)

let figure3 reps quick out =
  let apps = if quick then Some [ "bc"; "python"; "matlab"; "tightvnc+twm" ] else None in
  emit out (Harness.Fig3.to_text (Harness.Fig3.run ~reps ?apps ()))

let figure4 reps quick out =
  let scale = if quick then `Quick else `Full in
  emit out (Harness.Fig4.to_text (Harness.Fig4.run ~reps ~scale ()))

let figure5 reps quick out =
  let sizes = if quick then [ 16; 32 ] else [ 16; 32; 48; 64; 80; 96; 112; 128 ] in
  emit out (Harness.Fig5.to_text (Harness.Fig5.run ~reps ~sizes ()))

let figure6 reps quick out =
  ignore reps;
  let totals = if quick then [ 4.; 20. ] else [ 4.; 12.; 20.; 28.; 36.; 44.; 52.; 60.; 68. ] in
  let nprocs = if quick then 16 else 128 in
  emit out (Harness.Fig6.to_text (Harness.Fig6.run ~reps:2 ~totals_gb:totals ~nprocs ()))

let table1 reps quick out =
  let nprocs = if quick then 8 else 32 in
  emit out (Harness.Table1.to_text (Harness.Table1.run ~reps ~nprocs ()))

let runcms reps _quick out = emit out (Harness.Extras.runcms_text (Harness.Extras.runcms ~reps ()))

let sync_cost reps quick out =
  let nprocs = if quick then 8 else 32 in
  emit out (Harness.Extras.sync_text (Harness.Extras.sync_cost ~reps ~nprocs ()))

let ablations _reps quick out =
  emit out (Harness.Extras.forked_text (Harness.Extras.forked_ablation ()));
  emit out (Harness.Extras.incremental_text (Harness.Extras.incremental_ablation ()));
  emit out (Harness.Extras.algo_text (Harness.Extras.algo_ablation ()));
  let sizes = if quick then [ 8; 16 ] else [ 16; 64; 128 ] in
  emit out (Harness.Extras.coordinator_text (Harness.Extras.coordinator_ablation ~sizes ()));
  let pairs = if quick then [ 1; 2 ] else [ 1; 4; 8 ] in
  emit out (Harness.Extras.drain_text (Harness.Extras.drain_ablation ~pairs_list:pairs ()))

let all reps quick out =
  figure3 reps quick out;
  figure4 reps quick out;
  figure5 reps quick out;
  figure6 reps quick out;
  table1 reps quick out;
  runcms reps quick out;
  sync_cost reps quick out;
  ablations reps quick out

let list_apps () =
  print_endline "Registered programs:";
  List.iter (fun name -> Printf.printf "  %s\n" name) (Simos.Program.registered_names ());
  print_endline "\nFigure-3 desktop profiles:";
  List.iter
    (fun (p : Apps.Desktop.profile) ->
      Printf.printf "  %-14s %6.1f MB, %d thread(s), %d child(ren)\n" p.Apps.Desktop.p_name
        p.Apps.Desktop.mb p.Apps.Desktop.threads
        (List.length p.Apps.Desktop.children))
    Apps.Desktop.figure3

let demo () =
  (* the README quickstart, as a subcommand *)
  let cl = Simos.Cluster.create ~nodes:4 () in
  let rt = Dmtcp.Api.install cl () in
  ignore (Dmtcp.Api.launch rt ~node:1 ~prog:"apps:desktop" ~argv:[ "python" ]);
  Sim.Engine.run ~until:1.0 (Simos.Cluster.engine cl);
  Dmtcp.Api.checkpoint_now rt;
  Printf.printf "checkpointed 1 process in %.3f s (image %s)\n"
    (Dmtcp.Api.last_checkpoint_seconds rt)
    (Util.Units.pp_mb (fst (Dmtcp.Api.last_checkpoint_bytes rt)));
  let script = Dmtcp.Api.restart_script rt in
  print_string (Dmtcp.Restart_script.to_text script);
  Dmtcp.Api.kill_computation rt;
  let script = Dmtcp.Restart_script.remap script (fun _ -> 3) in
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  Printf.printf "restarted on node 3 in %.3f s\n" (Dmtcp.Api.last_restart_seconds rt)

let torture seeds base bug replay keep =
  (match bug with
  | Some "skip-drain" -> Dmtcp.Faults.bug_skip_drain := true
  | Some "drop-refill" -> Dmtcp.Faults.bug_drop_refill := true
  | Some other ->
    Printf.eprintf "unknown --bug %S (expected skip-drain or drop-refill)\n" other;
    exit 2
  | None -> ());
  let code =
    match replay with
    | Some seed ->
      (* replay one scenario, optionally restricted to a shrunk fault set *)
      let keep =
        match keep with
        | None -> None
        | Some "none" -> Some []
        | Some l -> (
          try Some (List.map int_of_string (String.split_on_char ',' l))
          with Failure _ ->
            Printf.eprintf "bad --keep %S (expected comma-separated indices or 'none')\n" l;
            exit 2)
      in
      let r = Chaos.Runner.run ?keep ~seed () in
      Printf.printf "%s\n" r.Chaos.Runner.r_desc;
      if Chaos.Runner.pass r then begin
        Printf.printf "PASS (ckpts %d, recoveries %d)\n" r.Chaos.Runner.r_ckpts
          r.Chaos.Runner.r_recoveries;
        0
      end
      else begin
        List.iter (Printf.printf "violation: %s\n") r.Chaos.Runner.r_violations;
        if r.Chaos.Runner.r_span_tail <> [] then begin
          print_endline "last protocol events:";
          List.iter (Printf.printf "  %s\n") r.Chaos.Runner.r_span_tail
        end;
        1
      end
    | None ->
      let summary =
        Chaos.Torture.run_seeds ~log:print_endline ~base ~count:seeds ()
      in
      print_string (Chaos.Torture.report summary);
      if Chaos.Torture.all_pass summary then 0 else 1
  in
  exit code

(* The traced scenario is two canned runs back to back: the fixed
   checkpoint/restart protocol scenario, then the batch scheduler's
   preempt/fail/drain demo — so every category, "sched" included, has
   real events behind it.  The metrics snapshot is taken after both. *)
let trace_scenario options =
  let events, _ = Harness.Trace_scenario.run options in
  let c = Trace.collector () in
  ignore
    (Trace.with_sink (Trace.collector_sink c) (fun () ->
         Chaos.Sched_scenario.(play ~faults:true demo)));
  (events @ Trace.events c, Trace.Metrics.snapshot_text ())

let trace_run format node pid cat stage metrics check incremental lazy_restart plugins =
  let options =
    {
      Dmtcp.Options.default with
      Dmtcp.Options.incremental;
      forked = incremental;
      lazy_restart;
      plugins =
        (if plugins then Dmtcp.Plugins.all_names else Dmtcp.Options.default.Dmtcp.Options.plugins);
    }
  in
  if check then begin
    (* run the fixed scenario twice; the renderings must be byte-identical *)
    let e1, m1 = trace_scenario options in
    let e2, m2 = trace_scenario options in
    let j1 = Trace.jsonl e1 and j2 = Trace.jsonl e2 in
    if j1 = j2 && m1 = m2 then begin
      (* the digests let runs on different commits be compared *)
      Printf.printf "deterministic: %d events, %d JSONL bytes, metrics snapshots equal; md5 jsonl %s metrics %s\n"
        (List.length e1) (String.length j1)
        (Digest.to_hex (Digest.string j1))
        (Digest.to_hex (Digest.string m1));
      exit 0
    end
    else begin
      prerr_endline "NON-DETERMINISTIC: two runs of the fixed scenario differ";
      if j1 <> j2 then prerr_endline "  trace JSONL differs";
      if m1 <> m2 then prerr_endline "  metrics snapshot differs";
      exit 1
    end
  end
  else begin
    let events, msnap = trace_scenario options in
    let filter = { Trace.f_node = node; f_pid = pid; f_cat = cat; f_prefix = stage } in
    let events = List.filter (Trace.matches filter) events in
    (match format with
    | "jsonl" -> print_string (Trace.jsonl events)
    | "text" -> print_string (Trace.text events)
    | other ->
      Printf.eprintf "unknown --format %S (expected text or jsonl)\n" other;
      exit 2);
    if metrics then begin
      print_newline ();
      print_string msnap
    end
  end

let inspect () =
  (* use case 5: the checkpoint image as the ultimate bug report — dump
     everything a frozen VNC session's images contain.  Incremental mode
     makes the second checkpoint a delta, so the dump also exercises
     peeking through a delta manifest to its base. *)
  let cl = Simos.Cluster.create ~nodes:2 () in
  let options = { Dmtcp.Options.default with Dmtcp.Options.incremental = true } in
  let rt = Dmtcp.Api.install cl ~options () in
  ignore (Dmtcp.Api.launch rt ~node:1 ~prog:"apps:desktop" ~argv:[ "tightvnc+twm" ]);
  Sim.Engine.run ~until:2.0 (Simos.Cluster.engine cl);
  Dmtcp.Api.checkpoint_now rt;
  Sim.Engine.run ~until:(Simos.Cluster.now cl +. 1.0) (Simos.Cluster.engine cl);
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  print_string (Harness.Inspect.describe_checkpoint rt script)

(* canned deterministic store scenario: a dirty-page workload
   checkpointed across two generations (restart in between) plus an
   interval re-checkpoint at the second generation, so the catalog holds
   deduplicated generations for ls/stat/gc/verify to act on *)
let store_scenario () =
  let cl = Simos.Cluster.create ~nodes:4 () in
  let options =
    {
      Dmtcp.Options.default with
      Dmtcp.Options.store = true;
      store_replicas = 2;
      keep_generations = 2;
      incremental = true;
    }
  in
  let rt = Dmtcp.Api.install cl ~options () in
  let run s = Sim.Engine.run ~until:(Simos.Cluster.now cl +. s) (Simos.Cluster.engine cl) in
  ignore (Dmtcp.Api.launch rt ~node:1 ~prog:"p:dirty" ~argv:[ "24"; "2"; "20000"; "/tmp/st" ]);
  run 0.5;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  run 0.5;
  Dmtcp.Api.checkpoint_now rt;
  run 0.5;
  Dmtcp.Api.checkpoint_now rt;
  Option.get (Dmtcp.Runtime.store rt)

let store_run action =
  let store = store_scenario () in
  match action with
  | "ls" ->
    Printf.printf "%-28s %-8s %3s %8s %8s %6s %5s %-9s %s\n" "NAME" "LINEAGE" "GEN" "REAL" "SIM"
      "BLOCKS" "DEPTH" "KIND" "PROGRAM";
    List.iter
      (fun (m : Store.manifest) ->
        let kind = if m.Store.m_base <> None then "delta" else "full" in
        Printf.printf "%-28s %-8s %3d %8d %8d %6d %5d %-9s %s\n" m.Store.m_name m.Store.m_lineage
          m.Store.m_generation m.Store.m_real_len m.Store.m_sim_bytes
          (List.length m.Store.m_blocks)
          (Dmtcp.Image_chain.catalog_depth store ~name:m.Store.m_name)
          kind m.Store.m_program)
      (Store.manifests store)
  | "stat" ->
    let s = Store.stats store in
    Printf.printf "manifests          %d\n" (List.length (Store.manifests store));
    Printf.printf "unique blocks      %d\n" (Store.block_count store);
    Printf.printf "replicas / quorum  %d / %d (keep %d generations)\n" (Store.replicas store)
      (Store.quorum store) (Store.keep store);
    Printf.printf "blocks written     %d\n" s.Store.blocks_written;
    Printf.printf "blocks deduped     %d\n" s.Store.blocks_deduped;
    Printf.printf "blocks replicated  %d\n" s.Store.blocks_replicated;
    Printf.printf "blocks gc'd        %d\n" s.Store.blocks_gcd;
    Printf.printf "bytes written      %d\n" s.Store.bytes_written;
    Printf.printf "bytes deduped      %d\n" s.Store.bytes_deduped;
    Printf.printf "bytes reclaimed    %d\n" s.Store.bytes_reclaimed
  | "gc" ->
    let r = Store.gc ~keep:1 store in
    Printf.printf "gc --keep 1: dropped %d manifest(s), reclaimed %d block(s) / %d modeled bytes\n"
      r.Store.gc_manifests r.Store.gc_blocks r.Store.gc_bytes;
    Printf.printf "%d manifest(s), %d unique block(s) remain\n"
      (List.length (Store.manifests store))
      (Store.block_count store)
  | "verify" -> (
    match Store.verify store with
    | [] ->
      Printf.printf "catalog healthy: %d manifest(s), %d unique block(s), all replicated\n"
        (List.length (Store.manifests store))
        (Store.block_count store)
    | problems ->
      List.iter (Printf.printf "PROBLEM: %s\n") problems;
      exit 1)
  | other ->
    Printf.eprintf "unknown store action %S (expected ls, stat, gc or verify)\n" other;
    exit 2

(* print [ok] and exit 0, or print the violations and exit 1 *)
let verdict ok = function
  | [] ->
    print_endline ok;
    exit 0
  | violations ->
    List.iter (Printf.printf "violation: %s\n") violations;
    exit 1

(* The batch scheduler's canned plans (Chaos.Sched_scenario), each
   played with its faults and judged against its own no-fault
   reference: every displacement bottoms out in checkpoint/restart
   through the store. *)
let sched_run action =
  let module S = Chaos.Sched_scenario in
  match action with
  | "run" ->
    (* the three-job demo under a trace collector; two invocations must
       print identical lines, which is what the CI sched smoke diffs *)
    let coll = Trace.collector () in
    let faulted =
      Trace.with_sink (Trace.collector_sink coll) (fun () -> S.play ~faults:true S.demo)
    in
    List.iter print_endline (S.summary faulted);
    let events = Trace.events coll in
    Printf.printf "trace digest: %08lx (%d events, %d sched)\n"
      (Util.Crc32.digest (Trace.jsonl events))
      (List.length events)
      (List.length (List.filter (fun (e : Trace.event) -> e.Trace.cat = "sched") events));
    verdict "all jobs finished bit-identically to the no-fault reference"
      (S.judge S.demo ~reference:(S.play ~faults:false S.demo) faulted)
  | "demo1k" ->
    let p = S.demo1k () in
    let faulted = S.play ~faults:true p in
    List.iter print_endline (S.census faulted);
    verdict "all 1000 jobs finished bit-identically to the no-fault reference"
      (S.judge p ~reference:(S.play ~faults:false p) faulted)
  | "chaos" -> (
    match S.run_seeds ~log:print_endline ~base:0 ~count:25 () with
    | [] ->
      print_endline "25/25 scheduler chaos seeds pass";
      exit 0
    | failures ->
      List.iter
        (fun (seed, desc, violations) ->
          Printf.printf "seed %d FAILED (%s):\n" seed desc;
          List.iter (Printf.printf "  %s\n") violations)
        failures;
      exit 1)
  | other ->
    Printf.eprintf "unknown sched action %S (expected run, demo1k or chaos)\n" other;
    exit 2

(* ------------------------------------------------------------------ *)

let cmd name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const f $ reps_arg $ quick_arg $ out_arg)

(* the plugin table and the open-world heuristic scenarios *)
let plugins_run action off =
  match action with
  | "ls" ->
    (* enablement as the host shell's DMTCP_PLUGINS would configure an
       install (default: ext-sock only, matching the pre-plugin
       behavior); a malformed or unknown name exits 2 *)
    let enabled =
      try
        (match Sys.getenv_opt "DMTCP_PLUGINS" with
        | None -> Dmtcp.Options.default.Dmtcp.Options.plugins
        | Some s -> Dmtcp.Options.parse_plugins s)
        |> Dmtcp.Plugins.resolve
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    in
    Printf.printf "%-16s %-3s %5s  %s\n" "NAME" "ON" "HOOKS" "SITES";
    List.iter
      (fun (p : Dmtcp.Plugins.t) ->
        let sites = Dmtcp.Plugins.sites p in
        Printf.printf "%-16s %-3s %5d  %s\n" p.name
          (if List.memq p enabled then "*" else "")
          (List.length sites) (String.concat ", " sites);
        Printf.printf "%-16s      %s\n" "" p.doc)
      (Dmtcp.Plugins.registered ())
  | "run" ->
    (* one verdict line per heuristic; ci.sh diffs --off against the
       default to prove each plugin changes the observable outcome *)
    List.iter
      (fun (name, v) -> Printf.printf "%-10s %s\n" name v)
      (Chaos.Fixture.heuristic_verdicts ~plugins_on:(not off))
  | other ->
    Printf.eprintf "unknown action %S (expected ls or run)\n" other;
    exit 2

(* The rank/proxy split, end to end: launch the Jacobi stencil on the
   chosen transport, checkpoint it mid-exchange, kill the computation,
   restart from the images and run to completion.  The printed lines —
   result bytes, image shape, trace digest — are deterministic, which is
   what the CI proxy smoke diffs across two invocations. *)
let mpi_run transport =
  let module Common = Harness.Common in
  let kind, w_extra =
    match transport with
    | "direct" -> (Common.Direct, "direct" :: [ "96"; "4"; "10"; "0.08" ])
    | "proxy" | "proxied" -> (Common.Proxy, [ "96"; "4"; "10"; "0.08" ])
    | other ->
      Printf.eprintf "unknown --transport %S (expected direct or proxy)\n" other;
      exit 2
  in
  let base_port = Common.base_port in
  let env = Common.setup ~nodes:4 ~cores_per_node:2 ~options:(Common.options_for kind) () in
  let col = Trace.collector () in
  let out_path = Printf.sprintf "/result/stencil-%d" base_port in
  let image_bytes, estab, drained =
    Trace.with_sink (Trace.collector_sink col) (fun () ->
        Common.start_workload env
          {
            Common.w_name = "stencil";
            w_kind = kind;
            w_prog = Apps.Stencil.stencil_prog;
            w_nprocs = 8;
            w_rpn = 2;
            w_extra;
            w_warmup = 0.05;
          };
        Common.run_for env 0.1;
        Dmtcp.Api.checkpoint_now env.Common.rt;
        let image_bytes = fst (Dmtcp.Api.last_checkpoint_bytes env.Common.rt) in
        let script = Dmtcp.Api.restart_script env.Common.rt in
        let estab, drained = Common.socket_stats env script.Dmtcp.Restart_script.entries in
        Dmtcp.Api.kill_computation env.Common.rt;
        Dmtcp.Api.restart env.Common.rt script;
        Dmtcp.Api.await_restart env.Common.rt;
        Common.run_until ~every:0.05 env ~timeout:120. (fun () ->
            Common.read_file env ~node:0 out_path <> None);
        (image_bytes, estab, drained))
  in
  let out = Common.read_file env ~node:0 out_path in
  Common.teardown env;
  match out with
  | None ->
    prerr_endline "the restarted stencil never produced a result";
    exit 1
  | Some r ->
    Printf.printf "%-6s %s\n" transport (String.trim r);
    Printf.printf "rank images: %s total, %d established socket spec(s), %d drained byte(s)\n"
      (Util.Units.pp_mb image_bytes) estab drained;
    let jsonl = Trace.jsonl (Trace.events col) in
    Printf.printf "trace digest: %08lx (%d events)\n" (Util.Crc32.digest jsonl)
      (List.length (Trace.events col))

let mpi_dispatch action arg =
  match action with
  | "run" -> mpi_run (Option.value arg ~default:"proxy")
  | other ->
    Printf.eprintf "unknown mpi action %S (expected run)\n" other;
    exit 2

(* The fault-scenario table: one verdict line per checkpoint → fault →
   restart cycle, judged against its expected or no-fault result. *)
let chaos scenario =
  let rows =
    match scenario with
    | "all" -> Chaos.Fixture.scenarios
    | name when List.mem_assoc name Chaos.Fixture.scenarios ->
      [ (name, List.assoc name Chaos.Fixture.scenarios) ]
    | other ->
      Printf.eprintf "unknown scenario %S (expected all%s)\n" other
        (String.concat "" (List.map (fun (n, _) -> ", " ^ n) Chaos.Fixture.scenarios));
      exit 2
  in
  let verdicts = List.map (fun (name, run) -> (name, run ())) rows in
  List.iter
    (function
      | name, [] -> Printf.printf "%s: bit-identical\n" name
      | name, vs ->
        Printf.printf "%s: %d violations: %s\n" name (List.length vs) (String.concat "; " vs))
    verdicts;
  exit (if List.for_all (fun (_, vs) -> vs = []) verdicts then 0 else 1)

let () =
  let doc = "Reproduce the DMTCP paper's evaluation on a simulated cluster" in
  let info = Cmd.info "dmtcp_sim" ~version:"1.0" ~doc in
  let cmds =
    [
      cmd "figure3" "Figure 3: 21 desktop applications (1 node, gzip)" figure3;
      cmd "figure4" "Figure 4: distributed applications on 32 nodes" figure4;
      cmd "figure5" "Figure 5: ParGeant4 scaling, local disk and SAN/NFS" figure5;
      cmd "figure6" "Figure 6: timings as memory grows (no compression)" figure6;
      cmd "table1" "Table 1: checkpoint/restart stage breakdown (NAS/MG)" table1;
      cmd "runcms" "Sec 5.1: the 680 MB runCMS image" runcms;
      cmd "sync-cost" "Sec 5.2: cost of sync(2) after checkpoint" sync_cost;
      cmd "ablation" "Design-choice ablations (forked, compression, coordinator, drain)" ablations;
      cmd "all" "Run every experiment" all;
      Cmd.v
        (Cmd.info "ratios"
           ~doc:"Deterministic ratio records: each design payoff (compression, dedup, deltas, \
                 forked checkpoints, lazy restore, op queues, plugin dispatch, the proxy \
                 split) as modeled in -> out with its bound; exits 1 if a bound fails")
        Term.(const Ratios.run $ const ());
      Cmd.v (Cmd.info "list-apps" ~doc:"List registered programs and profiles")
        Term.(const list_apps $ const ());
      Cmd.v
        (Cmd.info "demo" ~doc:"Quickstart: checkpoint a desktop app and migrate it to another node")
        Term.(const demo $ const ());
      Cmd.v
        (Cmd.info "inspect"
           ~doc:"Use case 5: dump a checkpointed VNC session's images as a bug report")
        Term.(const inspect $ const ());
      (let action_arg =
         Arg.(
           required
           & pos 0 (some string) None
           & info [] ~docv:"ACTION" ~doc:"One of ls, stat, gc or verify.")
       in
       Cmd.v
         (Cmd.info "store"
            ~doc:"Inspect the replicated content-addressed checkpoint store over a canned \
                  two-generation dirty-page scenario")
         Term.(const store_run $ action_arg));
      (let action_arg =
         Arg.(
           required
           & pos 0 (some string) None
           & info [] ~docv:"ACTION" ~doc:"One of run, demo1k or chaos.")
       in
       Cmd.v
         (Cmd.info "sched"
            ~doc:"Checkpoint-driven batch scheduler under preemption, node loss and drain, \
                  judged against a no-fault reference: 'run' plays the three-job demo, \
                  'demo1k' the 1000-job one, 'chaos' 25 random seeds")
         Term.(const sched_run $ action_arg));
      (let seeds_arg =
         Arg.(value & opt int 50 & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to torture.")
       in
       let base_arg =
         Arg.(value & opt int 0 & info [ "base" ] ~docv:"SEED" ~doc:"First seed of the block.")
       in
       let bug_arg =
         Arg.(
           value
           & opt (some string) None
           & info [ "bug" ] ~docv:"BUG"
               ~doc:"Inject a known protocol bug (skip-drain or drop-refill) to prove the harness \
                     catches it.")
       in
       let replay_arg =
         Arg.(
           value
           & opt (some int) None
           & info [ "replay" ] ~docv:"SEED" ~doc:"Replay one scenario instead of a seed block.")
       in
       let keep_arg =
         Arg.(
           value
           & opt (some string) None
           & info [ "keep" ] ~docv:"I,J,..."
               ~doc:"With --replay: comma-separated fault indices to keep ('none' for no faults), \
                     as printed by a shrunk reproducer.")
       in
       Cmd.v
         (Cmd.info "torture"
            ~doc:"Chaos harness: fault-injected checkpoint torture over a block of seeds, with \
                  failure shrinking")
         Term.(const torture $ seeds_arg $ base_arg $ bug_arg $ replay_arg $ keep_arg));
      (let action_arg =
         Arg.(
           required
           & pos 0 (some string) None
           & info [] ~docv:"ACTION" ~doc:"One of ls or run.")
       in
       let off_arg =
         Arg.(
           value & flag
           & info [ "off" ]
               ~doc:"With run: leave the heuristic plugins disabled (ext-sock only), so the \
                     verdicts show what each heuristic changes.")
       in
       Cmd.v
         (Cmd.info "plugins"
            ~doc:"Plugin table: 'ls' lists every plugin (hooked sites, enablement), 'run' \
                  plays the three open-world heuristic scenarios and prints \
                  one verdict line each")
         Term.(const plugins_run $ action_arg $ off_arg));
      (let action_arg =
         Arg.(
           required
           & pos 0 (some string) None
           & info [] ~docv:"ACTION" ~doc:"Only run.")
       in
       let arg_arg =
         Arg.(
           value
           & pos 1 (some string) None
           & info [] ~docv:"ARG" ~doc:"The transport (direct or proxy; default proxy).")
       in
       Cmd.v
         (Cmd.info "mpi"
            ~doc:"MPI-via-proxies subsystem: 'run' plays a checkpoint/kill/restart cycle of the \
                  Jacobi stencil on the chosen transport and prints the result, rank-image \
                  shape and trace digest")
         Term.(const mpi_dispatch $ action_arg $ arg_arg));
      (let scenario_arg =
         Arg.(
           value & pos 0 string "all"
           & info [] ~docv:"NAME" ~doc:"One scenario of the table, or all (the default).")
       in
       Cmd.v
         (Cmd.info "chaos"
            ~doc:"Fault scenarios: store replica loss, delta-chain and lazy-restore faults, \
                  heuristic plugins killed between hook stages, and node crashes \
                  mid-collective; prints one verdict line per scenario ('NAME: bit-identical' \
                  when every check holds)")
         Term.(const chaos $ scenario_arg));
      (let format_arg =
         Arg.(
           value & opt string "text"
           & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or jsonl.")
       in
       let node_arg =
         Arg.(
           value & opt (some int) None
           & info [ "node" ] ~docv:"N" ~doc:"Only events from node $(docv).")
       in
       let pid_arg =
         Arg.(
           value & opt (some int) None & info [ "pid" ] ~docv:"P" ~doc:"Only events from pid $(docv).")
       in
       let cat_arg =
         Arg.(
           value & opt (some string) None
           & info [ "cat" ] ~docv:"CAT"
               ~doc:"Only events in category $(docv) (sim, kernel, net, storage, dmtcp, store, \
                     sched).")
       in
       let stage_arg =
         Arg.(
           value & opt (some string) None
           & info [ "stage" ] ~docv:"PREFIX" ~doc:"Only events whose name starts with $(docv).")
       in
       let metrics_arg =
         Arg.(value & flag & info [ "metrics" ] ~doc:"Also print the metrics snapshot.")
       in
       let check_arg =
         Arg.(
           value & flag
           & info [ "check-determinism" ]
               ~doc:"Run the scenario twice and fail unless traces are byte-identical.")
       in
       let incremental_arg =
         Arg.(
           value & flag
           & info [ "incremental" ]
               ~doc:"Use incremental + forked checkpointing: chain two delta checkpoints onto \
                     the full base before the restart.")
       in
       let lazy_arg =
         Arg.(
           value & flag
           & info [ "lazy" ]
               ~doc:"Use demand-paged lazy restore: the traced restart resumes after the hot \
                     set and drains cold pages through the background prefetcher.")
       in
       let plugins_arg =
         Arg.(
           value & flag
           & info [ "plugins" ]
               ~doc:"Enable every built-in heuristic plugin (ext-sock, blacklist-ports, proc-fd, \
                     ext-shm): the trace then carries the deterministic plugin/<name>/<site> \
                     spans.")
       in
       Cmd.v
         (Cmd.info "trace"
            ~doc:"Trace a fixed checkpoint/restart scenario (text or JSONL), with filtering and a \
                  determinism self-check")
         Term.(
           const trace_run $ format_arg $ node_arg $ pid_arg $ cat_arg $ stage_arg $ metrics_arg
           $ check_arg $ incremental_arg $ lazy_arg $ plugins_arg));
    ]
  in
  exit (Cmd.eval (Cmd.group info cmds))
