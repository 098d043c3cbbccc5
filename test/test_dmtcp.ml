(* End-to-end tests of the DMTCP stack: launch under dmtcp_checkpoint,
   coordinator barriers, drain/refill, image writing, restart (same host
   and migrated), pipe promotion, fork sharing, pid virtualization, and
   the dmtcpaware API. *)

let check = Alcotest.check

let make ?(nodes = 4) ?(options = Dmtcp.Options.default) () =
  let cl = Simos.Cluster.create ~nodes () in
  let rt = Dmtcp.Api.install cl ~options () in
  (cl, rt)

let file_content cl node path =
  match Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cl node)) path with
  | Some f -> Some (Simos.Vfs.read_all f)
  | None -> None

(* search every node for the file (restarted processes may move) *)
let file_anywhere cl path = Option.map Simos.Vfs.read_all (Dmtcp.Image_chain.find_file cl path)

(* the image a checkpoint wrote on [node]: a missing file fails the
   test, a damaged one raises [Util.Codec.Reader.Corrupt] *)
let image_on cl node path =
  match file_content cl node path with
  | None -> Alcotest.failf "missing image %s on node %d" path node
  | Some bytes -> Dmtcp.Ckpt_image.decode bytes

let run_for cl seconds = Sim.Engine.run ~until:(Simos.Cluster.now cl +. seconds) (Simos.Cluster.engine cl)

(* overwrite [path] on [node] with [bytes] *)
let replace_file cl node path bytes =
  let vfs = Simos.Kernel.vfs (Simos.Cluster.kernel cl node) in
  ignore (Simos.Vfs.unlink vfs path);
  Simos.Vfs.append (Simos.Vfs.open_or_create vfs path) bytes

(* run [f] and return the stage stats of the "dmtcp" spans it emitted *)
let stages_of f =
  let col = Trace.collector () in
  Trace.with_sink (Trace.collector_sink col) f;
  Trace.Query.stage_stats (Trace.events col)

(* restart [script], run 2 s, and return the exit codes the trace saw *)
let restart_exits cl rt script =
  let col = Trace.collector () in
  Trace.with_sink (Trace.collector_sink col) (fun () ->
      Dmtcp.Api.restart rt script;
      run_for cl 2.0);
  List.filter_map
    (fun (e : Trace.event) ->
      if e.Trace.name = "proc/exit" then List.assoc_opt "code" e.Trace.args else None)
    (Trace.events col)

(* ------------------------------------------------------------------ *)

let test_launch_registers_with_coordinator () =
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "5000"; "/tmp/never" ] in
  run_for cl 1.0;
  check Alcotest.int "one process registered" 1 (List.length (Dmtcp.Runtime.hijacked_processes rt))

let test_status_command () =
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "5000"; "/tmp/never" ] in
  run_for cl 1.0;
  let k0 = Simos.Cluster.kernel cl 0 in
  ignore
    (Simos.Kernel.spawn k0 ~prog:"dmtcp:command" ~argv:[ "--status" ]
       ~env:(Dmtcp.Options.to_env Dmtcp.Options.default) ());
  run_for cl 1.0;
  check (Alcotest.option Alcotest.int) "status reports one manager" (Some 1)
    (Dmtcp.Runtime.last_status rt)

let test_checkpoint_completes () =
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "100000"; "/tmp/never" ] in
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let info = Dmtcp.Runtime.ckpt_info rt in
  check Alcotest.int "one image written" 1 (List.length info.Dmtcp.Runtime.images);
  Alcotest.(check bool) "checkpoint took time" true (Dmtcp.Api.last_checkpoint_seconds rt > 0.);
  (* the image file exists on the right node with the declared size *)
  let node, path = List.hd info.Dmtcp.Runtime.images in
  match Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cl node)) path with
  | Some f -> Alcotest.(check bool) "image non-empty" true (Simos.Vfs.sim_size f > 0)
  | None -> Alcotest.fail "image file missing"

let test_checkpoint_transparent_to_app () =
  (* the app must finish with the same result despite a mid-run ckpt *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "3000"; "/tmp/ck-count" ] in
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "counter unaffected" (Some "done:3000")
    (file_content cl 1 "/tmp/ck-count")

let test_stream_pair_survives_checkpoint () =
  (* continuous traffic across nodes; checkpoint in the middle; the
     sequence must still validate: drain/refill lost or duplicated
     nothing *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:stream-server" ~argv:[ "6000"; "4000"; "/tmp/stream" ] in
  run_for cl 0.3;
  let _ = Dmtcp.Api.launch rt ~node:2 ~prog:"p:stream-client" ~argv:[ "1"; "6000"; "4000" ] in
  run_for cl 0.2;
  Dmtcp.Api.checkpoint_now rt;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "stream intact" (Some "OK 4000")
    (file_content cl 1 "/tmp/stream")

let test_drain_captures_buffered_data () =
  (* after the write barrier, every checkpointed socket must have empty
     kernel buffers; the drained bytes sit in the connection table *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:stream-server" ~argv:[ "6000"; "400000"; "/tmp/s" ] in
  run_for cl 0.3;
  let _ = Dmtcp.Api.launch rt ~node:2 ~prog:"p:stream-client" ~argv:[ "1"; "6000"; "400000" ] in
  run_for cl 0.5;
  Dmtcp.Api.checkpoint_now rt;
  (* some drained data should have been recorded in some image *)
  let info = Dmtcp.Runtime.ckpt_info rt in
  let drained_total =
    List.fold_left
      (fun acc (node, path) ->
        acc + snd (Dmtcp.Ckpt_image.socket_stats (image_on cl node path)))
      0 info.Dmtcp.Runtime.images
  in
  Alcotest.(check bool) "some bytes were drained into the image" true (drained_total > 0);
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "stream intact" (Some "OK 400000")
    (file_content cl 1 "/tmp/s")

let test_restart_same_host () =
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "3000"; "/tmp/restart-count" ] in
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Simos.Cluster.run cl;
  Alcotest.(check bool) "computation gone" true (file_content cl 1 "/tmp/restart-count" = None);
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "finished after restart" (Some "done:3000")
    (file_content cl 1 "/tmp/restart-count")

let test_restart_migrated_to_other_host () =
  (* the paper's laptop use case: checkpoint on one host, restart on
     another *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "3000"; "/tmp/mig-count" ] in
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  let script = Dmtcp.Restart_script.remap script (fun _ -> 3) in
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "finished on the new host" (Some "done:3000")
    (file_content cl 3 "/tmp/mig-count")

let test_restart_migrated_delta_chain () =
  (* migration copies nothing: the restart on the new host reads the
     delta and its base from the old host's filesystem *)
  let options = { Dmtcp.Options.default with Dmtcp.Options.incremental = true } in
  let cl, rt = make ~options () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "3000"; "/tmp/mig-delta" ] in
  run_for cl 0.5;
  Dmtcp.Api.checkpoint_now rt;
  run_for cl 0.2;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Restart_script.remap (Dmtcp.Api.restart_script rt) (fun _ -> 3) in
  Dmtcp.Api.kill_computation rt;
  let col = Trace.collector () in
  Trace.with_sink (Trace.collector_sink col) (fun () ->
      Dmtcp.Api.restart rt script;
      Dmtcp.Api.await_restart rt);
  let sources =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.name = "rst/delta-resolve" then List.assoc_opt "source" e.Trace.args else None)
      (Trace.events col)
  in
  Alcotest.(check (list string)) "base read from the old host" [ "remote-file" ] sources;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "finished on the new host" (Some "done:3000")
    (file_content cl 3 "/tmp/mig-delta")

(* A ckpt/delta span times the compression it names: it starts when
   the compression starts, at its process's ckpt/delta-base instant,
   and carries that process's node and pid; inline and forked alike. *)
let test_delta_span_times_compression () =
  List.iter
    (fun forked ->
      let options = { Dmtcp.Options.default with Dmtcp.Options.incremental = true; forked } in
      let cl, rt = make ~options () in
      let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "3000"; "/tmp/ds1" ] in
      let _ = Dmtcp.Api.launch rt ~node:2 ~prog:"p:counter" ~argv:[ "3000"; "/tmp/ds2" ] in
      run_for cl 0.3;
      let col = Trace.collector () in
      Trace.with_sink (Trace.collector_sink col) (fun () ->
          Dmtcp.Api.checkpoint_now rt;
          run_for cl 0.2;
          Dmtcp.Api.checkpoint_now rt);
      let at name =
        List.filter_map
          (fun (e : Trace.event) ->
            if e.Trace.name = name then
              Some (Printf.sprintf "n%d p%d %.9f" e.Trace.node e.Trace.pid e.Trace.time)
            else None)
          (Trace.events col)
      in
      let spans = at "ckpt/delta" in
      Alcotest.(check int) (Printf.sprintf "two delta spans (forked=%b)" forked) 2
        (List.length spans);
      Alcotest.(check (list string))
        (Printf.sprintf "each starts at its delta-base instant (forked=%b)" forked)
        (at "ckpt/delta-base") spans)
    [ false; true ]

let test_restart_distributed_stream () =
  (* both ends of a live TCP connection are checkpointed, killed, and
     restarted (still on two different hosts): discovery + reconnect +
     refill must reproduce the byte stream exactly *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:stream-server" ~argv:[ "6000"; "4000"; "/tmp/rs" ] in
  run_for cl 0.3;
  let _ = Dmtcp.Api.launch rt ~node:2 ~prog:"p:stream-client" ~argv:[ "1"; "6000"; "4000" ] in
  run_for cl 0.2;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "stream intact after restart" (Some "OK 4000")
    (file_content cl 1 "/tmp/rs")

let test_restart_stream_migrated_together () =
  (* both sides migrate (paper: "supports both sides of a socket
     migrating"): restart everything on node 0 *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:stream-server" ~argv:[ "6000"; "3000"; "/tmp/ms" ] in
  run_for cl 0.3;
  let _ = Dmtcp.Api.launch rt ~node:2 ~prog:"p:stream-client" ~argv:[ "1"; "6000"; "3000" ] in
  run_for cl 0.2;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  let script = Dmtcp.Restart_script.remap script (fun _ -> 0) in
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "stream intact on one laptop" (Some "OK 3000")
    (file_anywhere cl "/tmp/ms")

(* the stream pair on nodes 1 and 2, checkpointed and killed: the
   script that restarts it *)
let checkpointed_stream_pair cl rt ~out =
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:stream-server" ~argv:[ "6000"; "4000"; out ] in
  run_for cl 0.3;
  let _ = Dmtcp.Api.launch rt ~node:2 ~prog:"p:stream-client" ~argv:[ "1"; "6000"; "4000" ] in
  run_for cl 0.2;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  script

(* Every restart stage is a kill point: when the first restarter enters
   it, every node dies, restarters included, and a second restart from
   the same script still finishes the stream. *)
let test_kill_at_every_restart_stage () =
  List.iter
    (fun stage ->
      let name = Dmtcp.Faults.stage_name stage in
      let cl, rt = make () in
      let script = checkpointed_stream_pair cl rt ~out:"/tmp/rk" in
      let fired = ref false in
      Dmtcp.Runtime.with_observer rt
        (fun ~node:_ ~pid:_ s ->
          if s = stage && not !fired then begin
            fired := true;
            ignore
              (Sim.Engine.schedule (Simos.Cluster.engine cl) ~delay:0. (fun () ->
                   Dmtcp.Api.kill_nodes rt ~nodes:(List.init (Simos.Cluster.nodes cl) Fun.id)))
          end)
        (fun () ->
          Dmtcp.Api.restart rt script;
          run_for cl 1.0);
      Alcotest.(check bool) (name ^ ": the kill fired") true !fired;
      Alcotest.(check bool) (name ^ ": the first restart never finished") true
        ((Dmtcp.Runtime.restart_info rt).Dmtcp.Runtime.nprocs < Dmtcp.Runtime.restart_expected rt);
      Dmtcp.Api.restart rt script;
      Dmtcp.Api.await_restart rt;
      Simos.Cluster.run cl;
      check (Alcotest.option Alcotest.string) (name ^ ": stream intact after the second restart")
        (Some "OK 4000") (file_content cl 1 "/tmp/rk"))
    Dmtcp.Faults.restart_stages

(* Each stage span is emitted by the process that ran it: the
   checkpoint's ckpt/<stage> spans at the coordinator's node and pid,
   each restarter's restart/<stage> spans at its own, in restart order,
   tiling its run from boot to resume. *)
let test_stage_spans_carry_their_process () =
  let cl, rt = make () in
  let col = Trace.collector () in
  Trace.with_sink (Trace.collector_sink col) (fun () ->
      let script = checkpointed_stream_pair cl rt ~out:"/tmp/rw" in
      Dmtcp.Api.restart rt script;
      Dmtcp.Api.await_restart rt);
  let events = Trace.events col in
  let where (e : Trace.event) = (e.Trace.node, e.Trace.pid) in
  let instants name =
    List.filter (fun (e : Trace.event) -> e.Trace.kind = Trace.Instant && e.Trace.name = name) events
  in
  let spans prefix =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.kind with
        | Trace.Span dur when String.starts_with ~prefix e.Trace.name -> Some (e, dur)
        | _ -> None)
      events
  in
  let coordinator = where (List.hd (instants "coord/ckpt-start")) in
  let ckpt = spans "ckpt/" in
  check Alcotest.int "one ckpt span per barrier" Dmtcp.Faults.nbarriers (List.length ckpt);
  List.iter
    (fun ((e : Trace.event), _) ->
      check Alcotest.(pair int int) (e.Trace.name ^ " at the coordinator") coordinator (where e))
    ckpt;
  let expected =
    List.concat_map
      (fun s ->
        let name = Dmtcp.Faults.span_name s in
        match s with
        | Dmtcp.Faults.Restart Dmtcp.Faults.Refill -> [ name; name ^ "-barrier" ]
        | Dmtcp.Faults.Restart Dmtcp.Faults.Resume -> []
        | _ -> [ name ])
      Dmtcp.Faults.restart_stages
  in
  let boots = instants "rst/boot" in
  check Alcotest.int "two restarters" 2 (List.length boots);
  let restart_spans = spans "restart/" in
  check Alcotest.int "every restart span belongs to a restarter"
    (List.length expected * List.length boots)
    (List.length restart_spans);
  List.iter
    (fun (boot : Trace.event) ->
      let mine = List.filter (fun (e, _) -> where e = where boot) restart_spans in
      let label = Printf.sprintf "restarter n%d p%d" boot.Trace.node boot.Trace.pid in
      check Alcotest.(list string) (label ^ ": spans in restart order") expected
        (List.map (fun ((e : Trace.event), _) -> e.Trace.name) mine);
      let resume = List.find (fun e -> where e = where boot) (instants "rst/resume") in
      let last =
        List.fold_left
          (fun t ((e : Trace.event), dur) ->
            if Float.abs (e.Trace.time -. t) > 1e-9 then
              Alcotest.failf "%s: %s starts at %.9f, not at %.9f" label e.Trace.name e.Trace.time t;
            e.Trace.time +. dur)
          boot.Trace.time mine
      in
      if Float.abs (last -. resume.Trace.time) > 1e-9 then
        Alcotest.failf "%s: spans end at %.9f, resume is at %.9f" label last resume.Trace.time)
    boots;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "stream intact after restart" (Some "OK 4000")
    (file_content cl 1 "/tmp/rw")

let test_pipe_promotion () =
  (* pipes become socketpairs under DMTCP; a parent/child pipeline
     checkpoints and restarts correctly *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:pipeline" ~argv:[ "20000"; "/tmp/pipe" ] in
  run_for cl 0.3;
  (* the pipe wrapper must have produced Pair entries, not a raw pipe *)
  let has_pair =
    List.exists
      (fun (_, _, ps) ->
        List.exists
          (fun (_, e) -> e.Dmtcp.Conn_table.kind = Dmtcp.Conn_table.Pair)
          (Dmtcp.Conn_table.entries ps.Dmtcp.Runtime.conns))
      (Dmtcp.Runtime.hijacked_processes rt)
  in
  Alcotest.(check bool) "promoted pipe entries exist" true has_pair;
  Dmtcp.Api.checkpoint_now rt;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "pipeline result" (Some "OK 20000")
    (file_content cl 1 "/tmp/pipe")

let test_pipeline_restart () =
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:pipeline" ~argv:[ "20000"; "/tmp/pipe-r" ] in
  run_for cl 0.3;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "pipeline after restart" (Some "OK 20000")
    (file_content cl 1 "/tmp/pipe-r")

let test_forked_checkpoint_faster () =
  let run forked =
    let options = { Dmtcp.Options.default with Dmtcp.Options.forked } in
    let cl, rt = make ~options () in
    let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:memhog" ~argv:[ "64"; "100000"; "/tmp/h" ] in
    run_for cl 2.0;
    Dmtcp.Api.checkpoint_now rt;
    Dmtcp.Api.last_checkpoint_seconds rt
  in
  let plain = run false in
  let forked = run true in
  Alcotest.(check bool)
    (Printf.sprintf "forked (%f) much faster than plain (%f)" forked plain)
    true
    (forked *. 2. < plain)

let test_interval_checkpointing () =
  let options = { Dmtcp.Options.default with Dmtcp.Options.interval = Some 2.0 } in
  let cl, rt = make ~options () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "1000000"; "/tmp/never" ] in
  let stats = stages_of (fun () -> run_for cl 7.0) in
  (* at least two automatic checkpoints should have happened *)
  match List.assoc_opt "ckpt/write" stats with
  | Some s -> Alcotest.(check bool) "several interval checkpoints" true (Util.Stats.count s >= 2)
  | None -> Alcotest.fail "no checkpoints recorded"

let test_dmtcpaware_delays_checkpoint () =
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:aware" ~argv:[ "1.0" ] in
  run_for cl 0.1;
  (* the app holds the critical section for ~1s from t~=0.1 *)
  Dmtcp.Api.checkpoint rt;
  run_for cl 0.3;
  let info = Dmtcp.Runtime.ckpt_info rt in
  Alcotest.(check bool) "checkpoint not finished during critical section" true
    (info.Dmtcp.Runtime.finished <= info.Dmtcp.Runtime.started);
  Dmtcp.Api.await_checkpoint rt;
  Alcotest.(check bool) "checkpoint finished after section ends" true
    (Dmtcp.Api.last_checkpoint_seconds rt > 0.5)

let test_vpid_conflict_refork () =
  (* restore a process, then fork new processes until one would collide
     with the restored vpid; the wrapper must refork transparently *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "2000"; "/tmp/v1" ] in
  run_for cl 0.5;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  (* restart onto node 2: the restored process keeps vpid from node 1's
     pid range *)
  let script = Dmtcp.Restart_script.remap script (fun _ -> 2) in
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  let restored_vpids =
    List.map (fun (_, _, ps) -> ps.Dmtcp.Runtime.vpid) (Dmtcp.Runtime.hijacked_processes rt)
  in
  (* now run a pipeline (which forks) on node 1 where those pids came
     from; any collision must be resolved *)
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:pipeline" ~argv:[ "500"; "/tmp/v2" ] in
  Simos.Cluster.run cl;
  let vpids = List.map (fun (_, _, ps) -> ps.Dmtcp.Runtime.vpid) (Dmtcp.Runtime.hijacked_processes rt) in
  let module IS = Set.Make (Int) in
  check Alcotest.int "all vpids distinct" (List.length vpids) (IS.cardinal (IS.of_list vpids));
  ignore restored_vpids;
  check (Alcotest.option Alcotest.string) "restored counter finished" (Some "done:2000")
    (file_content cl 2 "/tmp/v1");
  check (Alcotest.option Alcotest.string) "new pipeline finished" (Some "OK 500")
    (file_content cl 1 "/tmp/v2")

let test_stage_stats_recorded () =
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:memhog" ~argv:[ "16"; "100000"; "/tmp/never" ] in
  run_for cl 1.0;
  let stats = stages_of (fun () -> Dmtcp.Api.checkpoint_now rt) in
  List.iter
    (fun stage ->
      match List.assoc_opt stage stats with
      | Some s -> Alcotest.(check bool) (stage ^ " positive") true (Util.Stats.mean s > 0.)
      | None -> Alcotest.failf "missing stage %s" stage)
    [ "ckpt/suspend"; "ckpt/elect"; "ckpt/drain"; "ckpt/write"; "ckpt/refill" ];
  (* write dominated, as in Table 1 *)
  let mean stage = Util.Stats.mean (List.assoc stage stats) in
  Alcotest.(check bool) "write dominates suspend" true (mean "ckpt/write" > mean "ckpt/suspend")

let test_restart_script_text () =
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "1000"; "/tmp/x" ] in
  run_for cl 0.5;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  let text = Dmtcp.Restart_script.to_text script in
  Alcotest.(check bool) "script mentions dmtcp_restart" true
    (String.length text > 0
    && List.exists
         (fun l -> String.length l > 4 && String.sub l 0 3 = "ssh")
         (String.split_on_char '\n' text));
  check (Alcotest.option Alcotest.string) "script file written" (Some text)
    (file_content cl 0 "/ckpt/dmtcp_restart_script.sh")

let test_second_checkpoint_after_restart () =
  (* checkpoint -> restart -> checkpoint again -> restart again *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "5000"; "/tmp/gen" ] in
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let script2 = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script2;
  Dmtcp.Api.await_restart rt;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "two generations survived" (Some "done:5000")
    (file_content cl 1 "/tmp/gen")

(* A cluster owns its run: two clusters in one process, stepped in
   turn, each checkpoint exactly as the same run does alone. *)
let test_two_runs_share_a_process () =
  let counter_run () =
    let cl, rt = make ~nodes:3 () in
    let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "100000"; "/tmp/two" ] in
    (cl, rt)
  in
  let checkpoint_digests (cl, rt) =
    run_for cl 0.5;
    Dmtcp.Api.checkpoint_now rt;
    List.map
      (fun (node, path) ->
        match file_content cl node path with
        | Some bytes -> Digest.to_hex (Digest.string bytes)
        | None -> Alcotest.failf "missing image %s on node %d" path node)
      (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images
  in
  let alone = checkpoint_digests (counter_run ()) in
  check Alcotest.int "one image alone" 1 (List.length alone);
  let first = counter_run () in
  let second = counter_run () in
  check Alcotest.(list string) "the first run's images" alone (checkpoint_digests first);
  check Alcotest.(list string) "the second run's images" alone (checkpoint_digests second)

let base_suites =
    [
      ( "basics",
        [
          Alcotest.test_case "launch registers with coordinator" `Quick test_launch_registers_with_coordinator;
          Alcotest.test_case "status command" `Quick test_status_command;
          Alcotest.test_case "checkpoint completes" `Quick test_checkpoint_completes;
          Alcotest.test_case "transparent to the app" `Quick test_checkpoint_transparent_to_app;
          Alcotest.test_case "stage stats recorded" `Quick test_stage_stats_recorded;
          Alcotest.test_case "restart script text" `Quick test_restart_script_text;
          Alcotest.test_case "two runs share a process" `Quick test_two_runs_share_a_process;
        ] );
      ( "sockets",
        [
          Alcotest.test_case "stream survives checkpoint" `Quick test_stream_pair_survives_checkpoint;
          Alcotest.test_case "drain captures buffered data" `Quick test_drain_captures_buffered_data;
        ] );
      ( "restart",
        [
          Alcotest.test_case "same host" `Quick test_restart_same_host;
          Alcotest.test_case "migrated to another host" `Quick test_restart_migrated_to_other_host;
          Alcotest.test_case "distributed stream" `Quick test_restart_distributed_stream;
          Alcotest.test_case "stream migrated together" `Quick test_restart_stream_migrated_together;
          Alcotest.test_case "second generation" `Quick test_second_checkpoint_after_restart;
          Alcotest.test_case "migrated delta chain" `Quick test_restart_migrated_delta_chain;
          Alcotest.test_case "delta span times compression" `Quick
            test_delta_span_times_compression;
          Alcotest.test_case "kill at every restart stage recovers" `Quick
            test_kill_at_every_restart_stage;
          Alcotest.test_case "stage spans say who ran them" `Quick
            test_stage_spans_carry_their_process;
        ] );
      ( "features",
        [
          Alcotest.test_case "pipe promotion" `Quick test_pipe_promotion;
          Alcotest.test_case "pipeline restart" `Quick test_pipeline_restart;
          Alcotest.test_case "forked checkpointing faster" `Quick test_forked_checkpoint_faster;
          Alcotest.test_case "interval checkpointing" `Quick test_interval_checkpointing;
          Alcotest.test_case "dmtcpaware delays checkpoint" `Quick test_dmtcpaware_delays_checkpoint;
          Alcotest.test_case "vpid conflict refork" `Quick test_vpid_conflict_refork;
        ] );
    ]

(* additional suites: shared memory, dmtcpaware hooks, on-disk artifact
   robustness *)

let test_shm_checkpoint_restart () =
  (* two processes sharing an mmap segment must still share after a
     restart; the strictly-alternating counter proves writes stay
     mutually visible *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:shm" ~argv:[ "400"; "/tmp/shm-r" ] in
  run_for cl 0.3;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "shm ping/pong completed" (Some "SHM OK 800")
    (file_content cl 1 "/tmp/shm-r")

let test_shm_survives_migration () =
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:shm" ~argv:[ "400"; "/tmp/shm-m" ] in
  run_for cl 0.3;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  let script = Dmtcp.Restart_script.remap script (fun _ -> 2) in
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "shm works on the new host" (Some "SHM OK 800")
    (file_content cl 2 "/tmp/shm-m")

(* Incremental checkpoints of p:shm: every delta ships each of the two
   processes' shared page (Mem.Region.ships) and is priced at what it
   ships, two pages plus two processes' metadata.  A kill and a restart
   from the depth-2 chain end the ping/pong exactly as a run that is
   never killed. *)
let test_shm_incremental_chain () =
  let options = { Dmtcp.Options.default with Dmtcp.Options.incremental = true } in
  let run ~kill =
    let cl, rt = make ~options () in
    let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:shm" ~argv:[ "600"; "/tmp/shm-i" ] in
    run_for cl 0.3;
    for _ = 1 to 3 do
      Dmtcp.Api.checkpoint_now rt;
      run_for cl 0.1
    done;
    let node, path = List.hd (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images in
    let img = image_on cl node path in
    check Alcotest.int "third checkpoint is a depth-2 delta" 2
      (Util.Chain.depth (Dmtcp.Image_chain.peek_chain rt path img));
    check Alcotest.int "delta priced at its two shared pages" (10_240 + (2 * Mem.Page.size))
      (snd (Dmtcp.Api.last_checkpoint_bytes rt));
    if kill then begin
      let script = Dmtcp.Api.restart_script rt in
      Dmtcp.Api.kill_computation rt;
      Dmtcp.Api.restart rt script;
      Dmtcp.Api.await_restart rt
    end;
    Simos.Cluster.run cl;
    file_content cl 1 "/tmp/shm-i"
  in
  let unfaulted = run ~kill:false in
  check (Alcotest.option Alcotest.string) "unfaulted run completes" (Some "SHM OK 1200") unfaulted;
  check (Alcotest.option Alcotest.string) "restart from the chain matches it" unfaulted
    (run ~kill:true)

let test_image_files_cleanly_decodable () =
  (* the on-disk artifacts are well-formed: every image decodes, the
     connection table file exists, and the image's program names resolve *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:pipeline" ~argv:[ "20000"; "/tmp/pp" ] in
  run_for cl 0.3;
  Dmtcp.Api.checkpoint_now rt;
  let info = Dmtcp.Runtime.ckpt_info rt in
  check Alcotest.int "two images (parent+child)" 2 (List.length info.Dmtcp.Runtime.images);
  List.iter
    (fun (node, path) ->
      let img = image_on cl node path in
      let mtcp = Dmtcp.Ckpt_image.mtcp img in
      Alcotest.(check bool) "has threads" true (List.length mtcp.Mtcp.Image.threads >= 1);
      Alcotest.(check bool) "vpid assigned" true (img.Dmtcp.Ckpt_image.vpid > 0))
    info.Dmtcp.Runtime.images

(* Flat-mode retention (keep_generations = 2): checkpoints at
   generations 0, 1 and 2, with a kill and a restart between them.  The
   third one unlinks generation 0's image from its node and keeps 1 and
   2; pinning generation 0 keeps it too. *)
let test_flat_retention () =
  let options = { Dmtcp.Options.default with Dmtcp.Options.keep_generations = 2 } in
  let run ~pin =
    let cl, rt = make ~options () in
    let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "100000"; "/tmp/keep" ] in
    run_for cl 0.5;
    let images =
      List.map
        (fun gen ->
          if gen > 0 then begin
            let script = Dmtcp.Api.restart_script rt in
            Dmtcp.Api.kill_computation rt;
            Dmtcp.Api.restart rt script;
            Dmtcp.Api.await_restart rt;
            run_for cl 0.2
          end;
          Dmtcp.Api.checkpoint_now rt;
          let node, path = List.hd (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images in
          let upid = (image_on cl node path).Dmtcp.Ckpt_image.upid in
          check Alcotest.int "generation" gen upid.Dmtcp.Upid.generation;
          if pin && gen = 0 then
            Dmtcp.Runtime.pin_lineage rt ~lineage:(Dmtcp.Upid.lineage upid) ~generation:0;
          (node, path))
        [ 0; 1; 2 ]
    in
    List.map (fun (node, path) -> file_content cl node path <> None) images
  in
  check Alcotest.(list bool) "generation 0 reaped, 1 and 2 kept" [ false; true; true ]
    (run ~pin:false);
  check Alcotest.(list bool) "a pinned generation 0 stays" [ true; true; true ] (run ~pin:true)

let test_dmtcpaware_hooks_fire () =
  let pre = ref 0 and post = ref 0 in
  let cl, rt = make () in
  Dmtcp.Dmtcpaware.set_hooks rt ~prog:"p:counter"
    ~pre_ckpt:(fun () -> incr pre)
    ~post_ckpt:(fun () -> incr post)
    ();
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "100000"; "/tmp/hk" ] in
  run_for cl 0.5;
  Dmtcp.Api.checkpoint_now rt;
  check Alcotest.int "pre-checkpoint hook ran" 1 !pre;
  check Alcotest.int "post-checkpoint hook ran" 1 !post;
  (* and again after a restart (hook also covers the restart path) *)
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  check Alcotest.int "post-restart hook ran" 2 !post

(* t:aware-api records what the dmtcpaware calls answer: after 0.5 s it
   records [is_enabled] and asks for one checkpoint, and 2 s later it
   records [last_known_status]. *)
let aware_enabled = ref None
let aware_status = ref None

module Aware_api = struct
  type state = int

  let name = "t:aware-api"
  let encode = Util.Codec.Writer.uvarint
  let decode = Util.Codec.Reader.uvarint
  let init ~argv:_ = 0

  let step (ctx : Simos.Program.ctx) phase =
    let sleep next dt = Simos.Program.Block (next, Simos.Program.Sleep_until (ctx.now () +. dt)) in
    match phase with
    | 0 -> sleep 1 0.5
    | 1 ->
      aware_enabled := Some (Dmtcp.Dmtcpaware.is_enabled ctx);
      Dmtcp.Dmtcpaware.request_checkpoint ctx;
      sleep 2 2.0
    | _ ->
      if phase = 2 then aware_status := Some (Dmtcp.Dmtcpaware.last_known_status ctx);
      sleep 3 100.
end

let () = Simos.Program.register (module Aware_api : Simos.Program.S)

(* Under DMTCP the program's own request starts and completes a round,
   and it sees the status reply; spawned outside DMTCP, next to a
   computation that is under it, it is not enabled, its request starts
   nothing and it sees no status. *)
let test_dmtcpaware_api_calls () =
  let status_query cl =
    ignore
      (Simos.Kernel.spawn (Simos.Cluster.kernel cl 0) ~prog:"dmtcp:command" ~argv:[ "--status" ]
         ~env:(Dmtcp.Options.to_env Dmtcp.Options.default) ())
  in
  let answers () = (!aware_enabled, !aware_status) in
  let answered = Alcotest.(pair (option bool) (option (option int))) in
  aware_enabled := None;
  aware_status := None;
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"t:aware-api" ~argv:[] in
  check Alcotest.int "no round before the request" 0 (Dmtcp.Runtime.ckpt_rounds rt);
  run_for cl 1.0;
  check Alcotest.int "the program's request ran one round" 1 (Dmtcp.Runtime.ckpt_rounds rt);
  Alcotest.(check bool) "and it completed" true (Dmtcp.Runtime.last_completed_ckpt rt <> None);
  status_query cl;
  run_for cl 2.0;
  check answered "under DMTCP" (Some true, Some (Some 1)) (answers ());
  aware_enabled := None;
  aware_status := None;
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:2 ~prog:"p:counter" ~argv:[ "100000"; "/tmp/never" ] in
  run_for cl 0.5;
  ignore (Simos.Kernel.spawn (Simos.Cluster.kernel cl 1) ~prog:"t:aware-api" ~argv:[] ());
  run_for cl 1.0;
  check Alcotest.int "the request starts no round" 0 (Dmtcp.Runtime.ckpt_rounds rt);
  status_query cl;
  run_for cl 2.0;
  check (Alcotest.option Alcotest.int) "the status query answered" (Some 1)
    (Dmtcp.Runtime.last_status rt);
  check answered "outside DMTCP" (Some false, Some None) (answers ())

let test_restart_script_roundtrip () =
  let script =
    { Dmtcp.Restart_script.coord_host = 3; coord_port = 7779;
      entries = [ (0, [ "/ckpt/a" ]); (5, [ "/ckpt/b"; "/ckpt/c" ]) ] }
  in
  let merged = Dmtcp.Restart_script.remap script (fun _ -> 1) in
  check Alcotest.int "remap merges hosts" 1 (List.length merged.Dmtcp.Restart_script.entries);
  check Alcotest.int "remap moves coordinator" 1 merged.Dmtcp.Restart_script.coord_host

(* two fds on one description dedup to one drain target *)
let test_conn_table_dup_sharing () =
  let t = Dmtcp.Conn_table.create () in
  let entry fdn role =
    Dmtcp.Conn_table.entry
      ~conn_id:(Dmtcp.Conn_id.make ~hostid:2 ~pid:77 ~timestamp:1.5 ~seq:fdn)
      ~role ~kind:Dmtcp.Conn_table.Tcp ~desc_id:(1000 + fdn)
  in
  Dmtcp.Conn_table.add t ~fd:3 (entry 3 Dmtcp.Conn_table.Connector);
  Dmtcp.Conn_table.add t ~fd:4 (entry 4 Dmtcp.Conn_table.Acceptor);
  Dmtcp.Conn_table.add t ~fd:5 (entry 5 Dmtcp.Conn_table.Pair_a);
  let shared = entry 6 Dmtcp.Conn_table.Connector in
  Dmtcp.Conn_table.add t ~fd:6 shared;
  Dmtcp.Conn_table.add t ~fd:7 { shared with Dmtcp.Conn_table.drained = "" };
  let uniques = Dmtcp.Conn_table.unique_descs t in
  check Alcotest.int "dup'd description counted once" 4 (List.length uniques)

let extra_suites =
    [
      ( "shared-memory",
        [
          Alcotest.test_case "checkpoint/restart" `Quick test_shm_checkpoint_restart;
          Alcotest.test_case "migration" `Quick test_shm_survives_migration;
          Alcotest.test_case "incremental delta chain" `Quick test_shm_incremental_chain;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "images decode" `Quick test_image_files_cleanly_decodable;
          Alcotest.test_case "flat images age out" `Quick test_flat_retention;
          Alcotest.test_case "restart script codec" `Quick test_restart_script_roundtrip;
          Alcotest.test_case "conn table dup sharing" `Quick test_conn_table_dup_sharing;
        ] );
      ( "dmtcpaware",
        [
          Alcotest.test_case "hooks fire" `Quick test_dmtcpaware_hooks_fire;
          Alcotest.test_case "api calls in and out of DMTCP" `Quick test_dmtcpaware_api_calls;
        ] );
    ]



(* failure injection *)

let test_restart_with_missing_image () =
  (* a lost image: the restart process restores what it can and the other
     processes still come back *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "3000"; "/tmp/mi-a" ] in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "3000"; "/tmp/mi-b" ] in
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  (* delete one of the two images *)
  (match script.Dmtcp.Restart_script.entries with
  | [ (host, first :: _) ] ->
    ignore (Simos.Vfs.unlink (Simos.Kernel.vfs (Simos.Cluster.kernel cl host)) first)
  | _ -> Alcotest.fail "unexpected script shape");
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  Simos.Cluster.run cl;
  let a = file_content cl 1 "/tmp/mi-a" and b = file_content cl 1 "/tmp/mi-b" in
  (* exactly one of the two finished *)
  check Alcotest.int "one process survived the lost image" 1
    (List.length (List.filter (fun x -> x = Some "done:3000") [ a; b ]))

let test_checkpoint_excludes_unhijacked () =
  (* a process running outside dmtcp_checkpoint must not be captured *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "100000"; "/tmp/in" ] in
  let k2 = Simos.Cluster.kernel cl 2 in
  ignore (Simos.Kernel.spawn k2 ~prog:"p:counter" ~argv:[ "100000"; "/tmp/out" ] ());
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  check Alcotest.int "only the hijacked process imaged" 1
    (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.nprocs

let test_listener_port_taken_on_restart_host () =
  (* migrating a server onto a host whose port is occupied: the restored
     listener falls back to an ephemeral port instead of failing *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:stream-server" ~argv:[ "6000"; "100000"; "/tmp/pt" ] in
  run_for cl 0.3;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  (* occupy port 6000 on the target host *)
  let k3 = Simos.Cluster.kernel cl 3 in
  let squatter = Simnet.Fabric.socket (Simos.Cluster.fabric cl) ~host:3 in
  ignore (Simnet.Fabric.bind squatter ~port:6000);
  ignore (Simnet.Fabric.listen squatter ~backlog:1);
  ignore k3;
  let script = Dmtcp.Restart_script.remap script (fun _ -> 3) in
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  check Alcotest.int "server restored despite the conflict" 1
    (List.length (Dmtcp.Runtime.hijacked_processes rt))

let test_kill_mid_checkpoint_recovers () =
  (* killing the computation mid-checkpoint must not wedge later runs on
     the same cluster *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:memhog" ~argv:[ "64"; "1000000"; "/tmp/km" ] in
  run_for cl 1.0;
  Dmtcp.Api.checkpoint rt;
  run_for cl 0.05;  (* inside the write stage *)
  Dmtcp.Api.kill_computation rt;
  run_for cl 1.0;
  (* a fresh computation on the same cluster checkpoints normally *)
  let _ = Dmtcp.Api.launch rt ~node:2 ~prog:"p:counter" ~argv:[ "3000"; "/tmp/km2" ] in
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "later computation unaffected" (Some "done:3000")
    (file_content cl 2 "/tmp/km2")

let test_corrupt_image_decode_rejected () =
  (* a bit flip or truncation anywhere in the image must surface as
     [Util.Codec.Reader.Corrupt], never as a garbage decode *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "3000"; "/tmp/ci" ] in
  run_for cl 0.5;
  Dmtcp.Api.checkpoint_now rt;
  let node, path = List.hd (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images in
  let bytes =
    match Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cl node)) path with
    | Some f -> Simos.Vfs.read_all f
    | None -> Alcotest.fail "image missing"
  in
  ignore (Dmtcp.Ckpt_image.decode bytes);
  let corrupt_at i =
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  let rejects what s =
    match Dmtcp.Ckpt_image.decode s with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Util.Codec.Reader.Corrupt _ -> ()
  in
  rejects "flip in magic" (corrupt_at 0);
  rejects "flip in metadata" (corrupt_at 20);
  rejects "flip in mtcp blob" (corrupt_at (String.length bytes / 2));
  rejects "flip near the end" (corrupt_at (String.length bytes - 2));
  rejects "truncation" (String.sub bytes 0 (String.length bytes - 3));
  rejects "empty" ""

let test_restart_with_corrupt_image_fails_cleanly () =
  (* the restarter must refuse a damaged image set: no half-restored
     computation, no unhandled exception *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "3000"; "/tmp/cr" ] in
  run_for cl 0.5;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  let node, path = List.hd (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images in
  (match file_content cl node path with
  | Some s ->
    let bytes = Bytes.of_string s in
    let mid = Bytes.length bytes / 2 in
    Bytes.set bytes mid (Char.chr (Char.code (Bytes.get bytes mid) lxor 0x01));
    replace_file cl node path (Bytes.to_string bytes)
  | None -> Alcotest.fail "image missing");
  Dmtcp.Api.restart rt script;
  (* the restarter aborts with an error exit — await_restart would never
     complete; just run the cluster and observe the clean failure *)
  run_for cl 2.0;
  check Alcotest.int "nothing restored from the corrupt image" 0
    (List.length (Dmtcp.Runtime.hijacked_processes rt));
  Alcotest.(check bool) "counter did not finish" true (file_content cl 1 "/tmp/cr" = None)

let body (img : Dmtcp.Ckpt_image.t) = Compress.Container.unpack img.Dmtcp.Ckpt_image.mtcp_blob

(* [img] around another MTCP body, re-sealed: packed again, so every
   CRC holds and only the decoders can see damage in it *)
let resealed (img : Dmtcp.Ckpt_image.t) body =
  { img with Dmtcp.Ckpt_image.mtcp_blob = Compress.Container.pack ~algo:Compress.Algo.Null body }

(* a re-sealed damaged image still ends the restart with exit 72, never
   with the restarter's crash exit 71 *)
let restart_resealed mutate () =
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "3000"; "/tmp/rs" ] in
  run_for cl 0.5;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  let node, path = List.hd (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images in
  let img = image_on cl node path in
  let damaged = mutate (body img) in
  Alcotest.(check bool) "the mutation changed the body" true (damaged <> body img);
  replace_file cl node path (Dmtcp.Ckpt_image.encode (resealed img damaged));
  let exits = restart_exits cl rt script in
  let exited code = List.mem (string_of_int code) exits in
  Alcotest.(check bool) "restarter exited 72" true (exited Dmtcp.Exit_code.corrupt_image);
  Alcotest.(check bool) "restarter did not crash" false (exited Dmtcp.Exit_code.restarter_crashed);
  check Alcotest.int "nothing restored" 0 (List.length (Dmtcp.Runtime.hijacked_processes rt));
  Alcotest.(check bool) "counter did not finish" true (file_content cl 1 "/tmp/rs" = None)

(* every "p:counter" in the body, the thread's program name among them,
   becomes the unregistered "p:cOunter" *)
let rename_program body =
  let from = "p:counter" and into = "p:cOunter" in
  let n = String.length from in
  let b = Bytes.of_string body in
  for i = 0 to String.length body - n do
    if String.sub body i n = from then Bytes.blit_string into 0 b i n
  done;
  Bytes.to_string b

(* a full body opens with the cmdline: its count (byte 0), then the
   first string's one-byte length, replaced here by a varint of -1 *)
let negative_cmdline_length body =
  Alcotest.(check bool) "one-byte first length" true (Char.code body.[1] < 0x80);
  String.sub body 0 1 ^ Decode_fuzz.minus_one ^ String.sub body 2 (String.length body - 2)

(* a flat-file delta whose base file is deleted: the availability check
   and the chain walk both see the gap, and the restart aborts cleanly
   (exit 73) instead of restoring half a chain *)
let test_delta_base_lost () =
  let options = { Dmtcp.Options.default with Dmtcp.Options.incremental = true } in
  let cl, rt = make ~options () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "3000"; "/tmp/dbl" ] in
  run_for cl 0.3;
  Dmtcp.Api.checkpoint_now rt;
  run_for cl 0.2;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  let node, path = List.hd (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images in
  let img = image_on cl node path in
  let base = Option.get img.Dmtcp.Ckpt_image.delta_base in
  let chain () = Dmtcp.Image_chain.peek_chain rt path img in
  check Alcotest.int "one delta on a full base" 1 (Util.Chain.depth (chain ()));
  Alcotest.(check bool) "available with its base" true (Dmtcp.Api.script_images_available rt script);
  ignore
    (Simos.Vfs.unlink (Simos.Kernel.vfs (Simos.Cluster.kernel cl node))
       (Filename.concat (Filename.dirname path) base));
  check (Alcotest.option Alcotest.string) "walk names the lost base" (Some base)
    (chain ()).Util.Chain.missing;
  Alcotest.(check bool) "unavailable without its base" false
    (Dmtcp.Api.script_images_available rt script);
  let exits = restart_exits cl rt script in
  Alcotest.(check bool) "restarter exited 73" true
    (List.mem (string_of_int Dmtcp.Exit_code.blocks_lost) exits);
  check Alcotest.int "nothing restored from a broken chain" 0
    (List.length (Dmtcp.Runtime.hijacked_processes rt));
  Alcotest.(check bool) "counter did not finish" true (file_content cl 1 "/tmp/dbl" = None)

let test_listener_backlog_captured_and_restored () =
  (* the image must carry the server's real listen backlog (p:stream-server
     listens with backlog 4), not a hard-coded default; and the restored
     listener must expose the same value — proven by re-checkpointing the
     restarted process and reading the second image *)
  let backlog_in_image cl rt =
    List.concat_map
      (fun (node, path) ->
        List.filter_map
          (fun (_, _, i) ->
            match i with
            | Dmtcp.Ckpt_image.FSock { state = Dmtcp.Ckpt_image.S_listening { backlog; _ }; _ } ->
              Some backlog
            | _ -> None)
          (image_on cl node path).Dmtcp.Ckpt_image.fds)
      (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images
    |> List.hd
  in
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:stream-server" ~argv:[ "6000"; "100000"; "/tmp/bl" ] in
  run_for cl 0.3;
  Dmtcp.Api.checkpoint_now rt;
  check Alcotest.int "image carries the real backlog" 4 (backlog_in_image cl rt);
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  run_for cl 0.3;
  Dmtcp.Api.checkpoint_now rt;
  check Alcotest.int "restored listener keeps it" 4 (backlog_in_image cl rt)

let test_reconnect_timeout_exact_deadline () =
  (* a restarted connector whose peer is outside the checkpointed set
     waits for discovery until exactly the 5 s deadline; the old [>]
     comparison plus unclamped polling overshot by at least one period *)
  let cl, rt = make () in
  let k1 = Simos.Cluster.kernel cl 1 in
  (* plain (unhijacked) server: survives kill_computation and is never
     part of the restart set *)
  ignore (Simos.Kernel.spawn k1 ~prog:"p:stream-server" ~argv:[ "6000"; "200000"; "/tmp/ed" ] ());
  run_for cl 0.3;
  let _ = Dmtcp.Api.launch rt ~node:2 ~prog:"p:stream-client" ~argv:[ "1"; "6000"; "200000" ] in
  run_for cl 0.3;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  let stats =
    stages_of (fun () ->
        Dmtcp.Api.restart rt script;
        Dmtcp.Api.await_restart rt)
  in
  match List.assoc_opt "restart/reconnect" stats with
  | Some s ->
    let d = Util.Stats.mean s in
    Alcotest.(check bool)
      (Printf.sprintf "gave up exactly at the 5 s deadline (got %.9f)" d)
      true
      (Float.abs (d -. 5.0) < 1e-6)
  | None -> Alcotest.fail "restart/reconnect not recorded"

(* ------------------------------------------------------------------ *)
(* seeded decoder fuzz over re-sealed images: every mutation decodes or
   raises Corrupt, and nothing else *)

let fuzz_seed = 21

(* one process checkpointed twice with incremental images: a full
   image and a delta on it *)
let checkpoint_twice ~prog ~argv =
  let options = { Dmtcp.Options.default with Dmtcp.Options.incremental = true } in
  let cl, rt = make ~options () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog ~argv in
  let image () =
    Dmtcp.Api.checkpoint_now rt;
    let node, path = List.hd (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images in
    image_on cl node path
  in
  run_for cl 0.3;
  let full = image () in
  run_for cl 0.2;
  let delta = image () in
  assert (delta.Dmtcp.Ckpt_image.delta_base <> None);
  (full, delta)

(* p:counter's body holds every section but memory; p:memhog's (1 MB)
   is mostly region and page records *)
let counter_images = lazy (checkpoint_twice ~prog:"p:counter" ~argv:[ "3000"; "/tmp/fz" ])
let memhog_image = lazy (fst (checkpoint_twice ~prog:"p:memhog" ~argv:[ "1"; "100000"; "/tmp/fh" ]))

let fuzz_mtcp_body =
  Decode_fuzz.property ~name:"fuzz: re-sealed MTCP body" ~seed:fuzz_seed
    (lazy (body (fst (Lazy.force counter_images))))
    (fun b -> Dmtcp.Ckpt_image.mtcp (resealed (fst (Lazy.force counter_images)) b))

let fuzz_memory_body =
  Decode_fuzz.property ~name:"fuzz: re-sealed MTCP body with memory" ~seed:fuzz_seed
    (lazy (body (Lazy.force memhog_image)))
    (fun b -> Dmtcp.Ckpt_image.mtcp (resealed (Lazy.force memhog_image) b))

let fuzz_delta_body =
  let base = lazy (Dmtcp.Ckpt_image.mtcp (fst (Lazy.force counter_images))) in
  Decode_fuzz.property ~name:"fuzz: re-sealed MTCPD1 body" ~seed:fuzz_seed
    (lazy (body (snd (Lazy.force counter_images))))
    (fun b ->
      Dmtcp.Ckpt_image.delta_mtcp (resealed (snd (Lazy.force counter_images)) b) ~base:(Lazy.force base))

(* the image's sections: (magic, metadata, mtcp blob) *)
let sections bytes =
  let r = Util.Codec.Reader.of_string bytes in
  let magic = Util.Codec.Reader.raw r (String.length "DMTCP_CKPT_V2") in
  let meta = Util.Codec.Reader.string r in
  let (_ : int) = Util.Codec.Reader.u32 r in
  let blob = Util.Codec.Reader.string r in
  (magic, meta, blob)

(* the same layout around a mutated metadata section, every CRC
   recomputed *)
let seal (magic, meta, blob) =
  let w = Util.Codec.Writer.create () in
  let section s =
    Util.Codec.Writer.string w s;
    Util.Codec.Writer.u32 w (Int32.to_int (Util.Crc32.digest s) land 0xffffffff)
  in
  Util.Codec.Writer.raw w magic;
  section meta;
  section blob;
  Util.Codec.Writer.contents w

let fuzz_metadata =
  let parts = lazy (sections (Dmtcp.Ckpt_image.encode (fst (Lazy.force counter_images)))) in
  Decode_fuzz.property ~name:"fuzz: re-sealed image metadata" ~seed:fuzz_seed
    (lazy (let _, meta, _ = Lazy.force parts in meta))
    (fun meta ->
      let magic, _, blob = Lazy.force parts in
      Dmtcp.Ckpt_image.decode (seal (magic, meta, blob)))

let fuzz_proto =
  Decode_fuzz.property ~name:"fuzz: coordinator protocol lines" ~seed:fuzz_seed
    (lazy
       (String.concat ""
          [
            "HELLO 1-2-g0\n";
            Dmtcp.Proto.barrier 3;
            Dmtcp.Proto.release 3;
            Dmtcp.Proto.status_reply 2;
            Dmtcp.Proto.cmd_checkpoint;
            Dmtcp.Proto.do_checkpoint;
            Dmtcp.Proto.cmd_quit;
          ]))
    (fun s -> List.map Dmtcp.Proto.parse (fst (Dmtcp.Proto.split_lines s)))

let failure_suites =
  [
    ( "failure-injection",
      [
        Alcotest.test_case "missing image" `Quick test_restart_with_missing_image;
        Alcotest.test_case "unhijacked excluded" `Quick test_checkpoint_excludes_unhijacked;
        Alcotest.test_case "port taken on restart host" `Quick test_listener_port_taken_on_restart_host;
        Alcotest.test_case "kill mid-checkpoint" `Quick test_kill_mid_checkpoint_recovers;
        Alcotest.test_case "corrupt image rejected" `Quick test_corrupt_image_decode_rejected;
        Alcotest.test_case "delta base lost" `Quick test_delta_base_lost;
        Alcotest.test_case "corrupt image fails restart cleanly" `Quick
          test_restart_with_corrupt_image_fails_cleanly;
        Alcotest.test_case "re-sealed unknown program exits 72" `Quick
          (restart_resealed rename_program);
        Alcotest.test_case "re-sealed negative length exits 72" `Quick
          (restart_resealed negative_cmdline_length);
        Alcotest.test_case "listen backlog captured/restored" `Quick
          test_listener_backlog_captured_and_restored;
        Alcotest.test_case "reconnect timeout exact deadline" `Quick
          test_reconnect_timeout_exact_deadline;
      ] );
    ( "decode-fuzz",
      [ fuzz_mtcp_body; fuzz_memory_body; fuzz_delta_body; fuzz_metadata; fuzz_proto ] );
  ]

(* property: whatever the stream length and whenever the checkpoint (and
   optional restart) lands, the receiver sees every byte exactly once and
   in order *)
let prop_stream_integrity_under_checkpoint =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:8 ~name:"stream integrity under randomized checkpoint/restart"
       QCheck.(triple (int_range 500 4000) (int_range 1 9) bool)
       (fun (count, warmup_decis, do_restart) ->
         (* clamp: qcheck shrinking can step outside the declared range *)
         let count = max 1000 count in
         let warmup_decis = max 1 (min 9 warmup_decis) in
         let cl, rt = make () in
         let _ =
           Dmtcp.Api.launch rt ~node:1 ~prog:"p:stream-server"
             ~argv:[ "6000"; string_of_int count; "/tmp/prop" ]
         in
         run_for cl 0.3;
         let _ =
           Dmtcp.Api.launch rt ~node:2 ~prog:"p:stream-client"
             ~argv:[ "1"; "6000"; string_of_int count ]
         in
         (* aim the checkpoint inside the transfer window *)
         run_for cl (Float.min (0.05 *. float_of_int warmup_decis)
                       (0.5 *. float_of_int count *. 1e-4));
         if Dmtcp.Runtime.hijacked_processes rt <> [] then begin
           Dmtcp.Api.checkpoint_now rt;
           if do_restart then begin
             let script = Dmtcp.Api.restart_script rt in
             Dmtcp.Api.kill_computation rt;
             Dmtcp.Api.restart rt script;
             Dmtcp.Api.await_restart rt
           end
         end;
         Simos.Cluster.run cl;
         file_content cl 1 "/tmp/prop" = Some (Printf.sprintf "OK %d" count)))

(* signal dispositions and the pending queue survive checkpoint/restart *)
let test_signals_survive_restart () =
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:sigapp" ~argv:[ "3"; "/tmp/sigr" ] in
  run_for cl 0.3;
  (* deliver one handled signal before the checkpoint; it stays pending *)
  (match Dmtcp.Runtime.hijacked_processes rt with
  | [ (node, pid, _) ] ->
    let k = Simos.Cluster.kernel cl node in
    let p = Option.get (Simos.Kernel.find_process k ~pid) in
    Simos.Kernel.suspend_user_threads k p;
    Simos.Kernel.deliver_signal k p ~signal:10;
    Simos.Kernel.resume_user_threads k p;
    (* also prove SIGTERM is ignored per the app's table *)
    Simos.Kernel.deliver_signal k p ~signal:15;
    Alcotest.(check bool) "TERM ignored before ckpt" true
      (p.Simos.Kernel.pstate = Simos.Kernel.Running)
  | _ -> Alcotest.fail "expected one process");
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  (* the restored process still has the table: TERM remains ignored, and
     two more USR1s complete the count of three *)
  (match Dmtcp.Runtime.hijacked_processes rt with
  | [ (node, pid, _) ] ->
    let k = Simos.Cluster.kernel cl node in
    let p = Option.get (Simos.Kernel.find_process k ~pid) in
    Simos.Kernel.deliver_signal k p ~signal:15;
    Alcotest.(check bool) "TERM still ignored after restart" true
      (p.Simos.Kernel.pstate = Simos.Kernel.Running);
    Simos.Kernel.deliver_signal k p ~signal:10;
    Simos.Kernel.deliver_signal k p ~signal:10
  | _ -> Alcotest.fail "expected one restored process");
  Simos.Cluster.run cl;
  check (Alcotest.option Alcotest.string) "handler count completed" (Some "SIGNALS 3")
    (file_anywhere cl "/tmp/sigr")

(* small-unit coverage of the DMTCP metadata types *)

(* every setting a process reads from its own environment, each away
   from its default *)
let env_options =
  {
    Dmtcp.Options.default with
    Dmtcp.Options.coord_host = 7;
    coord_port = 1234;
    ckpt_dir = "/images";
    algo = Compress.Algo.Rle;
    forked = true;
    incremental = true;
    interval = Some 2.5;
    sync_after = true;
    lazy_restart = true;
  }

let env_keys =
  [
    "DMTCP_COORD_HOST";
    "DMTCP_COORD_PORT";
    "DMTCP_CHECKPOINT_DIR";
    "DMTCP_GZIP";
    "DMTCP_FORKED";
    "DMTCP_INCREMENTAL";
    "DMTCP_INTERVAL";
    "DMTCP_SYNC";
    "DMTCP_LAZY_RESTART";
  ]

let test_options_env_roundtrip () =
  let env = Dmtcp.Options.to_env env_options in
  check Alcotest.(list string) "the nine keys, in order" env_keys (List.map fst env);
  Alcotest.(check bool) "options survive the environment" true
    (env_options = Dmtcp.Options.of_env ~base:Dmtcp.Options.default env);
  Alcotest.(check bool) "every key reaches a program's getenv view" true
    (env_options
    = Dmtcp.Options.of_getenv ~base:Dmtcp.Options.default (fun k -> List.assoc_opt k env));
  (* the per-cluster settings never travel: they come from the base *)
  let cluster =
    {
      Dmtcp.Options.default with
      Dmtcp.Options.store = true;
      store_replicas = 3;
      keep_generations = 4;
      compact_depth = 6;
      plugins = [ "ext-sock"; "blacklist-ports" ];
    }
  in
  Alcotest.(check bool) "per-cluster settings come from the base" true
    ({
       env_options with
       Dmtcp.Options.store = true;
       store_replicas = 3;
       keep_generations = 4;
       compact_depth = 6;
       plugins = [ "ext-sock"; "blacklist-ports" ];
     }
    = Dmtcp.Options.of_env ~base:cluster env)

(* no key is written that no process reads *)
let test_every_env_key_read () =
  List.iter
    (fun (key, value) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s=%s changes what of_env returns" key value)
        false
        (Dmtcp.Options.of_env ~base:Dmtcp.Options.default [ (key, value) ]
        = Dmtcp.Options.default))
    (Dmtcp.Options.to_env env_options)

(* store, retention and plugin settings stay out of the processes (and
   so out of every image): a hijacked process carries the nine keys and
   the hijack marker, nothing else *)
let test_hijacked_env_keys () =
  let options =
    {
      Dmtcp.Options.default with
      Dmtcp.Options.store = true;
      keep_generations = 5;
      plugins = Dmtcp.Plugins.all_names;
    }
  in
  let cl, rt = make ~options () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:counter" ~argv:[ "5000"; "/tmp/never" ] in
  run_for cl 1.0;
  match Dmtcp.Runtime.hijacked_processes rt with
  | [ (node, pid, _) ] -> (
    match Dmtcp.Runtime.proc_of rt ~node ~pid with
    | Some proc ->
      check Alcotest.(list string) "DMTCP_* keys in the process environment"
        (List.sort compare (Dmtcp.Options.hijack_key :: env_keys))
        (List.filter (String.starts_with ~prefix:"DMTCP_") (List.map fst proc.Simos.Kernel.env)
        |> List.sort compare)
    | None -> Alcotest.fail "hijacked process not found")
  | procs -> Alcotest.failf "expected one hijacked process, got %d" (List.length procs)

let test_upid_conn_id_codecs () =
  let upid = Dmtcp.Upid.make ~hostid:3 ~pid:204 ~generation:2 in
  let upid' = Util.Codec.roundtrip Dmtcp.Upid.encode Dmtcp.Upid.decode upid in
  Alcotest.(check bool) "upid round-trips" true (upid = upid');
  check Alcotest.string "upid string" "3-204-g2" (Dmtcp.Upid.to_string upid);
  Alcotest.(check bool) "generation bumps" true
    ((Dmtcp.Upid.next_generation upid).Dmtcp.Upid.generation = 3);
  let cid = Dmtcp.Conn_id.make ~hostid:1 ~pid:55 ~timestamp:0.125 ~seq:9 in
  let cid' = Util.Codec.roundtrip Dmtcp.Conn_id.encode Dmtcp.Conn_id.decode cid in
  Alcotest.(check bool) "conn id round-trips" true (Dmtcp.Conn_id.equal cid cid');
  Alcotest.(check bool) "keys distinguish connections" true
    (Dmtcp.Conn_id.to_key cid
    <> Dmtcp.Conn_id.to_key (Dmtcp.Conn_id.make ~hostid:1 ~pid:55 ~timestamp:0.125 ~seq:10))

let test_proto_parse () =
  Alcotest.(check bool) "hello" true
    (match Dmtcp.Proto.parse "HELLO 1-2-g0" with Dmtcp.Proto.Hello _ -> true | _ -> false);
  Alcotest.(check bool) "barrier" true (Dmtcp.Proto.parse "BARRIER 3" = Dmtcp.Proto.Barrier 3);
  Alcotest.(check bool) "release" true (Dmtcp.Proto.parse "RELEASE 5" = Dmtcp.Proto.Release 5);
  Alcotest.(check bool) "garbage tolerated" true
    (match Dmtcp.Proto.parse "NONSENSE x y" with Dmtcp.Proto.Unknown _ -> true | _ -> false);
  let lines, rest = Dmtcp.Proto.split_lines "A
B
partial" in
  Alcotest.(check (list string)) "line split" [ "A"; "B" ] lines;
  check Alcotest.string "remainder kept" "partial" rest;
  let frame = Dmtcp.Proto.handshake_frame "key-123" in
  check Alcotest.int "fixed frame width" Dmtcp.Proto.handshake_len (String.length frame);
  check Alcotest.string "frame round-trip" "key-123" (Dmtcp.Proto.parse_handshake frame)

let test_launcher_unknown_program_fails () =
  (* dmtcp_checkpoint of a nonexistent binary exits 127 instead of
     spinning *)
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"no:such-program" ~argv:[] in
  run_for cl 2.0;
  check Alcotest.int "nothing registered" 0 (List.length (Dmtcp.Runtime.hijacked_processes rt));
  (* the launcher process is gone, not spinning *)
  let launchers =
    List.filter
      (fun (_, (p : Simos.Kernel.process)) ->
        match p.Simos.Kernel.cmdline with x :: _ -> x = "dmtcp:checkpoint" | [] -> false)
      (Simos.Cluster.all_processes cl)
  in
  check Alcotest.int "launcher exited" 0 (List.length launchers)

(* the delta-chain walk over a synthetic link table: depth to the full
   image, a dangling base named, a cycle and an over-long chain cut *)
let test_image_chain_walk () =
  let walk table first =
    Dmtcp.Image_chain.walk ~base_of:Fun.id ~load:(fun name -> List.assoc_opt name table) first
  in
  let chain = walk [ ("d2", Some "d1"); ("d1", Some "full"); ("full", None) ] (Some "d2") in
  Alcotest.(check (list string)) "bases nearest first" [ "d2"; "d1"; "full" ]
    (List.map fst chain.Util.Chain.links);
  check Alcotest.int "depth to the full image" 3 (Util.Chain.depth chain);
  check Alcotest.int "a full image has depth 0" 0 (Util.Chain.depth (walk [] None));
  let broken = walk [ ("d1", Some "gone") ] (Some "d1") in
  check (Alcotest.option Alcotest.string) "dangling base named" (Some "gone")
    broken.Util.Chain.missing;
  check Alcotest.int "dangling link counted" 2 (Util.Chain.depth broken);
  let cycle = walk [ ("a", Some "b"); ("b", Some "a") ] (Some "a") in
  Alcotest.(check (list string)) "cycle stops at the repeated base" [ "a"; "b" ]
    (List.map fst cycle.Util.Chain.links);
  Alcotest.(check bool) "cycle is cut" true cycle.Util.Chain.cut;
  let long = List.init 100 (fun i -> (string_of_int i, Some (string_of_int (i + 1)))) in
  let bounded = walk long (Some "0") in
  check Alcotest.int "default limit of 64 bases" 64 (Util.Chain.depth bounded);
  Alcotest.(check bool) "over-long chain is cut" true bounded.Util.Chain.cut;
  Alcotest.(check bool) "a complete chain is not cut" false chain.Util.Chain.cut

let test_inspect_describe () =
  let cl, rt = make () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:pipeline" ~argv:[ "20000"; "/tmp/insp" ] in
  run_for cl 0.3;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  let report = Harness.Inspect.describe_checkpoint rt script in
  let contains needle =
    let n = String.length needle and h = String.length report in
    let rec go i = i + n <= h && (String.sub report i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report mentions %S" needle) true (contains needle))
    [ "p:pipeline"; "vpid"; "socket"; "pair"; "drained"; "memory:"; "threads (" ]

let unit_suites =
  [
    ( "metadata",
      [
        Alcotest.test_case "options env round-trip" `Quick test_options_env_roundtrip;
        Alcotest.test_case "every env key has a reader" `Quick test_every_env_key_read;
        Alcotest.test_case "hijacked env carries nine keys" `Quick test_hijacked_env_keys;
        Alcotest.test_case "upid/conn-id codecs" `Quick test_upid_conn_id_codecs;
        Alcotest.test_case "protocol parsing" `Quick test_proto_parse;
        Alcotest.test_case "launcher exec failure" `Quick test_launcher_unknown_program_fails;
        Alcotest.test_case "inspect describes images" `Quick test_inspect_describe;
        Alcotest.test_case "image chain walk" `Quick test_image_chain_walk;
      ] );
  ]

let property_suites =
  [
    ("signals", [ Alcotest.test_case "survive restart" `Quick test_signals_survive_restart ]);
    ("properties", [ prop_stream_integrity_under_checkpoint ]);
  ]

(* ------------------------------------------------------------------ *)
(* protocol: where each stage site fires, and every write path restarts *)

(* A plugin on every pre-/post- stage site, barriers included.  No
   built-in plugin hooks these sites, so nothing else shows where
   post-write or post-refill fire. *)
let stage_recorder =
  {
    Dmtcp.Plugins.name = "stage-rec";
    doc = "records every stage site";
    stage = Some (fun _ _ -> ());
    drain_select = None;
    fd_capture = None;
    image_write = None;
    restart_discovery = None;
    restart_rearrange = None;
  }

(* The stage sites one checkpoint of a stream pair (server on node 1,
   client on node 2) fires, in order: the recorder's plugin spans and
   the Faults notifications (traced as fault/<stage> instants), as
   "<mode> <site> n<node> p<pid> <simulated time>". *)
let stage_sites ~forked =
  Dmtcp.Plugins.register stage_recorder;
  let options = { Dmtcp.Options.default with Dmtcp.Options.forked; plugins = [ "stage-rec" ] } in
  let cl, rt = make ~options () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:stream-server" ~argv:[ "6000"; "4000"; "/tmp/sg" ] in
  run_for cl 0.3;
  let _ = Dmtcp.Api.launch rt ~node:2 ~prog:"p:stream-client" ~argv:[ "1"; "6000"; "4000" ] in
  run_for cl 0.2;
  let col = Trace.collector () in
  Dmtcp.Runtime.with_observer rt
    (fun ~node ~pid stage ->
      Trace.instant ~node ~pid ~cat:"test"
        ~name:("fault/" ^ Dmtcp.Faults.stage_name stage)
        ~time:(Simos.Cluster.now cl) ())
    (fun () -> Trace.with_sink (Trace.collector_sink col) (fun () -> Dmtcp.Api.checkpoint_now rt));
  let mode = if forked then "forked" else "inline" in
  List.filter_map
    (fun (e : Trace.event) ->
      let site =
        match String.split_on_char '/' e.Trace.name with
        | [ "plugin"; "stage-rec"; site ] -> Some site
        | [ "fault"; stage ] -> Some ("fault:" ^ stage)
        | _ -> None
      in
      Option.map
        (fun site -> Printf.sprintf "%s %s n%d p%d %.9f" mode site e.Trace.node e.Trace.pid e.Trace.time)
        site)
    (Trace.events col)

let read_lines path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.split_on_char '\n' text |> List.filter (fun l -> l <> "")

(* One inline and one forked checkpoint fire every stage site at the
   processes and simulated times in stage_golden.txt. *)
let test_stage_golden () =
  let got = stage_sites ~forked:false @ stage_sites ~forked:true in
  Alcotest.(check (list string)) "stage sites" (read_lines "stage_golden.txt") got

(* The stream pair's result: checkpointed, killed and restarted under
   [options] when given, else run through untouched. *)
let stream_result ?options () =
  let cl, rt = make ?options () in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:stream-server" ~argv:[ "6000"; "4000"; "/tmp/wp" ] in
  run_for cl 0.3;
  let _ = Dmtcp.Api.launch rt ~node:2 ~prog:"p:stream-client" ~argv:[ "1"; "6000"; "4000" ] in
  run_for cl 0.2;
  (match options with
  | None -> ()
  | Some (options : Dmtcp.Options.t) ->
    Dmtcp.Api.checkpoint_now rt;
    (* a forked image lands in the background: let it land first *)
    while
      List.exists (fun (_, _, ps) -> ps.Dmtcp.Runtime.forked_pending) (Dmtcp.Runtime.hijacked_processes rt)
    do
      run_for cl 0.01
    done;
    let info = Dmtcp.Runtime.ckpt_info rt in
    let files = List.map (fun (node, path) -> file_content cl node path) info.Dmtcp.Runtime.images in
    let mode =
      Printf.sprintf "%s %s"
        (if options.Dmtcp.Options.forked then "forked" else "inline")
        (if options.Dmtcp.Options.store then "store" else "flat")
    in
    if options.Dmtcp.Options.store then
      Alcotest.(check bool) (mode ^ ": no flat image file") true (List.for_all Option.is_none files)
    else begin
      let sizes =
        List.map
          (fun (node, path) ->
            match Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cl node)) path with
            | Some f -> Simos.Vfs.sim_size f
            | None -> Alcotest.failf "%s: image %s missing on node %d" mode path node)
          info.Dmtcp.Runtime.images
      in
      check Alcotest.int (mode ^ ": image files of the recorded size")
        info.Dmtcp.Runtime.total_compressed (List.fold_left ( + ) 0 sizes)
    end;
    let script = Dmtcp.Api.restart_script rt in
    Dmtcp.Api.kill_computation rt;
    Dmtcp.Api.restart rt script;
    Dmtcp.Api.await_restart rt);
  Simos.Cluster.run cl;
  file_content cl 1 "/tmp/wp"

(* Inline and forked, flat files and the store: each write path's
   checkpoint restarts to the uncheckpointed run's result. *)
let test_write_path_matrix () =
  let reference = stream_result () in
  check (Alcotest.option Alcotest.string) "uncheckpointed result" (Some "OK 4000") reference;
  List.iter
    (fun (forked, store) ->
      let options = { Dmtcp.Options.default with Dmtcp.Options.forked; store } in
      check (Alcotest.option Alcotest.string)
        (Printf.sprintf "forked=%b store=%b restarts to the same result" forked store)
        reference (stream_result ~options ()))
    [ (false, false); (false, true); (true, false); (true, true) ]

let protocol_suites =
  [
    ( "protocol",
      [
        Alcotest.test_case "stage golden" `Quick test_stage_golden;
        Alcotest.test_case "write-path matrix" `Quick test_write_path_matrix;
      ] );
  ]

let () =
  Alcotest.run "dmtcp"
    (base_suites @ extra_suites @ failure_suites @ unit_suites @ property_suites @ protocol_suites)
