(* The paper's TightVNC demonstration (§5.1): checkpoint a headless X11
   session — vncserver, window manager, and terminal — as one process
   tree, then restore it elsewhere.  Pipes between the processes were
   transparently promoted to socketpairs by the DMTCP wrapper, the xterm
   keeps its pty (terminal modes included), and the parent/child
   relationships survive via virtual pids.

   Run with:  dune exec examples/desktop_vnc.exe *)

let show_session rt label =
  Printf.printf "%s\n" label;
  List.iter
    (fun (node, pid, ps) ->
      match Dmtcp.Runtime.proc_of rt ~node ~pid with
      | Some p ->
        let fds =
          Simos.Kernel.Fdtbl.fold
            (fun _ (d : Simos.Fdesc.t) acc -> Simos.Fdesc.kind_name d :: acc)
            p.Simos.Kernel.fdtable []
          |> List.sort_uniq compare |> String.concat ","
        in
        Printf.printf "  node%d pid=%-4d vpid=%-4d %-18s fds:[%s]\n" node pid
          ps.Dmtcp.Runtime.vpid
          (String.concat " " p.Simos.Kernel.cmdline)
          fds
      | None -> ())
    (Dmtcp.Runtime.hijacked_processes rt)

let () =
  Apps.Registry.register_all ();
  let cluster = Simos.Cluster.create ~nodes:3 () in
  let rt = Dmtcp.Api.install cluster () in
  let engine = Simos.Cluster.engine cluster in

  (* dmtcp_checkpoint vncserver ... spawns twm and an xterm under it *)
  ignore (Dmtcp.Api.launch rt ~node:1 ~prog:"apps:desktop" ~argv:[ "tightvnc+twm" ]);
  Sim.Engine.run ~until:2.0 engine;
  show_session rt "VNC session before checkpoint:";

  Dmtcp.Api.checkpoint_now rt;
  Printf.printf "checkpointed the session in %.2f s (%s)\n"
    (Dmtcp.Api.last_checkpoint_seconds rt)
    (Util.Units.pp_mb (fst (Dmtcp.Api.last_checkpoint_bytes rt)));

  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;

  (* restore the whole session on another machine *)
  let script = Dmtcp.Restart_script.remap script (fun _ -> 2) in
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  Sim.Engine.run ~until:(Simos.Cluster.now cluster +. 1.0) engine;
  show_session rt "VNC session after restart on node 2:";
  print_endline "(virtual pids unchanged; real pids fresh; sockets and ptys recreated)"
