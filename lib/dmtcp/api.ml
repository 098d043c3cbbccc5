let install = Runtime.install

(* [?options] lets a caller run several independent DMTCP computations on
   one cluster (the batch scheduler gives every job its own coordinator
   host/port): the launcher, command and restart helpers all find their
   coordinator through the process environment. *)
let launch ?options rt ~node ~prog ~argv =
  let opts = Option.value ~default:(Runtime.options rt) options in
  let k = Runtime.kernel_of rt ~node in
  Simos.Kernel.spawn k ~prog:Launcher.checkpoint_name ~argv:(prog :: argv)
    ~env:(Options.to_env opts) ()

let checkpoint ?options rt =
  let opts = Option.value ~default:(Runtime.options rt) options in
  let k = Runtime.kernel_of rt ~node:opts.Options.coord_host in
  ignore
    (Simos.Kernel.spawn k ~prog:Launcher.command_name ~argv:[ "--checkpoint" ]
       ~env:(Options.to_env opts) ())

let run_slices rt ~timeout ~done_ =
  let cl = Runtime.cluster rt in
  let eng = Simos.Cluster.engine cl in
  let deadline = Simos.Cluster.now cl +. timeout in
  let rec go () =
    if done_ () then ()
    else if Simos.Cluster.now cl >= deadline then failwith "Dmtcp.Api: timed out"
    else begin
      Sim.Engine.run ~until:(Simos.Cluster.now cl +. 0.05) eng;
      go ()
    end
  in
  go ()

(* the coordinator domain a given options record addresses *)
let port_of ?options rt =
  (Option.value ~default:(Runtime.options rt) options).Options.coord_port

let await_checkpoint ?(timeout = 600.) ?(since = 0.) ?options rt =
  let port = port_of ?options rt in
  run_slices rt ~timeout ~done_:(fun () ->
      match Runtime.last_completed_ckpt ~port rt with
      | Some info ->
        info.Runtime.started >= since
        && info.Runtime.finished > info.Runtime.started
        && info.Runtime.nprocs > 0
      | None -> false)

let checkpoint_now ?timeout ?options rt =
  let since = Simos.Cluster.now (Runtime.cluster rt) in
  checkpoint ?options rt;
  await_checkpoint ?timeout ~since ?options rt

let completed ?options rt =
  match Runtime.last_completed_ckpt ~port:(port_of ?options rt) rt with
  | Some info -> info
  | None -> failwith "Dmtcp.Api: no completed checkpoint yet"

let last_checkpoint_seconds rt =
  let info = completed rt in
  info.Runtime.finished -. info.Runtime.started

let last_checkpoint_bytes rt =
  let info = completed rt in
  (info.Runtime.total_compressed, info.Runtime.total_uncompressed)

let restart_script ?options rt =
  let opts = Option.value ~default:(Runtime.options rt) options in
  let info = completed ?options rt in
  let by_host = Hashtbl.create 8 in
  List.iter
    (fun (node, path) ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_host node) in
      Hashtbl.replace by_host node (path :: existing))
    info.Runtime.images;
  let script =
    {
      Restart_script.coord_host = opts.Options.coord_host;
      coord_port = opts.Options.coord_port;
      entries =
        Hashtbl.fold (fun h imgs acc -> (h, List.sort compare imgs) :: acc) by_host []
        |> List.sort (fun (a, _) (b, _) -> compare a b);
    }
  in
  (* write the shell script next to the images, as the real tool does *)
  let k = Runtime.kernel_of rt ~node:opts.Options.coord_host in
  let f =
    Simos.Vfs.open_or_create (Simos.Kernel.vfs k)
      (opts.Options.ckpt_dir ^ "/dmtcp_restart_script.sh")
  in
  Simos.Vfs.truncate f;
  Simos.Vfs.append f (Restart_script.to_text script);
  script

let is_coordinator (proc : Simos.Kernel.process) =
  match proc.Simos.Kernel.cmdline with
  | p :: _ -> p = Coordinator.name
  | [] -> false

let kill_computation rt =
  let cl = Runtime.cluster rt in
  List.iter
    (fun (k, (proc : Simos.Kernel.process)) ->
      if proc.Simos.Kernel.hijacked || is_coordinator proc then begin
        Runtime.forget_process rt ~node:(Simos.Kernel.node_id k) ~pid:proc.Simos.Kernel.pid;
        Simos.Kernel.vanish_process k proc
      end)
    (Simos.Cluster.all_processes cl)

(* Node-scoped variant for multi-computation clusters: vanish every
   process on [nodes].  A batch scheduler owns nodes exclusively per
   job, so a job's node set bounds exactly its processes, its private
   coordinator, and any DMTCP helpers (dmtcp_command, in-flight
   dmtcp_restart) still attached to it — all of which must die with the
   job, or an aborted restart's zombies would repopulate the nodes after
   the scheduler has handed them to someone else. *)
let kill_nodes rt ~nodes =
  let cl = Runtime.cluster rt in
  List.iter
    (fun (k, (proc : Simos.Kernel.process)) ->
      if List.mem (Simos.Kernel.node_id k) nodes then begin
        Runtime.forget_process rt ~node:(Simos.Kernel.node_id k) ~pid:proc.Simos.Kernel.pid;
        Simos.Kernel.vanish_process k proc
      end)
    (Simos.Cluster.all_processes cl)

(* Can every image of [script] still be produced somewhere — as a file on
   some node, or from the store with all blocks on surviving replicas?
   A delta image is only available when its whole base chain is too.
   Chaos recovery uses this to decide between restart and relaunch. *)
let script_images_available rt (script : Restart_script.t) =
  (* an image's base link, [None] when the image cannot be produced: a
     file is decoded, a catalogued image answers from its manifest *)
  let base_of_image path =
    match Image_chain.find_file (Runtime.cluster rt) path with
    | Some f -> (
      match Ckpt_image.decode (Simos.Vfs.read_all f) with
      | img -> Some img.Ckpt_image.delta_base
      | exception Util.Codec.Reader.Corrupt _ -> None)
    | None -> (
      let name = Filename.basename path in
      match Runtime.store rt with
      | Some store when Store.contains store ~name ->
        Option.map (fun (m : Store.manifest) -> m.Store.m_base) (Store.find store ~name)
      | _ -> None)
  in
  let available path =
    match base_of_image path with
    | None -> false
    | Some first -> (
      let load base = base_of_image (Filename.concat (Filename.dirname path) base) in
      let chain = Image_chain.walk ~base_of:Fun.id ~load first in
      chain.Util.Chain.missing = None && not chain.Util.Chain.cut)
  in
  List.for_all
    (fun (_, images) -> List.for_all available images)
    script.Restart_script.entries

let restart rt (script : Restart_script.t) =
  if script.Restart_script.entries = [] then
    failwith "Dmtcp.Api.restart: script has no images";
  let port = script.Restart_script.coord_port in
  Runtime.note_restart_start ~port rt;
  Runtime.bump_generation rt;
  let cl = Runtime.cluster rt in
  (* clear only this domain's stale advertisements: restart waves
     namespace their discovery keys by coordinator port, so another
     job's concurrent restart keeps its adverts *)
  Simnet.Discovery.remove_prefix (Simos.Cluster.discovery cl)
    ~prefix:(Printf.sprintf "%d/" port);
  (* both the host AND the port come from the script: per-job coordinators
     listen on distinct ports, and a restarted job must rejoin its own *)
  let opts =
    {
      (Runtime.options rt) with
      Options.coord_host = script.Restart_script.coord_host;
      coord_port = script.Restart_script.coord_port;
    }
  in
  let env = Options.to_env opts in
  (* a coordinator for the restarted computation (EADDRINUSE exits quietly
     if one is already running) *)
  let ck = Runtime.kernel_of rt ~node:script.Restart_script.coord_host in
  ignore (Simos.Kernel.spawn ck ~prog:Coordinator.name ~argv:[] ~env ());
  Runtime.set_restart_expected ~port rt (List.length script.Restart_script.entries);
  List.iter
    (fun (host, images) ->
      let k = Runtime.kernel_of rt ~node:host in
      ignore (Simos.Kernel.spawn k ~prog:Restart.name ~argv:images ~env ()))
    script.Restart_script.entries

let await_restart ?(timeout = 600.) ?options rt =
  let port = port_of ?options rt in
  run_slices rt ~timeout ~done_:(fun () ->
      let info = Runtime.restart_info ~port rt in
      info.Runtime.nprocs >= Runtime.restart_expected ~port rt
      && Runtime.restart_expected ~port rt > 0)

let last_restart_seconds ?options rt =
  let info = Runtime.restart_info ~port:(port_of ?options rt) rt in
  info.Runtime.finished -. info.Runtime.started
