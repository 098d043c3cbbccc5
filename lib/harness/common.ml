type runtime_kind = Mpich2 | Openmpi | Direct | Proxy | Plain

type workload = {
  w_name : string;
  w_kind : runtime_kind;
  w_prog : string;
  w_nprocs : int;
  w_rpn : int;
  w_extra : string list;
  w_warmup : float;
}

type env = { cl : Simos.Cluster.t; rt : Dmtcp.Runtime.t }

let setup ?(nodes = 32) ?(cores_per_node = 4) ?storage ?options () =
  let cl = Simos.Cluster.create ?storage ~cores_per_node ~nodes () in
  let rt = Dmtcp.Api.install cl ?options () in
  { cl; rt }

let run_for env seconds =
  Sim.Engine.run ~until:(Simos.Cluster.now env.cl +. seconds) (Simos.Cluster.engine env.cl)

(* Run in [every]-second slices until [pred] holds or [timeout] virtual
   seconds have passed, whichever comes first. *)
let run_until ?(every = 0.1) env ~timeout pred =
  let deadline = Simos.Cluster.now env.cl +. timeout in
  while (not (pred ())) && Simos.Cluster.now env.cl < deadline do
    run_for env every
  done

(* The contents of [path] on [node], if the file exists. *)
let read_file env ~node path =
  Option.map Simos.Vfs.read_all
    (Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel env.cl node)) path)

let options_for = function
  | Proxy -> { Dmtcp.Options.default with Dmtcp.Options.plugins = [ "ext-sock"; "mpi-proxy" ] }
  | Mpich2 | Openmpi | Direct | Plain -> Dmtcp.Options.default

(* fold [f] over the bytes of every image at [(host, paths)] that its
   host still holds *)
let fold_images env entries init f =
  List.fold_left
    (fun acc (host, paths) ->
      List.fold_left
        (fun acc path -> Option.fold ~none:acc ~some:(f acc) (read_file env ~node:host path))
        acc paths)
    init entries

let socket_stats env entries =
  fold_images env entries (0, 0) (fun (estab, drained) bytes ->
      let e, d = Dmtcp.Ckpt_image.(socket_stats (decode bytes)) in
      (estab + e, drained + d))

let image_bytes env entries =
  fold_images env entries 0 (fun total bytes -> total + String.length bytes)

let nodes_used w = (w.w_nprocs + w.w_rpn - 1) / w.w_rpn

let expected_processes w =
  match w.w_kind with
  (* proxies are un-hijacked, so a Proxy workload checkpoints exactly
     its ranks *)
  | Direct | Proxy | Plain -> w.w_nprocs
  | Mpich2 ->
    (* ranks + one mpd per node + mpirun *)
    w.w_nprocs + nodes_used w + 1
  | Openmpi -> w.w_nprocs + nodes_used w + 1

let base_port = 6100

let launch_direct env w =
    for rank = 0 to w.w_nprocs - 1 do
      let node = rank / w.w_rpn in
      ignore
        (Dmtcp.Api.launch env.rt ~node ~prog:w.w_prog
           ~argv:
             ([
                string_of_int rank;
                string_of_int w.w_nprocs;
                string_of_int base_port;
                string_of_int w.w_rpn;
                "0";
                "0";
              ]
             @ w.w_extra))
    done

let start_workload env w =
  (match w.w_kind with
  | Plain -> ignore (Dmtcp.Api.launch env.rt ~node:0 ~prog:w.w_prog ~argv:w.w_extra)
  | Direct -> launch_direct env w
  | Proxy ->
    (* un-hijacked proxy daemon per node first, then the ranks with the
       proxy transport selected (first extra argv word) *)
    List.iter
      (fun node -> Proxy.Daemon.spawn_on env.cl ~node ~base_port ~rpn:w.w_rpn)
      (Proxy.Daemon.nodes_of_job ~size:w.w_nprocs ~rpn:w.w_rpn);
    launch_direct env { w with w_extra = "proxy" :: w.w_extra }
  | Mpich2 ->
    ignore
      (Dmtcp.Api.launch env.rt ~node:0 ~prog:"mpi:mpdboot" ~argv:[ string_of_int (nodes_used w) ]);
    run_for env 0.5;
    ignore
      (Dmtcp.Api.launch env.rt ~node:0 ~prog:"mpi:mpirun"
         ~argv:
           ([
              "mpich2";
              string_of_int w.w_nprocs;
              string_of_int w.w_rpn;
              string_of_int base_port;
              w.w_prog;
            ]
           @ w.w_extra))
  | Openmpi ->
    ignore
      (Dmtcp.Api.launch env.rt ~node:0 ~prog:"mpi:mpirun"
         ~argv:
           ([
              "openmpi";
              string_of_int w.w_nprocs;
              string_of_int w.w_rpn;
              string_of_int base_port;
              w.w_prog;
            ]
           @ w.w_extra)));
  (* wait for the whole process set to register *)
  let want = expected_processes w in
  let have () = List.length (Dmtcp.Runtime.hijacked_processes env.rt) in
  run_until ~every:0.25 env ~timeout:60. (fun () -> have () >= want);
  if have () < want then
    failwith (Printf.sprintf "workload %s: only %d of %d processes appeared" w.w_name (have ()) want);
  run_for env w.w_warmup

type ckpt_measure = {
  ckpt_times : Util.Stats.t;
  restart_times : Util.Stats.t;
  compressed_bytes : int;
  uncompressed_bytes : int;
  nprocs : int;
}

let measure env ~ckpt_reps ~restart_reps =
  let ckpt_times = Util.Stats.create () in
  let restart_times = Util.Stats.create () in
  let compressed = ref 0 and uncompressed = ref 0 and nprocs = ref 0 in
  for _ = 1 to ckpt_reps do
    Simos.Cluster.reset_storage env.cl;
    run_for env 0.3;
    Dmtcp.Api.checkpoint_now env.rt;
    Util.Stats.add ckpt_times (Dmtcp.Api.last_checkpoint_seconds env.rt);
    let c, u = Dmtcp.Api.last_checkpoint_bytes env.rt in
    compressed := c;
    uncompressed := u;
    nprocs := (Dmtcp.Runtime.ckpt_info env.rt).Dmtcp.Runtime.nprocs
  done;
  for _ = 1 to restart_reps do
    Simos.Cluster.reset_storage env.cl;
    run_for env 0.3;
    Dmtcp.Api.checkpoint_now env.rt;
    let script = Dmtcp.Api.restart_script env.rt in
    Dmtcp.Api.kill_computation env.rt;
    Simos.Cluster.reset_storage env.cl;
    Dmtcp.Api.restart env.rt script;
    Dmtcp.Api.await_restart env.rt;
    Util.Stats.add restart_times (Dmtcp.Api.last_restart_seconds env.rt)
  done;
  {
    ckpt_times;
    restart_times;
    compressed_bytes = !compressed;
    uncompressed_bytes = !uncompressed;
    nprocs = !nprocs;
  }

let teardown env = Dmtcp.Api.kill_computation env.rt

let row name m =
  [
    name;
    Util.Stats.to_string ~decimals:2 m.ckpt_times;
    Util.Stats.to_string ~decimals:2 m.restart_times;
    Printf.sprintf "%.1f" (float_of_int m.compressed_bytes /. 1e6);
    Printf.sprintf "%.1f" (float_of_int m.uncompressed_bytes /. 1e6);
    string_of_int m.nprocs;
  ]
