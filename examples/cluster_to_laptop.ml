(* Use case 6 from the paper's introduction: run the CPU-intensive phase
   of a computation on a 32-node cluster, checkpoint it, and resume *all*
   of it on a single laptop for interactive analysis.

   The workload is ParGeant4 (TOP-C master/worker over MPICH2, resource
   managers included); after migration every process — master, workers,
   mpd daemons, mpirun — runs on node 0 with every socket reconnected
   through the discovery service.

   Run with:  dune exec examples/cluster_to_laptop.exe *)

let () =
  let cluster = Simos.Cluster.create ~nodes:32 () in
  let rt = Dmtcp.Api.install cluster () in
  let engine = Simos.Cluster.engine cluster in

  (* dmtcp_checkpoint mpdboot -n 32; dmtcp_checkpoint mpirun ... *)
  ignore (Dmtcp.Api.launch rt ~node:0 ~prog:"mpi:mpdboot" ~argv:[ "32" ]);
  Sim.Engine.run ~until:0.5 engine;
  ignore
    (Dmtcp.Api.launch rt ~node:0 ~prog:"mpi:mpirun"
       ~argv:[ "mpich2"; "128"; "4"; "6100"; "apps:pargeant4"; "3000"; "200" ]);

  (* the CPU-intensive phase on the cluster *)
  Sim.Engine.run ~until:8.0 engine;
  let procs = List.length (Dmtcp.Runtime.hijacked_processes rt) in
  Printf.printf "running on the cluster: %d processes (128 workers + mpds + mpirun)\n" procs;

  Dmtcp.Api.checkpoint_now rt;
  Printf.printf "cluster-wide checkpoint: %.2f s, %s across %d images\n"
    (Dmtcp.Api.last_checkpoint_seconds rt)
    (Util.Units.pp_mb (fst (Dmtcp.Api.last_checkpoint_bytes rt)))
    (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.nprocs;

  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;

  (* take the images home: everything restarts on "the laptop" (node 0) *)
  let laptop = Dmtcp.Restart_script.remap script (fun _ -> 0) in
  Dmtcp.Api.restart rt laptop;
  Dmtcp.Api.await_restart rt;
  Printf.printf "restarted everything on one laptop in %.2f s\n"
    (Dmtcp.Api.last_restart_seconds rt);

  (* the computation finishes at home *)
  Simos.Cluster.run cluster;
  match
    Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cluster 0)) "/result/pargeant4-6100"
  with
  | Some f -> Printf.printf "final result on the laptop: %s\n" (Simos.Vfs.read_all f)
  | None -> print_endline "ERROR: computation did not finish"
