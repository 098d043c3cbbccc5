(* Tests for the workload layer: the MPI library (init, messages,
   collectives), resource managers, NAS kernels (verified results, with
   and without checkpoints), ParGeant4, iPython, desktop profiles. *)

let check = Alcotest.check

let make ?(nodes = 4) ?(options = Dmtcp.Options.default) () =
  let cl = Simos.Cluster.create ~nodes () in
  let rt = Dmtcp.Api.install cl ~options () in
  (cl, rt)

let run_for cl seconds =
  Sim.Engine.run ~until:(Simos.Cluster.now cl +. seconds) (Simos.Cluster.engine cl)

let file_content cl node path =
  match Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cl node)) path with
  | Some f -> Some (Simos.Vfs.read_all f)
  | None -> None

(* Launch a kernel the way mpirun does, but directly (no resource
   managers), for focused kernel tests. *)
let launch_ranks rt ~prog ~nprocs ~rpn ~base_port ~extra =
  for rank = 0 to nprocs - 1 do
    let node = rank / rpn in
    ignore
      (Dmtcp.Api.launch rt ~node ~prog
         ~argv:
           ([
              string_of_int rank;
              string_of_int nprocs;
              string_of_int base_port;
              string_of_int rpn;
              "0";
              "0" (* notification disabled *);
            ]
           @ extra))
  done

let result cl ~short ~base_port =
  (* rank 0 writes on node 0 *)
  file_content cl 0 (Printf.sprintf "/result/%s-%d" short base_port)

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let check_verified cl ~short ~base_port =
  match result cl ~short ~base_port with
  | Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "%s verified (got %S)" short s)
      true
      (starts_with (String.uppercase_ascii short ^ " VERIFIED") s)
  | None -> Alcotest.failf "%s: no result file" short

(* ------------------------------------------------------------------ *)
(* plain kernel runs (no checkpoint): results must verify *)

let kernel_case ?(nprocs = 8) ?(rpn = 2) ?(timeout = 400.) ~prog ~short ?(extra = []) () =
  let cl, rt = make ~nodes:((nprocs / rpn) + 1) () in
  launch_ranks rt ~prog ~nprocs ~rpn ~base_port:5200 ~extra;
  run_for cl timeout;
  check_verified cl ~short ~base_port:5200

let test_baseline () = kernel_case ~prog:"nas:baseline" ~short:"baseline" ()
let test_ep () = kernel_case ~prog:"nas:ep" ~short:"ep" ~extra:[ "100000" ] ()
let test_is () = kernel_case ~prog:"nas:is" ~short:"is" ~extra:[ "4000" ] ()
let test_cg () = kernel_case ~prog:"nas:cg" ~short:"cg" ~extra:[ "400" ] ()
let test_mg () = kernel_case ~prog:"nas:mg" ~short:"mg" ~extra:[ "20" ] ()
let test_lu () = kernel_case ~prog:"nas:lu" ~short:"lu" ~extra:[ "30" ] ()
let test_sp () = kernel_case ~prog:"nas:sp" ~short:"sp" ~extra:[ "25" ] ()
let test_bt () = kernel_case ~prog:"nas:bt" ~short:"bt" ~extra:[ "25" ] ()

let test_pargeant4 () =
  kernel_case ~prog:"apps:pargeant4" ~short:"pargeant4" ~extra:[ "200" ] ()

let test_ipython_demo () =
  kernel_case ~prog:"apps:ipython-demo" ~short:"ipython-demo" ~extra:[ "100" ] ()

(* ------------------------------------------------------------------ *)
(* kernels checkpointed mid-run must still verify *)

let ckpt_case ?(nprocs = 8) ?(rpn = 2) ~prog ~short ?(extra = []) ~warmup () =
  let cl, rt = make ~nodes:((nprocs / rpn) + 1) () in
  launch_ranks rt ~prog ~nprocs ~rpn ~base_port:5300 ~extra;
  run_for cl warmup;
  Dmtcp.Api.checkpoint_now rt;
  run_for cl 400.;
  check_verified cl ~short ~base_port:5300;
  let info = Dmtcp.Runtime.ckpt_info rt in
  check Alcotest.int "all ranks checkpointed" nprocs (List.length info.Dmtcp.Runtime.images)

let test_cg_with_checkpoint () =
  ckpt_case ~prog:"nas:cg" ~short:"cg" ~extra:[ "400"; "100" ] ~warmup:1.0 ()

let test_is_with_checkpoint () =
  ckpt_case ~prog:"nas:is" ~short:"is" ~extra:[ "20000"; "200" ] ~warmup:0.5 ()

(* CRC-32 of each image of the last checkpoint, in (node, path) order. *)
let image_crcs cl rt =
  List.sort compare (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images
  |> List.map (fun (node, path) ->
         match file_content cl node path with
         | Some image -> Printf.sprintf "%d %s %08lx" node path (Util.Crc32.digest image)
         | None -> Printf.sprintf "%d %s missing" node path)

(* The bytes of IS rank images taken mid-exchange, while 'D' bucket
   payloads are in flight and half-collected: a bucket lists its keys
   newest first, and every payload and image byte depends on that
   order.  CRC-32s of the eight images, as written before IS sorted by
   counting and bucketed into arrays. *)
let test_is_image_bytes () =
  let cl, rt = make ~nodes:5 () in
  launch_ranks rt ~prog:"nas:is" ~nprocs:8 ~rpn:2 ~base_port:5500 ~extra:[ "20000"; "200" ];
  run_for cl 0.28;
  Dmtcp.Api.checkpoint_now rt;
  check Alcotest.(list string) "image CRC-32s"
    [
      "0 /ckpt/ckpt_nas:is_0-100-g0.dmtcp 54b84b36";
      "0 /ckpt/ckpt_nas:is_0-101-g0.dmtcp a988e9c0";
      "1 /ckpt/ckpt_nas:is_1-200-g0.dmtcp 716820b3";
      "1 /ckpt/ckpt_nas:is_1-201-g0.dmtcp 50589c88";
      "2 /ckpt/ckpt_nas:is_2-300-g0.dmtcp 0891acf6";
      "2 /ckpt/ckpt_nas:is_2-301-g0.dmtcp eeba0726";
      "3 /ckpt/ckpt_nas:is_3-400-g0.dmtcp 4a77c25b";
      "3 /ckpt/ckpt_nas:is_3-401-g0.dmtcp 4f13e9a6";
    ]
    (image_crcs cl rt)

(* The bytes of MG rank images taken mid-cycle on the direct mesh,
   while a coarse residual ('c') sits in one of rank 0's sockets and a
   halo value ('h') in one of rank 1's.  When each rank flushes and
   reads its neighbours sets every later event time, so the images pin
   that progress moves the bytes it moved when it visited every
   neighbour on every call, in neighbour order.  CRC-32s of the eight
   images, as written by that full loop.  The checkpointed run must
   still end with the unfaulted run's result line. *)
let test_mg_image_bytes () =
  let run ~checkpoint_at =
    let cl, rt = make ~nodes:5 () in
    launch_ranks rt ~prog:"nas:mg" ~nprocs:8 ~rpn:2 ~base_port:5600 ~extra:[ "100" ];
    let crcs =
      match checkpoint_at with
      | None -> []
      | Some at ->
        run_for cl at;
        Dmtcp.Api.checkpoint_now rt;
        image_crcs cl rt
    in
    run_for cl 400.;
    (crcs, result cl ~short:"mg" ~base_port:5600)
  in
  let crcs, line = run ~checkpoint_at:(Some 0.015) in
  check Alcotest.(list string) "image CRC-32s"
    [
      "0 /ckpt/ckpt_nas:mg_0-100-g0.dmtcp 93fb1d0f";
      "0 /ckpt/ckpt_nas:mg_0-101-g0.dmtcp cc73b85f";
      "1 /ckpt/ckpt_nas:mg_1-200-g0.dmtcp e29ec687";
      "1 /ckpt/ckpt_nas:mg_1-201-g0.dmtcp 37c35746";
      "2 /ckpt/ckpt_nas:mg_2-300-g0.dmtcp 401724e2";
      "2 /ckpt/ckpt_nas:mg_2-301-g0.dmtcp d1da6fe6";
      "3 /ckpt/ckpt_nas:mg_3-400-g0.dmtcp 5f9a237c";
      "3 /ckpt/ckpt_nas:mg_3-401-g0.dmtcp 73cf9b93";
    ]
    crcs;
  let _, unfaulted = run ~checkpoint_at:None in
  check Alcotest.(option string) "result line" unfaulted line;
  Alcotest.(check bool) "MG verified" true (Option.fold ~none:false ~some:(starts_with "MG VERIFIED") line)

let test_pargeant4_with_checkpoint () =
  ckpt_case ~prog:"apps:pargeant4" ~short:"pargeant4" ~extra:[ "400"; "50" ] ~warmup:0.5 ()

let test_cg_with_restart () =
  let nprocs = 6 and rpn = 2 in
  let cl, rt = make ~nodes:4 () in
  launch_ranks rt ~prog:"nas:cg" ~nprocs ~rpn ~base_port:5400 ~extra:[ "400"; "100" ];
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  run_for cl 400.;
  check_verified cl ~short:"cg" ~base_port:5400

(* ------------------------------------------------------------------ *)
(* resource managers *)

let test_mpd_ring () =
  let cl, rt = make ~nodes:4 () in
  let _ = Dmtcp.Api.launch rt ~node:0 ~prog:"mpi:mpdboot" ~argv:[ "4" ] in
  run_for cl 2.0;
  (* 4 mpds running, hijacked, with ring sockets in their conn tables *)
  let procs = Dmtcp.Runtime.hijacked_processes rt in
  let mpds =
    List.filter
      (fun (node, pid, _) ->
        match Dmtcp.Runtime.proc_of rt ~node ~pid with
        | Some p -> ( match p.Simos.Kernel.cmdline with prog :: _ -> prog = "mpi:mpd" | [] -> false)
        | None -> false)
      procs
  in
  check Alcotest.int "4 mpds" 4 (List.length mpds);
  (* the ring must checkpoint cleanly *)
  Dmtcp.Api.checkpoint_now rt;
  let info = Dmtcp.Runtime.ckpt_info rt in
  Alcotest.(check bool) "mpds checkpointed" true (info.Dmtcp.Runtime.nprocs >= 4)

let test_mpirun_end_to_end_mpich2 () =
  let cl, rt = make ~nodes:4 () in
  let _ = Dmtcp.Api.launch rt ~node:0 ~prog:"mpi:mpdboot" ~argv:[ "4" ] in
  run_for cl 1.0;
  let _ =
    Dmtcp.Api.launch rt ~node:0 ~prog:"mpi:mpirun"
      ~argv:[ "mpich2"; "8"; "2"; "5500"; "nas:ep"; "50000" ]
  in
  run_for cl 200.;
  check_verified cl ~short:"ep" ~base_port:5500;
  (* mpirun exited after collecting all completions *)
  let mpiruns =
    List.filter
      (fun (_, p) ->
        match (p : Simos.Kernel.process).Simos.Kernel.cmdline with
        | prog :: _ -> prog = "mpi:mpirun"
        | [] -> false)
      (Simos.Cluster.all_processes cl)
  in
  check Alcotest.int "mpirun gone" 0 (List.length mpiruns)

let test_mpirun_end_to_end_openmpi () =
  let cl, rt = make ~nodes:4 () in
  let _ =
    Dmtcp.Api.launch rt ~node:0 ~prog:"mpi:mpirun"
      ~argv:[ "openmpi"; "8"; "2"; "5600"; "nas:ep"; "50000" ]
  in
  run_for cl 200.;
  check_verified cl ~short:"ep" ~base_port:5600;
  (* orted daemons were started and became checkpointable *)
  ()

(* ------------------------------------------------------------------ *)
(* desktop catalog *)

let test_desktop_profiles_complete () =
  check Alcotest.int "21 applications" 21 (List.length Apps.Desktop.figure3);
  Alcotest.(check bool) "runcms is 680 MB" true (Apps.Desktop.runcms.Apps.Desktop.mb = 680.);
  Alcotest.(check bool) "matlab largest interp" true
    (List.exists
       (fun p -> p.Apps.Desktop.p_name = "matlab" && p.Apps.Desktop.mb > 30.)
       Apps.Desktop.figure3)

let test_desktop_app_checkpoint_restart () =
  let cl, rt = make ~nodes:2 () in
  let _ = Dmtcp.Api.launch rt ~node:0 ~prog:"apps:desktop" ~argv:[ "python" ] in
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  let script = Dmtcp.Restart_script.remap script (fun _ -> 1) in
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  run_for cl 1.0;
  (* the interpreter survived migration with its pty *)
  let procs = Dmtcp.Runtime.hijacked_processes rt in
  check Alcotest.int "one process restored" 1 (List.length procs);
  let node, pid, _ = List.hd procs in
  check Alcotest.int "on the laptop host" 1 node;
  match Dmtcp.Runtime.proc_of rt ~node ~pid with
  | Some p ->
    let has_pty =
      Simos.Kernel.Fdtbl.fold
        (fun _ (d : Simos.Fdesc.t) acc ->
          acc || match d.Simos.Fdesc.kind with Simos.Fdesc.Pty_s _ -> true | _ -> false)
        p.Simos.Kernel.fdtable false
    in
    Alcotest.(check bool) "pty restored" true has_pty
  | None -> Alcotest.fail "restored process not found"

let test_desktop_process_tree () =
  let cl, rt = make ~nodes:2 () in
  let _ = Dmtcp.Api.launch rt ~node:0 ~prog:"apps:desktop" ~argv:[ "tightvnc+twm" ] in
  run_for cl 2.0;
  (* vnc server + twm + xterm *)
  check Alcotest.int "three processes" 3 (List.length (Dmtcp.Runtime.hijacked_processes rt));
  Dmtcp.Api.checkpoint_now rt;
  let info = Dmtcp.Runtime.ckpt_info rt in
  check Alcotest.int "three images" 3 info.Dmtcp.Runtime.nprocs

let test_ipython_shell () =
  let cl, rt = make ~nodes:2 () in
  let _ = Dmtcp.Api.launch rt ~node:0 ~prog:"apps:ipython-shell" ~argv:[] in
  run_for cl 1.0;
  Dmtcp.Api.checkpoint_now rt;
  Alcotest.(check bool) "shell checkpointed" true
    ((Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.nprocs = 1)

(* pure unit tests: no simulation required *)

let ring size r = List.filter (fun n -> n >= 0 && n < size) [ r - 1; r + 1 ]

let test_mpi_placement () =
  let comm =
    Apps.Mpi.create ~rank:5 ~size:16 ~base_port:6000 ~ranks_per_node:4 ~neighbors:(ring 16) ()
  in
  check Alcotest.int "rank" 5 (Apps.Mpi.rank comm);
  check Alcotest.int "size" 16 (Apps.Mpi.size comm);
  check Alcotest.int "rank 5 on node 1" 1 (Apps.Mpi.host_of_rank comm 5);
  check Alcotest.int "rank 15 on node 3" 3 (Apps.Mpi.host_of_rank comm 15)

let test_mpi_codec_roundtrip () =
  let comm =
    Apps.Mpi.create ~rank:2 ~size:8 ~base_port:6000 ~ranks_per_node:2 ~neighbors:(ring 8) ()
  in
  Apps.Mpi.send comm ~dst:1 ~tag:'D' "payload-bytes";
  let comm' = Util.Codec.roundtrip Apps.Mpi.encode Apps.Mpi.decode comm in
  check Alcotest.int "rank preserved" 2 (Apps.Mpi.rank comm');
  check Alcotest.int "pending bytes preserved" (Apps.Mpi.pending_out comm ~dst:1)
    (Apps.Mpi.pending_out comm' ~dst:1)

let test_coll_codec_roundtrip () =
  let st = Apps.Mpi.Coll.start (Apps.Mpi.Coll.allreduce_sum 3.25) in
  let st' = Util.Codec.roundtrip Apps.Mpi.Coll.encode Apps.Mpi.Coll.decode st in
  ignore st';
  ()

let test_parse_rank_args () =
  let rank, size, port, rpn, nh, np, extra =
    Apps.Launchers.parse_rank_args [ "3"; "16"; "6000"; "4"; "0"; "6099"; "x"; "y" ]
  in
  check Alcotest.int "rank" 3 rank;
  check Alcotest.int "size" 16 size;
  check Alcotest.int "port" 6000 port;
  check Alcotest.int "rpn" 4 rpn;
  check Alcotest.int "notify host" 0 nh;
  check Alcotest.int "notify port" 6099 np;
  check Alcotest.(list string) "extra" [ "x"; "y" ] extra;
  Alcotest.(check bool) "bad argv rejected" true
    (try
       ignore (Apps.Launchers.parse_rank_args [ "1" ]);
       false
     with Failure _ -> true)

let test_notify_codec () =
  let n = Apps.Launchers.notify_start ~host:3 ~port:6099 in
  let n' = Util.Codec.roundtrip Apps.Launchers.encode_notify Apps.Launchers.decode_notify n in
  ignore n';
  ()

let test_nas_catalog_complete () =
  check Alcotest.int "eight kernels" 8 (List.length Apps.Nas.catalog);
  Alcotest.(check bool) "IS has the biggest footprint" true
    (List.assoc "nas:is" Apps.Nas.catalog
    = List.fold_left (fun acc (_, mb) -> max acc mb) 0 Apps.Nas.catalog)

let () =
  Alcotest.run "apps"
    [
      ( "units",
        [
          Alcotest.test_case "mpi placement" `Quick test_mpi_placement;
          Alcotest.test_case "mpi codec" `Quick test_mpi_codec_roundtrip;
          Alcotest.test_case "coll codec" `Quick test_coll_codec_roundtrip;
          Alcotest.test_case "rank argv" `Quick test_parse_rank_args;
          Alcotest.test_case "notify codec" `Quick test_notify_codec;
          Alcotest.test_case "nas catalog" `Quick test_nas_catalog_complete;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "baseline verifies" `Quick test_baseline;
          Alcotest.test_case "EP verifies" `Quick test_ep;
          Alcotest.test_case "IS verifies" `Quick test_is;
          Alcotest.test_case "CG verifies" `Quick test_cg;
          Alcotest.test_case "MG verifies" `Quick test_mg;
          Alcotest.test_case "LU verifies" `Quick test_lu;
          Alcotest.test_case "SP verifies" `Quick test_sp;
          Alcotest.test_case "BT verifies" `Quick test_bt;
          Alcotest.test_case "ParGeant4 verifies" `Quick test_pargeant4;
          Alcotest.test_case "iPython demo verifies" `Quick test_ipython_demo;
        ] );
      ( "checkpointed",
        [
          Alcotest.test_case "CG + checkpoint" `Quick test_cg_with_checkpoint;
          Alcotest.test_case "IS + checkpoint" `Quick test_is_with_checkpoint;
          Alcotest.test_case "IS image bytes mid-exchange" `Quick test_is_image_bytes;
          Alcotest.test_case "MG image bytes mid-cycle" `Quick test_mg_image_bytes;
          Alcotest.test_case "ParGeant4 + checkpoint" `Quick test_pargeant4_with_checkpoint;
          Alcotest.test_case "CG + restart" `Quick test_cg_with_restart;
        ] );
      ( "runtimes",
        [
          Alcotest.test_case "mpd ring" `Quick test_mpd_ring;
          Alcotest.test_case "mpirun (MPICH2)" `Quick test_mpirun_end_to_end_mpich2;
          Alcotest.test_case "mpirun (OpenMPI)" `Quick test_mpirun_end_to_end_openmpi;
        ] );
      ( "desktop",
        [
          Alcotest.test_case "profiles complete" `Quick test_desktop_profiles_complete;
          Alcotest.test_case "checkpoint + migrate" `Quick test_desktop_app_checkpoint_restart;
          Alcotest.test_case "process tree" `Quick test_desktop_process_tree;
          Alcotest.test_case "ipython shell" `Quick test_ipython_shell;
        ] );
    ]
