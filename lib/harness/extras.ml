(* ------------------------------------------------------------------ *)
(* runCMS (§5.1) *)

type runcms_result = { ckpt : float; restart : float; image_mb : float }

let runcms ?(reps = 2) () =
  let env = Common.setup ~nodes:1 ~cores_per_node:8 () in
  let w =
    {
      Common.w_name = "runcms";
      w_kind = Common.Plain;
      w_prog = Apps.Desktop.prog_name;
      w_nprocs = 1;
      w_rpn = 1;
      w_extra = [ "runcms" ];
      w_warmup = 1.0;
    }
  in
  Common.start_workload env w;
  let m = Common.measure env ~ckpt_reps:reps ~restart_reps:1 in
  Common.teardown env;
  {
    ckpt = Util.Stats.mean m.Common.ckpt_times;
    restart = Util.Stats.mean m.Common.restart_times;
    image_mb = float_of_int m.Common.compressed_bytes /. 1e6;
  }

let runcms_text r =
  Printf.sprintf
    "== runCMS (sec 5.1) ==\n\
     checkpoint: %.1f s   (paper: 25.2 s)\n\
     restart:    %.1f s   (paper: 18.4 s)\n\
     image:      %.0f MB  (paper: 225 MB gzipped, 680 MB resident)\n"
    r.ckpt r.restart r.image_mb

(* ------------------------------------------------------------------ *)
(* sync cost (§5.2) *)

type sync_result = { without_sync : Util.Stats.t; with_sync : Util.Stats.t }

let pargeant4_times ~sync_after ~reps ~nprocs =
  let options = { Dmtcp.Options.default with Dmtcp.Options.sync_after } in
  let env = Common.setup ~nodes:(max 1 (nprocs / 4)) ~options () in
  let w =
    {
      Common.w_name = "pargeant4-sync";
      w_kind = Common.Mpich2;
      w_prog = Apps.Pargeant4.prog_name;
      w_nprocs = nprocs;
      w_rpn = 4;
      w_extra = [ "2000"; "1000000" ];
      w_warmup = 1.0;
    }
  in
  Common.start_workload env w;
  let m = Common.measure env ~ckpt_reps:reps ~restart_reps:0 in
  Common.teardown env;
  m.Common.ckpt_times

let sync_cost ?(reps = 3) ?(nprocs = 32) () =
  {
    without_sync = pargeant4_times ~sync_after:false ~reps ~nprocs;
    with_sync = pargeant4_times ~sync_after:true ~reps ~nprocs;
  }

let sync_text r =
  Printf.sprintf
    "== sync(2) after checkpoint, ParGeant4 (sec 5.2) ==\n\
     without sync: %s s\n\
     with sync:    %s s\n\
     added cost:   %.2f s   (paper: +0.79 s +/- 0.24)\n"
    (Util.Stats.to_string ~decimals:2 r.without_sync)
    (Util.Stats.to_string ~decimals:2 r.with_sync)
    (Util.Stats.mean r.with_sync -. Util.Stats.mean r.without_sync)

(* ------------------------------------------------------------------ *)
(* forked checkpointing ablation *)

type forked_result = { plain_s : float; forked_s : float }

let desktop_ckpt ~forked =
  let options = { Dmtcp.Options.default with Dmtcp.Options.forked } in
  let env = Common.setup ~nodes:1 ~options () in
  let w =
    {
      Common.w_name = "forked-ablation";
      w_kind = Common.Plain;
      w_prog = Apps.Desktop.prog_name;
      w_nprocs = 1;
      w_rpn = 1;
      w_extra = [ "matlab" ];
      w_warmup = 1.0;
    }
  in
  Common.start_workload env w;
  Dmtcp.Api.checkpoint_now env.Common.rt;
  let t = Dmtcp.Api.last_checkpoint_seconds env.Common.rt in
  Common.teardown env;
  t

let forked_ablation () =
  { plain_s = desktop_ckpt ~forked:false; forked_s = desktop_ckpt ~forked:true }

let forked_text r =
  Printf.sprintf
    "== Ablation: forked checkpointing (sec 5.3) ==\n\
     plain checkpoint pause:  %.3f s\n\
     forked checkpoint pause: %.3f s   (paper: 2 s -> 0.2 s typical)\n"
    r.plain_s r.forked_s

(* ------------------------------------------------------------------ *)
(* incremental checkpointing *)

type incremental_result = { full_first : float; incrementals : float list }

let incremental_ablation ?(ckpts = 3) () =
  let options = { Dmtcp.Options.default with Dmtcp.Options.incremental = true } in
  let env = Common.setup ~nodes:1 ~options () in
  let w =
    {
      Common.w_name = "incremental-ablation";
      w_kind = Common.Plain;
      w_prog = Apps.Desktop.prog_name;
      w_nprocs = 1;
      w_rpn = 1;
      w_extra = [ "matlab" ];
      w_warmup = 1.0;
    }
  in
  Common.start_workload env w;
  let times = ref [] in
  for _ = 0 to ckpts do
    Simos.Cluster.reset_storage env.Common.cl;
    Common.run_for env 0.3;
    Dmtcp.Api.checkpoint_now env.Common.rt;
    times := Dmtcp.Api.last_checkpoint_seconds env.Common.rt :: !times
  done;
  Common.teardown env;
  match List.rev !times with
  | full_first :: incrementals -> { full_first; incrementals }
  | [] -> { full_first = 0.; incrementals = [] }

let incremental_text r =
  Printf.sprintf
    "== Ablation: incremental checkpointing (matlab image, mostly idle) ==\n\
     first (full) checkpoint:    %.3f s\n\
     incremental checkpoints:    %s s\n\
     Only dirtied pages are rewritten; an idle interpreter re-checkpoints\n\
     for the price of its dirty bitmap (paper refs [2][25]).\n"
    r.full_first
    (String.concat ", " (List.map (Printf.sprintf "%.3f") r.incrementals))

(* ------------------------------------------------------------------ *)
(* compression scheme sweep *)

type algo_point = { algo : Compress.Algo.t; seconds : float; size_mb : float }

let algo_ablation () =
  List.map
    (fun algo ->
      let options = { Dmtcp.Options.default with Dmtcp.Options.algo } in
      let env = Common.setup ~nodes:1 ~options () in
      let w =
        {
          Common.w_name = "algo-ablation";
          w_kind = Common.Plain;
          w_prog = Apps.Desktop.prog_name;
          w_nprocs = 1;
          w_rpn = 1;
          w_extra = [ "matlab" ];
          w_warmup = 1.0;
        }
      in
      Common.start_workload env w;
      Dmtcp.Api.checkpoint_now env.Common.rt;
      let seconds = Dmtcp.Api.last_checkpoint_seconds env.Common.rt in
      let c, _ = Dmtcp.Api.last_checkpoint_bytes env.Common.rt in
      Common.teardown env;
      { algo; seconds; size_mb = float_of_int c /. 1e6 })
    Compress.Algo.all

let algo_text points =
  "== Ablation: compression scheme (matlab image) ==\n"
  ^ Util.Table.render
      ~header:[ "scheme"; "ckpt (s)"; "size (MB)" ]
      (List.map
         (fun p -> [ Compress.Algo.name p.algo; Printf.sprintf "%.3f" p.seconds; Printf.sprintf "%.1f" p.size_mb ])
         points)

(* ------------------------------------------------------------------ *)
(* coordinator bottleneck *)

(* one checkpoint's stage durations, from the "dmtcp" spans it emits *)
let checkpoint_stages env =
  let coll = Trace.collector () in
  Trace.with_sink (Trace.collector_sink coll) (fun () -> Dmtcp.Api.checkpoint_now env.Common.rt);
  Trace.Query.stage_stats (Trace.events coll)

type coord_point = { nprocs : int; barrier_bound_s : float }

let coordinator_ablation ?(sizes = [ 16; 64; 128 ]) () =
  List.map
    (fun nprocs ->
      let env = Common.setup ~nodes:(max 1 (nprocs / 4)) () in
      let w =
        {
          Common.w_name = "coord-ablation";
          w_kind = Common.Direct;
          w_prog = "nas:baseline";
          w_nprocs = nprocs;
          w_rpn = 4;
          w_extra = [ "1000000" ];
          w_warmup = 0.5;
        }
      in
      Common.start_workload env w;
      let stats = checkpoint_stages env in
      let mean key =
        match List.assoc_opt key stats with Some s -> Util.Stats.mean s | None -> 0.
      in
      Common.teardown env;
      (* stages whose duration is barrier/coordinator-bound, not data *)
      { nprocs; barrier_bound_s = mean "ckpt/suspend" +. mean "ckpt/elect" +. mean "ckpt/refill" })
    sizes

let coordinator_text points =
  "== Ablation: centralized coordinator cost (barrier-bound stages) ==\n"
  ^ Util.Table.render
      ~header:[ "processes"; "suspend+elect+refill (s)" ]
      (List.map
         (fun p -> [ string_of_int p.nprocs; Printf.sprintf "%.4f" p.barrier_bound_s ])
         points)
  ^ "Near-constant times indicate the coordinator is not a bottleneck (paper sec 5.4).\n"

(* ------------------------------------------------------------------ *)
(* drain volume *)

type drain_point = { pairs : int; drain_s : float; drained_kb : float }

let drain_ablation ?(pairs_list = [ 1; 4; 8 ]) () =
  List.map
    (fun pairs ->
      let nprocs = pairs * 2 in
      let env = Common.setup ~nodes:(max 2 ((nprocs + 1) / 2)) () in
      let w =
        {
          Common.w_name = "drain-ablation";
          w_kind = Common.Direct;
          w_prog = Apps.Flood.prog_name;
          w_nprocs = nprocs;
          w_rpn = 2;
          w_extra = [ "5" ];
          w_warmup = 2.0;
        }
      in
      Common.start_workload env w;
      let stats = checkpoint_stages env in
      let drain_s =
        match List.assoc_opt "ckpt/drain" stats with Some s -> Util.Stats.mean s | None -> 0.
      in
      (* drained volume from the images *)
      let info = Dmtcp.Runtime.ckpt_info env.Common.rt in
      let _, drained =
        Common.socket_stats env
          (List.map (fun (node, path) -> (node, [ path ])) info.Dmtcp.Runtime.images)
      in
      Common.teardown env;
      { pairs; drain_s; drained_kb = float_of_int drained /. 1024. })
    pairs_list

let drain_text points =
  "== Ablation: drain stage vs buffered socket data ==\n"
  ^ Util.Table.render
      ~header:[ "flooded pairs"; "drain stage (s)"; "drained (KiB)" ]
      (List.map
         (fun p ->
           [ string_of_int p.pairs; Printf.sprintf "%.4f" p.drain_s; Printf.sprintf "%.0f" p.drained_kb ])
         points)
