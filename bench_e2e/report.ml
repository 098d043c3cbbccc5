(* Metric catalogue and the reduction of a run's passes to the printed
   metrics.  The names and units here must equal BENCHMARK.json's; the
   smoke test checks that they do. *)

(* End-to-end: the first five run on the simulated clock and are
   deterministic per seed; the last three are host measurements. *)
let end_to_end =
  [
    ("ckpt_s", "s");
    ("durable_s", "s");
    ("restart_s", "s");
    ("ckpt_write_mb", "MB");
    ("makespan_s", "s");
    ("wall_s", "s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

let modeled_names = [ "ckpt_s"; "durable_s"; "restart_s"; "ckpt_write_mb"; "makespan_s" ]

let per_layer =
  [
    ("sim.events", "count");
    ("sim.events_per_host_s", "1/s");
    ("sim.cancelled_frac", "ratio");
    ("sim.compute_host_frac", "ratio");
    ("kernel.spawns", "count");
    ("kernel.fd_opens", "count");
    ("kernel.page_faults", "count");
    ("net.segments", "count");
    ("net.mb", "MB");
    ("net.refill_kb", "kB");
    ("dmtcp.ckpt.suspend_s", "s");
    ("dmtcp.ckpt.elect_s", "s");
    ("dmtcp.ckpt.drain_s", "s");
    ("dmtcp.ckpt.write_s", "s");
    ("dmtcp.ckpt.refill_s", "s");
    ("dmtcp.barrier_wait_s", "s");
    ("dmtcp.drained_kb", "kB");
    ("dmtcp.restart.files_s", "s");
    ("dmtcp.restart.mem_s", "s");
    ("dmtcp.restart.reconnect_s", "s");
    ("dmtcp.restart.refill_s", "s");
    ("dmtcp.ckpt_host_frac", "ratio");
    ("dmtcp.restart_host_frac", "ratio");
    ("dmtcp.delta_frac", "ratio");
    ("rst.absent_pages", "count");
    ("rst.prefetch_pages", "count");
    ("mem.dirty_frac", "ratio");
    ("compress.blocks_deflate", "count");
    ("compress.blocks_stored", "count");
    ("compress.blocks_rle", "count");
    ("compress.ratio", "ratio");
    ("compress.pack_host_mb_s", "MB/s");
    ("compress.unpack_host_mb_s", "MB/s");
    ("mtcp.raw_mb", "MB");
    ("mtcp.encode_host_mb_s", "MB/s");
    ("mtcp.decode_host_mb_s", "MB/s");
    ("storage.write_mb", "MB");
    ("storage.read_mb", "MB");
    ("storage.write_busy_s", "s");
    ("storage.read_busy_s", "s");
    ("store.write_mb", "MB");
    ("store.dedup_frac", "ratio");
    ("store.compactions", "count");
    ("sched.preemptions", "count");
    ("sched.restarts", "count");
    ("sched.relaunches", "count");
    ("sched.ops_inflight_peak", "count");
    ("host.setup_frac", "ratio");
    ("host.verify_frac", "ratio");
    ("trace.phase_cover_frac", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

(* One pass as the runner saw it. *)
type pass = {
  outcome : Workloads.outcome;
  traced : Probe.agg option;
  total_s : float;  (* host seconds of the whole pass: set-up, schedule, verification *)
}

let medians f passes = Probe.median (List.map f passes)

(* Host throughput of the codecs on images the workload wrote: each
   replay repeats until [min_s] host seconds have passed, then reports
   raw MB per host second. *)
let replays ~min_s blobs =
  if blobs = [] then [ 0.; 0.; 0.; 0. ]
  else
    let raws = List.map Compress.Container.unpack blobs in
    let raw_mb = List.fold_left (fun a r -> a +. float_of_int (String.length r)) 0. raws /. 1e6 in
    let rate f =
      let t0 = Probe.host_now () in
      let rec go n =
        f ();
        let dt = Probe.host_now () -. t0 in
        if dt < min_s then go (n + 1) else float_of_int n *. raw_mb /. dt
      in
      go 1
    in
    let imgs = List.map Mtcp.Image.decode blobs in
    let plain = List.map (Mtcp.Image.encode ~algo:Compress.Algo.Null) imgs in
    [
      rate (fun () ->
          List.iter2 (fun r b -> ignore (Compress.Container.pack ~algo:(Compress.Container.algo_of b) r)) raws blobs);
      rate (fun () -> List.iter (fun b -> ignore (Compress.Container.unpack b)) blobs);
      rate (fun () -> List.iter (fun i -> ignore (Mtcp.Image.encode ~algo:Compress.Algo.Null i)) imgs);
      rate (fun () -> List.iter (fun s -> ignore (Mtcp.Image.decode s)) plain);
    ]

let end_to_end_values passes ~setups ~heap_words =
  let first = (List.hd passes).outcome in
  let heap_mb = float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6 in
  List.map (fun n -> (n, List.assoc n first.Workloads.modeled)) modeled_names
  @ [
      ("wall_s", medians (fun p -> p.outcome.Workloads.wall_s) passes);
      ("setup_s", Probe.median setups);
      ("peak_heap_mb", heap_mb);
    ]

let per_layer_values passes ~replayed =
  let plain = List.filter (fun p -> p.traced = None) passes in
  let traced = List.filter (fun p -> p.traced <> None) passes in
  let first = (List.hd passes).outcome in
  let agg = Option.get (List.hd traced).traced in
  let untraced_wall = medians (fun p -> p.outcome.Workloads.wall_s) plain in
  let traced_wall = medians (fun p -> p.outcome.Workloads.wall_s) traced in
  let frac name = medians (fun p -> Probe.phase p.outcome.Workloads.phases name /. p.total_s) traced in
  let cover =
    medians
      (fun p -> Hashtbl.fold (fun _ s a -> a +. s) p.outcome.Workloads.phases 0. /. p.total_s)
      traced
  in
  let stage name = Probe.span_median agg name in
  let pack, unpack, encode, decode =
    match replayed with [ a; b; c; d ] -> (a, b, c, d) | _ -> (0., 0., 0., 0.)
  in
  let events = List.assoc "sim.events" first.Workloads.layer in
  let computed =
    [
      ("sim.events_per_host_s", if untraced_wall > 0. then events /. untraced_wall else 0.);
      ("sim.compute_host_frac", frac "compute");
      ("dmtcp.ckpt.suspend_s", stage "ckpt/suspend");
      ("dmtcp.ckpt.elect_s", stage "ckpt/elect");
      ("dmtcp.ckpt.drain_s", stage "ckpt/drain");
      ("dmtcp.ckpt.write_s", stage "ckpt/write");
      ("dmtcp.ckpt.refill_s", stage "ckpt/refill");
      ("dmtcp.barrier_wait_s", Probe.median agg.Probe.barrier_waits);
      ("dmtcp.restart.files_s", stage "restart/files");
      ("dmtcp.restart.mem_s", stage "restart/mem");
      ("dmtcp.restart.reconnect_s", stage "restart/reconnect");
      ("dmtcp.restart.refill_s", stage "restart/refill");
      ("dmtcp.ckpt_host_frac", frac "ckpt");
      ("dmtcp.restart_host_frac", frac "restart");
      ("compress.pack_host_mb_s", pack);
      ("compress.unpack_host_mb_s", unpack);
      ("mtcp.encode_host_mb_s", encode);
      ("mtcp.decode_host_mb_s", decode);
      ("host.setup_frac", frac "setup");
      ("host.verify_frac", frac "verify");
      ("trace.phase_cover_frac", cover);
      ("trace.overhead_frac", if untraced_wall > 0. then (traced_wall /. untraced_wall) -. 1. else 0.);
    ]
  in
  List.map
    (fun (n, _) ->
      match List.assoc_opt n computed with
      | Some v -> (n, v)
      | None -> (n, List.assoc n first.Workloads.layer))
    per_layer

let metrics_json catalogue values =
  Json.Obj
    (List.map
       (fun (n, unit) -> (n, Json.Obj [ ("value", Json.Num (List.assoc n values)); ("unit", Json.Str unit) ]))
       catalogue)
