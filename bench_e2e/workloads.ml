(* The benchmark's four workloads.  Each pass builds a fresh cluster from
   the seed, reaches steady state (set-up), runs a fixed closed-loop
   schedule (the next operation is issued only when the previous one has
   completed), and checks the program's verdicts.  A pass touches the
   stack through its public interfaces only. *)

type scale = Full | Smoke

(* Negative control for the smoke test: a wrong expected verdict must
   be reported as a failed run. *)
let corrupt_expected = ref false

type outcome = {
  setup_s : float;  (* host: Cluster.create until steady state *)
  wall_s : float;  (* host: the schedule, set-up and verification excluded *)
  modeled : (string * float) list;  (* end-to-end, simulated clock *)
  layer : (string * float) list;  (* per-layer values read without the trace *)
  detail : (string * float) list;  (* workload-specific extras (--json only) *)
  phases : Probe.phases;  (* host seconds per bench-side phase *)
  attempted : int;
  failed : int;
  errors : string list;
  images : unit -> string list;  (* full MTCP blobs this pass wrote, for replays *)
}

let now cl = Simos.Cluster.now cl
let run_for cl dt = Sim.Engine.run ~until:(now cl +. dt) (Simos.Cluster.engine cl)

(* Run in [slice]-second steps until [ready ()]; the simulated time at
   which it first held.  Bounded, so a stuck computation fails instead of
   hanging. *)
let run_until cl ~slice ~timeout ~what ready =
  let deadline = now cl +. timeout in
  let rec go () =
    if ready () then now cl
    else if now cl >= deadline then failwith (what ^ ": timed out")
    else begin
      run_for cl slice;
      go ()
    end
  in
  go ()

(* Steps the engine one event at a time until [ready ()], so the time it
   first holds is exact; for the sparse event streams around forked
   writes. *)
let step_until cl ~timeout ~what ready =
  let eng = Simos.Cluster.engine cl in
  let deadline = now cl +. timeout in
  let rec go () =
    if ready () then now cl
    else if now cl >= deadline || not (Sim.Engine.step eng) then failwith (what ^ ": timed out")
    else go ()
  in
  go ()

let read_file cl ~node path =
  Option.map Simos.Vfs.read_all (Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cl node)) path)

let mb bytes = bytes /. 1e6
let ratio a b = if b > 0. then a /. b else 0.

(* Inter-checkpoint compute intervals: uniform on 0.2-0.4 simulated s,
   drawn one per stratum and shuffled by the seed.  Every seed then
   computes for the same total time within 0.2/n s, so cross-seed
   spread in the end-to-end numbers comes from the system, not from how
   much work a seed happened to draw. *)
let intervals ~seed n =
  let rng = Util.Rng.create (Int64.of_int ((seed * 7919) + 17)) in
  let a =
    Array.init n (fun i -> 0.2 +. (0.2 *. (float_of_int i +. Util.Rng.float rng 1.0) /. float_of_int n))
  in
  Util.Rng.shuffle rng a;
  a

(* Per-layer counters: deltas of the registry over the schedule, except
   the cancelled share, which needs the events scheduled during set-up
   (the registry is reset at the start of every pass). *)
let counter_layer ~before ~after =
  let d = Probe.delta ~before ~after in
  let total n = Probe.delta ~before:[] ~after n in
  [
    ("sim.events", d "sim.dispatches");
    ("sim.cancelled_frac", 1. -. ratio (total "sim.dispatches") (total "sim.scheduled"));
    ("kernel.spawns", d "kernel.spawns");
    ("kernel.fd_opens", d "kernel.fd_opens");
    ("kernel.page_faults", d "kernel.page_faults");
    ("net.segments", d "net.segments_sent");
    ("net.mb", mb (d "net.bytes_sent"));
    ("net.refill_kb", d "net.refill_bytes" /. 1e3);
    ("dmtcp.drained_kb", d "dmtcp.drained_bytes" /. 1e3);
    ("rst.absent_pages", d "rst.lazy_absent_pages");
    ("rst.prefetch_pages", d "rst.prefetch_pages");
    ("compress.blocks_deflate", d "compress.blocks.deflate");
    ("compress.blocks_stored", d "compress.blocks.stored");
    ("compress.blocks_rle", d "compress.blocks.rle");
    ("storage.write_mb", mb (d "storage.write_bytes"));
    ("storage.read_mb", mb (d "storage.read_bytes"));
    ("storage.write_busy_s", d "storage.write_seconds");
    ("storage.read_busy_s", d "storage.read_seconds");
    ("store.write_mb", mb (d "store.bytes_written"));
    ( "store.dedup_frac",
      ratio (d "store.bytes_deduped") (d "store.bytes_written" +. d "store.bytes_deduped") );
    ("store.compactions", d "store.compactions");
  ]

(* Up to eight full (non-delta) MTCP blobs the pass wrote, for the codec
   replays: from the store's catalog, where delta chains keep their full
   bases, or else from the node file systems. *)
let written_blobs cl rt =
  let full bytes =
    match Dmtcp.Ckpt_image.decode bytes with
    | img when img.Dmtcp.Ckpt_image.delta_base = None -> Some img.Dmtcp.Ckpt_image.mtcp_blob
    | _ -> None
    | exception Dmtcp.Ckpt_image.Corrupt_image _ -> None
  in
  let blobs =
    match (Dmtcp.Runtime.store rt, Dmtcp.Runtime.last_completed_ckpt rt) with
    | Some st, _ ->
      List.filter (fun (m : Store.manifest) -> m.Store.m_base = None) (Store.manifests st)
      |> List.filteri (fun i _ -> i < 8)
      |> List.filter_map (fun (m : Store.manifest) -> Option.bind (Store.peek st ~name:m.Store.m_name) full)
    | None, Some info ->
      List.filter_map (fun (node, path) -> Option.bind (read_file cl ~node path) full) info.Dmtcp.Runtime.images
    | None, None -> []
  in
  List.filteri (fun i _ -> i < 8) blobs

(* ================================================================== *)
(* DMTCP workloads: compute -> checkpoint (x per_epoch) -> kill -> restart *)

type app = {
  launch : Dmtcp.Runtime.t -> unit;
  procs : int;  (* checkpointed processes once started *)
  verdicts : (int * string) list;  (* (node, path) written at exit *)
}

(* nodes have 4 cores, as in the paper's testbed *)
type dmtcp_cfg = {
  nodes : int;
  options : Dmtcp.Options.t;
  epochs : int;
  per_epoch : int;  (* checkpoints per epoch *)
  warmup : float;
  app : seed:int -> app;
  expected : seed:int -> string list;  (* the verdicts a correct run writes *)
}

let op_timeout = 120.

let dmtcp_setup cfg ~seed =
  let cl = Simos.Cluster.create ~seed:(Int64.of_int seed) ~cores_per_node:4 ~nodes:cfg.nodes () in
  let rt = Dmtcp.Api.install cl ~options:cfg.options () in
  let app = cfg.app ~seed in
  app.launch rt;
  ignore
    (run_until cl ~slice:0.01 ~timeout:60. ~what:"process start" (fun () ->
         List.length (Dmtcp.Runtime.hijacked_processes rt) >= app.procs));
  run_for cl cfg.warmup;
  (cl, rt, app)

let read_verdicts cl app =
  List.map (fun (node, path) -> Option.value ~default:"<none>" (read_file cl ~node path)) app.verdicts

let await_verdicts cl app =
  run_until cl ~slice:1e-3 ~timeout:600. ~what:"completion" (fun () ->
      List.for_all (fun (node, path) -> read_file cl ~node path <> None) app.verdicts)

(* An uncheckpointed run of the same seed: what the verdicts must be when
   no state is lost or corrupted by checkpoint and restart. *)
let reference_verdicts cfg ~seed =
  let cl, _, app = dmtcp_setup cfg ~seed in
  ignore (await_verdicts cl app);
  read_verdicts cl app

let forked_pending rt =
  List.exists (fun (_, _, ps) -> ps.Dmtcp.Runtime.forked_pending) (Dmtcp.Runtime.hijacked_processes rt)

(* Forked-write durability.  In this code base a kill that lands while a
   forked write is still in flight leaves a restart script naming an
   absent image, and the restart then never completes; so the bench
   waits for durability before every kill. *)
let await_durable cl rt =
  step_until cl ~timeout:op_timeout ~what:"forked write" (fun () -> not (forked_pending rt))

(* Checked after every event of a forked checkpoint: the time the
   background write is first found gone after having been in flight. *)
let write_landing cl rt =
  let seen = ref false and landed = ref None in
  fun () ->
    if forked_pending rt then seen := true
    else if !seen && !landed = None then landed := Some (now cl);
    !landed

let dirty_frac rt =
  let dirty, total =
    List.fold_left
      (fun (d, t) (node, pid, _) ->
        match Dmtcp.Runtime.proc_of rt ~node ~pid with
        | Some p ->
          let sp = p.Simos.Kernel.space in
          (d + Mem.Address_space.dirty_pages sp, t + Mem.Address_space.total_pages sp)
        | None -> (d, t))
      (0, 0) (Dmtcp.Runtime.hijacked_processes rt)
  in
  ratio (float_of_int dirty) (float_of_int total)

let dmtcp_pass cfg ~seed ~expected =
  let ph = Probe.phases () in
  let t_setup = Probe.host_now () in
  let cl, rt, app = Probe.timed ph "setup" (fun () -> dmtcp_setup cfg ~seed) in
  let setup_s = Probe.host_now () -. t_setup in
  let ivs = intervals ~seed (cfg.epochs * cfg.per_epoch) in
  let ckpts = ref [] and durables = ref [] and restarts = ref [] and dirty = ref [] and sizes = ref [] in
  let ok_ops = ref 0 and errors = ref [] and last_resume = ref 0. in
  let planned = (cfg.epochs * cfg.per_epoch) + cfg.epochs in
  let before = Probe.counters () in
  let t0 = now cl in
  let h0 = Probe.host_now () in
  (* Completion is polled in 10 ms slices; the blackout itself comes from
     the coordinator's record, so the slice does not bound its
     resolution.  Forked checkpoints step event by event instead, to time
     the moment each background write lands. *)
  let forked = cfg.options.Dmtcp.Options.forked in
  let checkpoint () =
    Simos.Cluster.reset_storage cl;
    dirty := dirty_frac rt :: !dirty;
    Probe.timed ph "ckpt" (fun () ->
        let since = now cl in
        let landed = write_landing cl rt in
        Dmtcp.Api.checkpoint rt;
        let completed () =
          ignore (landed ());
          match Dmtcp.Runtime.last_completed_ckpt rt with
          | Some i -> i.Dmtcp.Runtime.started >= since && i.Dmtcp.Runtime.finished > i.Dmtcp.Runtime.started
          | None -> false
        in
        ignore
          (if forked then step_until cl ~timeout:op_timeout ~what:"checkpoint" completed
           else run_until cl ~slice:0.01 ~timeout:op_timeout ~what:"checkpoint" completed);
        let info = Option.get (Dmtcp.Runtime.last_completed_ckpt rt) in
        let finished = info.Dmtcp.Runtime.finished in
        let durable =
          if forked then begin
            ignore (await_durable cl rt);
            Option.fold ~none:finished ~some:(Float.max finished) (landed ())
          end
          else finished
        in
        ckpts := Dmtcp.Api.last_checkpoint_seconds rt :: !ckpts;
        durables := (durable -. info.Dmtcp.Runtime.started) :: !durables;
        sizes := Dmtcp.Api.last_checkpoint_bytes rt :: !sizes);
    incr ok_ops
  in
  let restart () =
    Probe.timed ph "restart" (fun () ->
        ignore (await_durable cl rt);
        let script = Dmtcp.Api.restart_script rt in
        Dmtcp.Api.kill_computation rt;
        Simos.Cluster.reset_storage cl;
        Dmtcp.Api.restart rt script;
        Dmtcp.Api.await_restart ~timeout:op_timeout rt;
        restarts := Dmtcp.Api.last_restart_seconds rt :: !restarts;
        last_resume := now cl);
    incr ok_ops
  in
  let t_done =
    try
      for e = 0 to cfg.epochs - 1 do
        for k = 0 to cfg.per_epoch - 1 do
          Probe.timed ph "compute" (fun () -> run_for cl ivs.((e * cfg.per_epoch) + k));
          checkpoint ()
        done;
        restart ()
      done;
      Some (Probe.timed ph "compute" (fun () -> await_verdicts cl app))
    with e ->
      errors := Printexc.to_string e :: !errors;
      None
  in
  let wall_s = Probe.host_now () -. h0 in
  let after = Probe.counters () in
  let verdict_ok =
    Probe.timed ph "verify" (fun () ->
        let got = read_verdicts cl app in
        if t_done <> None && got <> expected then
          errors :=
            Printf.sprintf "verdicts %S, expected %S" (String.concat "|" got) (String.concat "|" expected)
            :: !errors;
        got = expected)
  in
  let n = float_of_int (List.length !ckpts) in
  let raw = List.fold_left (fun a (_, u) -> a +. float_of_int u) 0. !sizes in
  let packed = List.fold_left (fun a (c, _) -> a +. float_of_int c) 0. !sizes in
  let d = Probe.delta ~before ~after in
  {
    setup_s;
    wall_s;
    modeled =
      [
        ("ckpt_s", Probe.mean !ckpts);
        ("durable_s", Probe.mean !durables);
        ("restart_s", Probe.mean !restarts);
        ("ckpt_write_mb", ratio (mb (d "storage.write_bytes")) n);
        ("makespan_s", match t_done with Some t -> t -. t0 | None -> 0.);
      ];
    layer =
      counter_layer ~before ~after
      @ [
          ("dmtcp.delta_frac", ratio (d "dmtcp.delta_ckpts") (n *. float_of_int app.procs));
          ("mem.dirty_frac", Probe.median !dirty);
          ("compress.ratio", ratio packed raw);
          ("mtcp.raw_mb", ratio (mb raw) n);
          ("sched.preemptions", 0.);
          ("sched.restarts", 0.);
          ("sched.relaunches", 0.);
          ("sched.ops_inflight_peak", 0.);
        ];
    detail =
      [
        ("ckpt_n", n);
        ("restart_n", float_of_int (List.length !restarts));
        (* simulated seconds the program ran after the last restart: the
           program inputs must leave it work to do there *)
        ("tail_s", match t_done with Some t -> t -. !last_resume | None -> 0.);
      ];
    phases = ph;
    attempted = planned;
    failed = planned - !ok_ops + (if verdict_ok || t_done = None then 0 else 1);
    errors = List.rev !errors;
    images = (fun () -> written_blobs cl rt);
  }

(* ---------------- mg-cluster ---------------- *)

let mg scale =
  (* [cycles] is the MG input: enough V-cycles to outlast the schedule
     by a few tenths of a simulated second *)
  let ranks, nodes, epochs, cycles = match scale with Full -> (32, 8, 3, 1530) | Smoke -> (4, 2, 1, 800) in
  let rpn = (ranks + nodes - 1) / nodes in
  let app ~seed:_ =
    {
      launch =
        (fun rt ->
          ignore
            (Dmtcp.Api.launch rt ~node:0 ~prog:"mpi:mpirun"
               ~argv:[ "openmpi"; string_of_int ranks; string_of_int rpn; "6100"; "nas:mg"; string_of_int cycles ]));
      (* ranks + one orted per node + mpirun *)
      procs = ranks + nodes + 1;
      verdicts = [ (0, "/result/mg-6100") ];
    }
  in
  Apps.Registry.register_all ();
  let rec cfg =
    {
      nodes;
      options = Dmtcp.Options.default;
      epochs;
      per_epoch = 1;
      warmup = 0.1;
      app;
      expected = (fun ~seed -> reference_verdicts cfg ~seed);
    }
  in
  cfg

(* ---------------- pages-full / pages-incr ---------------- *)

let hot_pages = 1
let period = 10e-3

(* Synthetic bulk pages per process: 40, 44, 48, 52 by slot on each
   node, each plus a seeded 0-3.  Every node carries the same load within
   a few pages, while the largest process, which the slowest barrier
   waits for, changes with the seed. *)
let bulk_pages ~seed ~procs ~per_node =
  let rng = Util.Rng.create (Int64.of_int ((seed * 31337) + 5)) in
  Array.init procs (fun r -> 40 + (4 * (r mod per_node)) + Util.Rng.int rng 4)

let pages ~incremental scale =
  (* [iters] is the program input: enough iterations to outlast the
     schedule; forked writes let the program run on while they land *)
  let nodes, per_node, heap_pages, epochs, per_epoch, iters =
    match scale with
    | Full -> (2, 4, 8, 3, 3, if incremental then 390 else 330)
    | Smoke -> (2, 1, 2, 1, 2, 100)
  in
  let procs = nodes * per_node in
  let out r = Printf.sprintf "/result/pages-%d" r in
  let app ~seed =
    let bulk = bulk_pages ~seed ~procs ~per_node in
    {
      launch =
        (fun rt ->
          for r = 0 to procs - 1 do
            ignore
              (Dmtcp.Api.launch rt ~node:(r / per_node) ~prog:Pages_prog.name
                 ~argv:
                   (Pages_prog.argv ~pages:heap_pages ~hot:hot_pages ~syn:bulk.(r) ~seed:((seed * 64) + r)
                      ~period ~iters ~out:(out r)))
          done);
      procs;
      verdicts = List.init procs (fun r -> (r / per_node, out r));
    }
  in
  let options =
    if incremental then
      {
        Dmtcp.Options.default with
        Dmtcp.Options.incremental = true;
        forked = true;
        store = true;
        store_replicas = 2;
        lazy_restart = true;
      }
    else Dmtcp.Options.default
  in
  Pages_prog.register ();
  {
    nodes;
    options;
    epochs;
    per_epoch;
    warmup = 0.05;
    app;
    expected =
      (fun ~seed ->
        List.init procs (fun r ->
            Pages_prog.verdict ~seed:((seed * 64) + r) ~pages:heap_pages ~hot:hot_pages ~iters));
  }

(* ================================================================== *)
(* sched-1k: the batch scheduler under preemption, node loss and drain,
   mirroring the scheduler's own 1000-job chaos scenario *)

(* [waves] preemptor batches arrive [every] simulated seconds from
   [preempt_at]; at about 20 restarts a wave, the mean restart time is
   steady across seeds. *)
type sched_cfg = {
  jobs : int;
  s_nodes : int;
  preempt_at : float;
  waves : int;
  every : float;
  fail_at : float;
  drain_at : float;
}

let sched_cfg = function
  | Full -> { jobs = 1000; s_nodes = 64; preempt_at = 2.0; waves = 12; every = 0.75; fail_at = 4.0; drain_at = 6.0 }
  | Smoke -> { jobs = 40; s_nodes = 8; preempt_at = 0.5; waves = 1; every = 1.; fail_at = 1.0; drain_at = 1.5 }

let base_port = 7800

(* A job: [target] 1 ms compute steps of bench:pages with [bulk]
   synthetic pages and no real ones, so each job's images have a seeded
   modeled size yet cost the host no compression. *)
let job ~name ~nodes ~priority ~target ~bulk ~seed =
  let out i = Printf.sprintf "/data/%s_%d" name i in
  {
    Sched.Job.sp_name = name;
    sp_nodes = nodes;
    sp_priority = priority;
    sp_est_runtime = float_of_int target *. 1e-3;
    sp_procs = nodes;
    sp_launch =
      (fun a ->
        List.init nodes (fun i ->
            ( a.(i),
              Pages_prog.name,
              Pages_prog.argv ~pages:0 ~hot:0 ~syn:bulk ~seed ~period:1e-3 ~iters:target ~out:(out i) )));
    sp_outputs = (fun a -> List.init nodes (fun i -> (a.(i), out i)));
  }

(* a node hosting a running job: the first by job id, its last slot *)
let victim_node sched =
  List.find_map
    (fun (j : Sched.Job.t) ->
      match (j.Sched.Job.phase, j.Sched.Job.alloc) with
      | Sched.Job.Running, Some a -> Some a.(Array.length a - 1)
      | _ -> None)
    (Sched.Scheduler.jobs sched)

(* Submits the seeded job mix and arms the three faults; returns each
   job's target step count. *)
let sched_setup c ~seed =
  Pages_prog.register ();
  let rng = Util.Rng.create (Int64.of_int ((seed * 104729) + 3)) in
  let options =
    { Dmtcp.Options.default with Dmtcp.Options.store = true; store_replicas = 2; keep_generations = 2 }
  in
  let cl = Simos.Cluster.create ~seed:(Int64.of_int seed) ~cores_per_node:2 ~nodes:c.s_nodes () in
  let rt = Dmtcp.Api.install cl ~options () in
  let sched = Sched.Scheduler.create ~base_port ~ckpt_interval:0.25 cl rt in
  let eng = Simos.Cluster.engine cl in
  let targets = Hashtbl.create c.jobs in
  let submit ~name ~nodes ~priority ~target =
    let bulk = Util.Rng.int_in rng 1 4 in
    let j = Sched.Scheduler.submit sched (job ~name ~nodes ~priority ~target ~bulk ~seed) in
    Hashtbl.replace targets j.Sched.Job.id target
  in
  (* seeded durations, 0.6-0.96 simulated s *)
  for i = 0 to c.jobs - 1 do
    submit ~name:(Printf.sprintf "j%04d" i) ~nodes:1 ~priority:1 ~target:(Util.Rng.int_in rng 600 960)
  done;
  (* seeded preemptor batches: each job wants an eighth of the cluster,
     more than finishes free in a tick, so running work must be
     preempted *)
  for w = 0 to c.waves - 1 do
    let batch = List.init 4 (fun _ -> Util.Rng.int_in rng 700 900) in
    ignore
      (Sim.Engine.schedule_at eng
         ~time:(c.preempt_at +. (float_of_int w *. c.every))
         (fun () ->
           List.iteri
             (fun i target ->
               submit ~name:(Printf.sprintf "pre%d.%d" w i) ~nodes:(max 2 (c.s_nodes / 8)) ~priority:5 ~target)
             batch))
  done;
  ignore
    (Sim.Engine.schedule_at eng ~time:c.fail_at (fun () ->
         Option.iter (Sched.Scheduler.fail_node sched) (victim_node sched)));
  ignore
    (Sim.Engine.schedule_at eng ~time:c.drain_at (fun () ->
         Option.iter (Sched.Scheduler.drain sched) (victim_node sched)));
  (cl, rt, sched, targets)

let sched_pass c ~seed =
  let ph = Probe.phases () in
  let t_setup = Probe.host_now () in
  let cl, rt, sched, targets = Probe.timed ph "setup" (fun () -> sched_setup c ~seed) in
  let setup_s = Probe.host_now () -. t_setup in
  let before = Probe.counters () in
  let h0 = Probe.host_now () in
  (* Driven in 50 ms slices, shorter than the checkpoint interval, so the
     bench reads every job's checkpoint and restart records as they
     complete (each domain keeps only its latest). *)
  let ckpts = Hashtbl.create 4096 and restarts = Hashtbl.create 64 in
  let sample () =
    List.iter
      (fun (j : Sched.Job.t) ->
        if not (Sched.Job.finished j.Sched.Job.phase) || j.Sched.Job.done_at >= now cl -. 0.05 then begin
          let port = base_port + j.Sched.Job.id in
          Option.iter
            (fun (i : Dmtcp.Runtime.op_info) ->
              Hashtbl.replace ckpts (port, i.Dmtcp.Runtime.started) i.Dmtcp.Runtime.finished)
            (Dmtcp.Runtime.last_completed_ckpt ~port rt);
          let r = Dmtcp.Runtime.restart_info ~port rt in
          if r.Dmtcp.Runtime.nprocs > 0 && r.Dmtcp.Runtime.nprocs >= Dmtcp.Runtime.restart_expected ~port rt
          then Hashtbl.replace restarts (port, r.Dmtcp.Runtime.started) r.Dmtcp.Runtime.finished
        end)
      (Sched.Scheduler.jobs sched)
  in
  let unfinished =
    Probe.timed ph "compute" (fun () ->
        let rec go () =
          let left = Sched.Scheduler.run ~until:(now cl +. 0.05) sched in
          sample ();
          if left > 0 && now cl < 3600. then go () else left
        in
        go ())
  in
  let wall_s = Probe.host_now () -. h0 in
  let after = Probe.counters () in
  let jobs = Sched.Scheduler.jobs sched in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let bad_jobs =
    Probe.timed ph "verify" (fun () ->
        if unfinished > 0 then fail "%d job(s) unfinished" unfinished;
        List.iter (fail "sched invariant: %s") (Sched.Scheduler.violations sched);
        if Sched.Scheduler.preemptions sched < 1 then fail "no preemption happened";
        if Sched.Scheduler.node_failures sched < 1 then fail "node failure never injected";
        if Sched.Scheduler.drains sched < 1 then fail "drain never injected";
        if Sched.Scheduler.restarts sched < 1 then fail "no job restarted from a checkpoint";
        (* the verdict carries the job's step count: a lost or repeated
           step after restart changes it *)
        List.length
          (List.filter
             (fun (j : Sched.Job.t) ->
               let target = Hashtbl.find targets j.Sched.Job.id in
               let iters = if !corrupt_expected then target + 1 else target in
               let want = Pages_prog.verdict ~seed ~pages:0 ~hot:0 ~iters in
               let ok =
                 j.Sched.Job.phase = Sched.Job.Done
                 && j.Sched.Job.outputs <> []
                 && List.for_all (fun (_, v) -> v = want) j.Sched.Job.outputs
               in
               if not ok then
                 fail "job %d (%s) ended %s" j.Sched.Job.id j.Sched.Job.spec.Sched.Job.sp_name
                   (Sched.Job.phase_name j.Sched.Job.phase);
               not ok)
             jobs))
  in
  let durations tbl = Hashtbl.fold (fun (_, started) finished acc -> (finished -. started) :: acc) tbl [] in
  let ports = List.map (fun (j : Sched.Job.t) -> base_port + j.Sched.Job.id) jobs in
  let rounds = float_of_int (List.fold_left (fun a port -> a + Dmtcp.Runtime.ckpt_rounds ~port rt) 0 ports) in
  let last_ckpts = List.filter_map (fun port -> Dmtcp.Runtime.last_completed_ckpt ~port rt) ports in
  let sum f = List.fold_left (fun a i -> a +. float_of_int (f i)) 0. last_ckpts in
  let raw = sum (fun i -> i.Dmtcp.Runtime.total_uncompressed) in
  let packed = sum (fun i -> i.Dmtcp.Runtime.total_compressed) in
  let d = Probe.delta ~before ~after in
  let since_submit f = List.map (fun (j : Sched.Job.t) -> f j -. j.Sched.Job.submitted) jobs in
  let turnaround = since_submit (fun j -> j.Sched.Job.done_at) in
  let queue_wait = since_submit (fun j -> j.Sched.Job.placed_at) in
  let count f = float_of_int (f sched) in
  {
    setup_s;
    wall_s;
    modeled =
      [
        ("ckpt_s", Probe.mean (durations ckpts));
        (* interval checkpoints are not forked: durable when the blackout ends *)
        ("durable_s", Probe.mean (durations ckpts));
        ("restart_s", Probe.mean (durations restarts));
        ("ckpt_write_mb", ratio (mb (d "storage.write_bytes")) rounds);
        ("makespan_s", Sched.Scheduler.makespan sched);
      ];
    layer =
      counter_layer ~before ~after
      @ [
          ("dmtcp.delta_frac", ratio (d "dmtcp.delta_ckpts") rounds);
          ("mem.dirty_frac", 0.);
          ("compress.ratio", ratio packed raw);
          ("mtcp.raw_mb", ratio (mb raw) (float_of_int (List.length last_ckpts)));
          ("sched.preemptions", count Sched.Scheduler.preemptions);
          ("sched.restarts", count Sched.Scheduler.restarts);
          ("sched.relaunches", count Sched.Scheduler.relaunches);
          ("sched.ops_inflight_peak", count Sched.Scheduler.peak_ops_inflight);
        ];
    detail =
      [
        ("jobs", float_of_int (List.length jobs));
        ("ckpt_n", float_of_int (Hashtbl.length ckpts));
        ("restart_n", float_of_int (Hashtbl.length restarts));
        ("ckpt_s.p50", Probe.quantile 0.5 (durations ckpts));
        ("ckpt_s.p99", Probe.quantile 0.99 (durations ckpts));
        ("restart_s.p50", Probe.quantile 0.5 (durations restarts));
        ("turnaround_s.p50", Probe.quantile 0.5 turnaround);
        ("turnaround_s.p99", Probe.quantile 0.99 turnaround);
        ("sched.queue_wait_s.p50", Probe.quantile 0.5 queue_wait);
        ("sched.queue_wait_s.p99", Probe.quantile 0.99 queue_wait);
        ("lost_work_s", Sched.Scheduler.total_lost_work sched);
      ];
    phases = ph;
    attempted = List.length jobs;
    failed = min (List.length jobs) (max bad_jobs (if !errors = [] then 0 else 1));
    errors = List.rev !errors;
    images = (fun () -> written_blobs cl rt);
  }

(* ================================================================== *)

type t = {
  name : string;
  prepare : seed:int -> unit;  (* expected verdicts, computed before timing *)
  setup : seed:int -> unit;  (* set-up alone, for extra set-up samples *)
  pass : seed:int -> outcome;
}

let dmtcp_workload name cfg =
  let expected = Hashtbl.create 2 in
  let expected_for ~seed =
    match Hashtbl.find_opt expected seed with
    | Some e -> e
    | None ->
      let e = cfg.expected ~seed in
      let e = if !corrupt_expected then List.map (fun v -> v ^ "?") e else e in
      Hashtbl.replace expected seed e;
      e
  in
  {
    name;
    prepare = (fun ~seed -> ignore (expected_for ~seed));
    setup = (fun ~seed -> ignore (dmtcp_setup cfg ~seed));
    pass = (fun ~seed -> dmtcp_pass cfg ~seed ~expected:(expected_for ~seed));
  }

let find scale = function
  | "mg-cluster" -> Some (dmtcp_workload "mg-cluster" (mg scale))
  | "pages-full" -> Some (dmtcp_workload "pages-full" (pages ~incremental:false scale))
  | "pages-incr" -> Some (dmtcp_workload "pages-incr" (pages ~incremental:true scale))
  | "sched-1k" ->
    let c = sched_cfg scale in
    Some
      {
        name = "sched-1k";
        prepare = (fun ~seed:_ -> ());
        setup = (fun ~seed -> ignore (sched_setup c ~seed));
        pass = (fun ~seed -> sched_pass c ~seed);
      }
  | _ -> None

let names = [ "mg-cluster"; "pages-full"; "pages-incr"; "sched-1k" ]
