(* Deterministic ratio records: each design payoff the evaluation
   claims, as an (in, out) pair in modeled bytes, simulated milliseconds
   or operations, with the bound its out/in ratio must hold.  Nothing
   here reads the host clock, so two runs print identical lines and CI
   pins them by digest (bin/ci_digests.md5); host time is measured by
   bench_e2e. *)

type record = {
  name : string;
  unit : string;  (** what both values count: bytes, ms (simulated) or ops *)
  v_in : int;
  v_out : int;
  bound : (float * string) option;  (** out/in must not exceed the float; the string says why *)
}

let ms s = int_of_float (Float.round (s *. 1000.))
let bytes ?bound name a b = { name; unit = "bytes"; v_in = a; v_out = b; bound }
let millis ?bound name a b = { name; unit = "ms"; v_in = ms a; v_out = ms b; bound }
let ratio r = float_of_int r.v_out /. float_of_int r.v_in
let holds r = match r.bound with None -> true | Some (b, _) -> ratio r <= b

let line r =
  let shape =
    Printf.sprintf "%-42s %10d -> %9d %-5s  ratio %.6f" r.name r.v_in r.v_out r.unit (ratio r)
  in
  match r.bound with
  | None -> shape
  | Some (b, _) when holds r -> Printf.sprintf "%s <= %.3f ok" shape b
  | Some (b, msg) -> Printf.sprintf "%s > %.3f FAILED: %s" shape b msg

(* ------------------------------------------------------------------ *)
(* Compression shape: output sizes are a property of the encoder *)

let codec_records () =
  let text_1mb =
    String.concat ""
      (List.init 4096 (fun i ->
           Printf.sprintf "log line %d: the quick brown fox %d\n" i (i mod 97)))
  in
  let random_1mb = Bytes.unsafe_to_string (Util.Rng.bytes (Util.Rng.create 42L) 1_000_000) in
  let rand64k = String.sub random_1mb 0 65536 in
  let zeros = String.make 1_000_000 '\000' in
  let pack algo s = String.length (Compress.Container.pack ~algo s) in
  let half = (0.5, "text must compress to half or better") in
  let one_pct = (1.01, "random must expand by at most 1%") in
  [
    bytes "deflate-raw-text-1MB" ~bound:half (String.length text_1mb)
      (String.length (Compress.Deflate.compress text_1mb));
    bytes "deflate-raw-random-64KB" ~bound:one_pct 65536
      (String.length (Compress.Deflate.compress rand64k));
    bytes "container-deflate-text-1MB" ~bound:half (String.length text_1mb)
      (pack Compress.Algo.Deflate text_1mb);
    bytes "container-deflate-random-64KB" ~bound:one_pct 65536 (pack Compress.Algo.Deflate rand64k);
    bytes "container-rle-zeros-1MB" 1_000_000 (pack Compress.Algo.Rle zeros);
    bytes "container-null-random-64KB" 65536 (pack Compress.Algo.Null rand64k);
  ]

(* ------------------------------------------------------------------ *)
(* The content-addressed store: a 4 MiB frame-chunked checkpoint image
   (16 frames of 256 KiB) built by hand, on four local disks *)

let disk_store ~replicas =
  let eng = Sim.Engine.create () in
  let targets =
    Array.init 4 (fun i ->
        let t = Storage.Target.local_disk eng () in
        Storage.Target.set_node t i;
        t)
  in
  (eng, Store.create ~replicas ~engine:eng ~targets ())

(* [dirty] overwrites frame 5 with one byte value *)
let frame_image ~hostid ~pid ~generation ?dirty () =
  let n = 16 * 256 * 1024 in
  let b =
    Bytes.init n (fun i -> Char.chr (((i * 131) + ((i lsr 8) * 17) + ((i lsr 16) * 211)) land 0xff))
  in
  Option.iter (fun c -> Bytes.fill b (5 * 256 * 1024) (256 * 1024) c) dirty;
  Dmtcp.Ckpt_image.encode
    {
      Dmtcp.Ckpt_image.upid = Dmtcp.Upid.make ~hostid ~pid ~generation;
      vpid = pid;
      parent_vpid = 0;
      program = "p:bench";
      fds = [];
      ptys = [];
      algo = Compress.Algo.Null;
      sizes = { Mtcp.Image.uncompressed = n; compressed = n; zero_bytes = 0 };
      mtcp_blob = Compress.Container.pack ~algo:Compress.Algo.Null (Bytes.to_string b);
      delta_base = None;
    }

let put store ~lineage ~generation ~name image =
  ignore
    (Store.put store ~node:0 ~lineage ~generation ~name ~program:"p:bench"
       ~sim_bytes:(String.length image) ~chunks:(Dmtcp.Ckpt_image.chunk image))

(* Dedup: generation 1 dirties one frame of 16, so it ships only that
   frame; generation 0 ships the whole image *)
let store_records () =
  let _, store = disk_store ~replicas:2 in
  let put_gen g =
    let dirty = if g > 0 then Some (Char.chr (g land 0xff)) else None in
    let image = frame_image ~hostid:2 ~pid:41 ~generation:g ?dirty () in
    put store ~lineage:"2-41" ~generation:g ~name:(Printf.sprintf "img-g%d" g) image;
    String.length image
  in
  let full = put_gen 0 in
  let s0 = Store.stats store in
  ignore (put_gen 1);
  let s1 = Store.stats store in
  [
    bytes "store.gen0-full-write"
      ~bound:(1.01, "first generation ships at most the image plus catalog overhead") full
      s0.Store.bytes_written;
    bytes "store.gen1-dedup-dirty-1of16"
      ~bound:(0.125, "a 1-of-16-dirty generation must dedup to an eighth of the image or less")
      full
      (s1.Store.bytes_written - s0.Store.bytes_written);
  ]

(* Striped fetch: the modeled delay of fetching the image back, every
   block queued on one disk (one replica) or striped across the
   least-loaded surviving replica *)
let striped_fetch_delay ~replicas =
  let eng, store = disk_store ~replicas in
  put store ~lineage:"3-51" ~generation:0 ~name:"img-stripe"
    (frame_image ~hostid:3 ~pid:51 ~generation:0 ());
  (* let the write bookings drain so the fetch measures read striping,
     not queuing behind its own put *)
  Sim.Engine.run ~until:10.0 eng;
  match Store.fetch store ~node:0 ~name:"img-stripe" with
  | Some (_, delay) -> delay
  | None -> failwith "ratios: striped image vanished from the store"

(* ------------------------------------------------------------------ *)
(* Incremental checkpoints: a 64-page image with 4 pages (one 256 KiB
   window of 16) dirtied since the last checkpoint; the delta ships only
   the dirty frames.  Forked checkpointing's blackout against inline. *)

let delta_records () =
  let sp = Mem.Address_space.create () in
  let r =
    Mem.Address_space.map sp ~kind:Mem.Region.Heap ~perms:Mem.Region.rw
      ~bytes:(64 * Mem.Page.size) ()
  in
  (* materialize every page with incompressible data so the full encode
     ships real bytes (synthetic pages encode as compact seeds) *)
  let rng = Util.Rng.create 99L in
  for p = 0 to 63 do
    Mem.Address_space.write sp
      ~addr:(r.Mem.Region.start_addr + (p * Mem.Page.size))
      (Bytes.unsafe_to_string (Util.Rng.bytes rng Mem.Page.size))
  done;
  let img =
    {
      Mtcp.Image.cmdline = [ "bench" ];
      env = [];
      threads = [];
      space = sp;
      sigtable = [];
      pending_signals = [];
    }
  in
  let algo = Compress.Algo.Null in
  let full = Mtcp.Image.encode ~algo img in
  Mem.Address_space.clear_dirty sp;
  for p = 20 to 23 do
    Mem.Address_space.write sp ~addr:(r.Mem.Region.start_addr + (p * Mem.Page.size)) "dirty"
  done;
  let delta = Mtcp.Image.encode_delta ~algo img in
  let fk = Harness.Extras.forked_ablation () in
  [
    bytes "ckpt.delta-bytes-dirty-1of16"
      ~bound:
        ( 0.125,
          "a 1-of-16-dirty interval checkpoint must write an eighth of the full image or less" )
      (String.length full) (String.length delta);
    millis "ckpt.forked-vs-inline-blackout"
      ~bound:(0.25, "forked checkpointing must cut the blackout to a quarter or less")
      fk.Harness.Extras.plain_s fk.Harness.Extras.forked_s;
  ]

(* ------------------------------------------------------------------ *)
(* The batch scheduler (Chaos.Sched_scenario's canned plans) *)

(* the three-job preempt/fail/drain demo against its no-fault reference:
   what the fault path may cost, and checkpoint-bounded lost work *)
let sched_records () =
  let open Chaos.Sched_scenario in
  let reference = play ~faults:false demo in
  let faulted = play ~faults:true demo in
  let mk_ref = Sched.Scheduler.makespan reference.sched in
  let mk_f = Sched.Scheduler.makespan faulted.sched in
  let lost = Sched.Scheduler.total_lost_work faulted.sched in
  [
    millis "sched.makespan-faulted-vs-nofault"
      ~bound:(2.0, "a node loss plus a drain must at most double the canned scenario's makespan")
      mk_ref mk_f;
    millis "sched.lost-work-vs-makespan"
      ~bound:(0.25, "interval checkpoints must bound lost work to a quarter of the makespan")
      mk_f lost;
  ]

(* the 1000-small-job plan with the per-job op queues, and with
   [~max_inflight:1], the old fully-serialized scheduler *)
let sched1k_records () =
  let open Chaos.Sched_scenario in
  let concurrent = play ~faults:false (demo1k ()) in
  let serialized = play ~faults:false (demo1k ~max_inflight:1 ()) in
  let peak = Sched.Scheduler.peak_ops_inflight concurrent.sched in
  [
    (* ratio 8/peak <= 1 iff at least eight ops ran concurrently *)
    {
      name = "sched.ops-inflight";
      unit = "ops";
      v_in = peak;
      v_out = 8;
      bound = Some (1.0, "the op queues must run at least eight operations concurrently");
    };
    millis "sched.makespan-1000job"
      ~bound:(0.5, "concurrent ops must at least halve the serialized 1000-job makespan")
      (Sched.Scheduler.makespan serialized.sched)
      (Sched.Scheduler.makespan concurrent.sched);
  ]

(* ------------------------------------------------------------------ *)
(* Restart and plugin dispatch, on the p:dirty workload *)

(* one p:dirty checkpoint -> kill -> restart cycle: [pages] pages of real
   data, [dirty] of them rewritten every 2 ms, one simulated second of
   warm-up.  [out] is the program's result path; it is argv, so it
   enters the image.  Returns the checkpoint and restart blackouts. *)
let dirty_cycle ~options ~pages ~dirty ~out =
  let env = Harness.Common.setup ~nodes:1 ~options () in
  let rt = env.Harness.Common.rt in
  ignore
    (Dmtcp.Api.launch rt ~node:0 ~prog:"p:dirty"
       ~argv:[ string_of_int pages; string_of_int dirty; "20000"; out ]);
  Harness.Common.run_for env 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let ckpt = Dmtcp.Api.last_checkpoint_seconds rt in
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  let rst = Dmtcp.Api.last_restart_seconds rt in
  Harness.Common.teardown env;
  (ckpt, rst)

(* lazy restore resumes threads after the hot set only (the cold heap
   faults in on touch and drains through the prefetcher), so the
   restart blackout of 4096 pages, 256 dirty, must collapse; the same
   frame image fetched striped over two replicas against one *)
let restore_records () =
  let restart lazy_restart =
    snd
      (dirty_cycle
         ~options:{ Dmtcp.Options.default with Dmtcp.Options.lazy_restart }
         ~pages:4096 ~dirty:256 ~out:"/tmp/lz")
  in
  let eager = restart false in
  let lzy = restart true in
  let single = striped_fetch_delay ~replicas:1 in
  let striped = striped_fetch_delay ~replicas:2 in
  [
    millis "rst.lazy-vs-eager-blackout"
      ~bound:(0.25, "lazy restore must cut the restart blackout to a quarter or less")
      eager lzy;
    millis "store.striped-fetch-speedup"
      ~bound:(1. /. 1.5, "striped fetch over two replicas must run at least 1.5x faster than one")
      single striped;
  ]

(* the same cycle with every built-in plugin enabled vs none: handlers
   run in zero simulated time and this workload holds nothing the
   heuristics act on, so the checkpoint+restart blackout pins the
   dispatch machinery itself *)
let plugin_records () =
  let blackout plugins =
    let ckpt, rst =
      dirty_cycle
        ~options:{ Dmtcp.Options.default with Dmtcp.Options.plugins }
        ~pages:1024 ~dirty:64 ~out:"/tmp/po"
    in
    ckpt +. rst
  in
  let off = blackout [] in
  let all = blackout Dmtcp.Plugins.all_names in
  [
    millis "plugin.hook-overhead"
      ~bound:(1.05, "dispatching every built-in plugin hook must cost at most 5% blackout")
      off all;
  ]

(* ------------------------------------------------------------------ *)
(* The rank/proxy split: the bsp collective checkpointed mid-straggle on
   both transports.  The straggler is the allreduce root, so the other
   ranks' gather frames are parked en route to it: on the direct backend
   they sit in its TCP sockets and the drain copies them into the rank
   images; on the proxy backend they are proxy custody, so rank images
   carry no drained bytes and shed the per-neighbour socket specs. *)

let mpi_cycle ~kind ~extra =
  let env =
    Harness.Common.setup ~nodes:4 ~cores_per_node:2 ~options:(Harness.Common.options_for kind) ()
  in
  Harness.Common.start_workload env
    {
      Harness.Common.w_name = "bsp";
      w_kind = kind;
      w_prog = Apps.Stencil.bsp_prog;
      w_nprocs = 8;
      w_rpn = 2;
      w_extra = extra;
      w_warmup = 0.05;
    };
  Harness.Common.run_for env 0.2;
  Dmtcp.Api.checkpoint_now env.Harness.Common.rt;
  let entries = (Dmtcp.Api.restart_script env.Harness.Common.rt).Dmtcp.Restart_script.entries in
  (* encoded image bytes, not the modeled memory footprint: the fd specs
     and drained socket bytes the proxy split removes live in the
     encoding *)
  let image_bytes = Harness.Common.image_bytes env entries in
  let _estab, drained = Harness.Common.socket_stats env entries in
  Harness.Common.teardown env;
  (image_bytes, drained)

let mpi_records () =
  let bsp = [ "1"; "512"; "1"; "0.6" ] in
  let d_img, d_drained = mpi_cycle ~kind:Harness.Common.Direct ~extra:("direct" :: bsp) in
  let p_img, p_drained = mpi_cycle ~kind:Harness.Common.Proxy ~extra:bsp in
  [
    bytes "mpi.proxy-vs-direct-drain-bytes"
      ~bound:(0.0, "the proxy split must leave nothing to drain into rank images")
      d_drained p_drained;
    bytes "mpi.proxy-ckpt-image-bytes"
      ~bound:
        (0.999, "proxy-backend rank images must encode strictly smaller than direct-backend ones")
      d_img p_img;
  ]

(* ------------------------------------------------------------------ *)

let records () =
  List.concat_map
    (fun f -> f ())
    [
      codec_records;
      store_records;
      delta_records;
      sched_records;
      sched1k_records;
      restore_records;
      plugin_records;
      mpi_records;
    ]

(* print one line per record; exit 1 if any bound fails *)
let run () =
  let rs = records () in
  List.iter (fun r -> print_endline (line r)) rs;
  if not (List.for_all holds rs) then exit 1
