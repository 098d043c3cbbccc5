(* Benchmark harness.

   Two layers, as the repository's benchmarks serve two purposes:

   1. Reproduction benches — regenerate every table and figure of the
      paper's evaluation on the simulated cluster (the numbers are
      *simulated* seconds/bytes; see EXPERIMENTS.md for the side-by-side
      with the paper).  Controlled by BENCH_SCALE=quick|full (default
      quick so `dune exec bench/main.exe` terminates in minutes).

   2. Bechamel micro-benches — real wall-clock throughput of the hot
      substrate code: the from-scratch compressor, the checkpoint codec,
      the event queue, and the COW address space.  One Test.make per
      substrate, all in one executable. *)

let scale =
  match Sys.getenv_opt "BENCH_SCALE" with
  | Some "full" -> `Full
  | _ -> `Quick

let reps = match scale with `Full -> 5 | `Quick -> 2

(* BENCH_SECTIONS=micro|repro|all picks which layer runs (default all);
   CI's bench smoke runs just the micro layer, which finishes in
   seconds. *)
let sections =
  match Sys.getenv_opt "BENCH_SECTIONS" with
  | Some "micro" -> `Micro
  | Some "repro" -> `Repro
  | _ -> `All

let hr title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 72 '=') title (String.make 72 '=');
  flush stdout

(* ------------------------------------------------------------------ *)
(* 1. Reproduction benches *)

let run_reproduction () =
  hr "Figure 3: desktop applications (1 node, gzip on)";
  let apps =
    match scale with
    | `Full -> None
    | `Quick -> Some [ "bc"; "python"; "matlab"; "octave"; "tightvnc+twm"; "vim/cscope" ]
  in
  print_string (Harness.Fig3.to_text (Harness.Fig3.run ~reps ?apps ()));
  flush stdout;
  hr "Figure 4: distributed applications (32 nodes, 128 cores)";
  print_string (Harness.Fig4.to_text (Harness.Fig4.run ~reps ~scale ()));
  flush stdout;
  hr "Figure 5: ParGeant4 scaling (local disk vs SAN/NFS)";
  let sizes =
    match scale with `Full -> [ 16; 32; 48; 64; 80; 96; 112; 128 ] | `Quick -> [ 16; 32; 64 ]
  in
  print_string (Harness.Fig5.to_text (Harness.Fig5.run ~reps:(min reps 3) ~sizes ()));
  flush stdout;
  hr "Figure 6: checkpoint time vs total memory (no compression)";
  let totals, nprocs =
    match scale with
    | `Full -> ([ 4.; 12.; 20.; 28.; 36.; 44.; 52.; 60.; 68. ], 128)
    | `Quick -> ([ 4.; 20.; 36. ], 32)
  in
  print_string (Harness.Fig6.to_text (Harness.Fig6.run ~reps:2 ~totals_gb:totals ~nprocs ()));
  flush stdout;
  hr "Table 1: stage breakdown (NAS/MG under OpenMPI, 8 nodes)";
  let nprocs = match scale with `Full -> 32 | `Quick -> 16 in
  print_string (Harness.Table1.to_text (Harness.Table1.run ~reps ~nprocs ()));
  flush stdout;
  hr "Section 5.1: runCMS";
  print_string (Harness.Extras.runcms_text (Harness.Extras.runcms ~reps:2 ()));
  flush stdout;
  hr "Section 5.2: sync(2) cost";
  let nprocs = match scale with `Full -> 32 | `Quick -> 16 in
  print_string (Harness.Extras.sync_text (Harness.Extras.sync_cost ~reps:(min reps 3) ~nprocs ()));
  flush stdout;
  hr "Ablations";
  print_string (Harness.Extras.forked_text (Harness.Extras.forked_ablation ()));
  print_string (Harness.Extras.incremental_text (Harness.Extras.incremental_ablation ()));
  print_string (Harness.Extras.algo_text (Harness.Extras.algo_ablation ()));
  let sizes = match scale with `Full -> [ 16; 64; 128 ] | `Quick -> [ 8; 16; 32 ] in
  print_string (Harness.Extras.coordinator_text (Harness.Extras.coordinator_ablation ~sizes ()));
  let pairs = match scale with `Full -> [ 1; 4; 8 ] | `Quick -> [ 1; 4 ] in
  print_string (Harness.Extras.drain_text (Harness.Extras.drain_ablation ~pairs_list:pairs ()));
  flush stdout

(* ------------------------------------------------------------------ *)
(* 2. Bechamel micro-benches of the substrate *)

let text_1mb =
  String.concat ""
    (List.init 4096 (fun i -> Printf.sprintf "log line %d: the quick brown fox %d\n" i (i mod 97)))

let random_1mb = Bytes.unsafe_to_string (Util.Rng.bytes (Util.Rng.create 42L) 1_000_000)

(* The raw body of a job image like sched-1k's (argv, the DMTCP_*
   environment, regions of synthetic pages), cut to 400 bytes:
   Deflate's per-call fixed cost, beside the 1 MB kernel's per-byte
   cost. *)
let job_image_400b =
  let sp = Mem.Address_space.create () in
  for _ = 1 to 4 do
    ignore
      (Mem.Address_space.map sp ~kind:Mem.Region.Heap ~perms:Mem.Region.rw
         ~bytes:(4 * Mem.Page.size)
         ~content:(fun i -> Mem.Page.Synthetic { seed = Int64.of_int i; cls = Mem.Entropy.Numeric })
         ())
  done;
  let img =
    {
      Mtcp.Image.cmdline = [ "bench:pages"; "0"; "0"; "4"; "1"; "0.001"; "830"; "/data/j0000_0" ];
      env = Dmtcp.Options.to_env Dmtcp.Options.default;
      threads = [];
      space = sp;
      sigtable = [];
      pending_signals = [];
    }
  in
  let body = Compress.Container.unpack (Mtcp.Image.encode ~algo:Compress.Algo.Null img) in
  String.sub body 0 400

let micro_tests =
  let open Bechamel in
  [
    Test.make ~name:"deflate-compress-text-1MB"
      (Staged.stage (fun () -> ignore (Compress.Deflate.compress text_1mb)));
    Test.make ~name:"deflate-compress-400B"
      (Staged.stage (fun () -> ignore (Compress.Deflate.compress job_image_400b)));
    Test.make ~name:"deflate-roundtrip-random-64KB"
      (Staged.stage
         (let s = String.sub random_1mb 0 65536 in
          fun () -> ignore (Compress.Deflate.decompress (Compress.Deflate.compress s))));
    Test.make ~name:"rle-compress-zeros-1MB"
      (Staged.stage
         (let z = String.make 1_000_000 '\000' in
          fun () -> ignore (Compress.Rle.compress z)));
    Test.make ~name:"crc32-1MB" (Staged.stage (fun () -> ignore (Util.Crc32.digest text_1mb)));
    Test.make ~name:"event-queue-10k"
      (Staged.stage (fun () ->
           let e = Sim.Engine.create () in
           for i = 1 to 10_000 do
             ignore (Sim.Engine.schedule e ~delay:(float_of_int i *. 1e-6) ignore)
           done;
           Sim.Engine.run e));
    Test.make ~name:"address-space-cow-fork"
      (Staged.stage
         (let sp = Mem.Address_space.create () in
          let r =
            Mem.Address_space.map sp ~kind:Mem.Region.Heap ~perms:Mem.Region.rw
              ~bytes:(256 * Mem.Page.size) ()
          in
          Mem.Address_space.write sp ~addr:r.Mem.Region.start_addr "data";
          fun () -> ignore (Mem.Address_space.fork sp)));
    Test.make ~name:"mtcp-image-encode-16MB-synthetic"
      (Staged.stage
         (let sp = Mem.Address_space.create () in
          let _r =
            Mem.Address_space.map sp ~kind:Mem.Region.Heap ~perms:Mem.Region.rw
              ~bytes:(256 * Mem.Page.size)
              ~content:(fun i ->
                Mem.Page.Synthetic { seed = Int64.of_int i; cls = Mem.Entropy.Numeric })
              ()
          in
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
          fun () -> ignore (Mtcp.Image.encode ~algo:Compress.Algo.Deflate img)));
    Test.make ~name:"codec-varint-roundtrip-10k"
      (Staged.stage (fun () ->
           let w = Util.Codec.Writer.create () in
           for i = 0 to 9_999 do
             Util.Codec.Writer.varint w (i * 31337)
           done;
           let r = Util.Codec.Reader.of_string (Util.Codec.Writer.contents w) in
           for _ = 0 to 9_999 do
             ignore (Util.Codec.Reader.varint r)
           done));
  ]

(* Collect (name, ns/run) pairs so the JSON emitter below can reuse
   them; printing happens as results arrive. *)
let run_micro () =
  hr "Substrate micro-benchmarks (real wall-clock, via bechamel)";
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let timings =
    List.concat_map
      (fun test ->
        let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
        let analyzed =
          Analyze.all
            (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
            (Toolkit.Instance.monotonic_clock) results
        in
        Hashtbl.fold
          (fun name ols acc ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] ->
              Printf.printf "%-42s %14.1f ns/run\n" name est;
              (name, est) :: acc
            | _ ->
              Printf.printf "%-42s (no estimate)\n" name;
              acc)
          analyzed [])
      micro_tests
  in
  flush stdout;
  timings

(* ------------------------------------------------------------------ *)
(* Deterministic compression-shape records: output sizes are a property
   of the encoder, not of the machine or the run, so CI can regenerate
   them and diff against the committed BENCH_micro.json baseline.  The
   wall-clock timings above are machine-dependent and are excluded from
   that comparison.

   Each record is (name, unit, in, out): the unit is what both values
   count, bytes or simulated milliseconds (or, once, operations). *)

let ms s = int_of_float (Float.round (s *. 1000.))
let bytes name a b = (name, "bytes", a, b)
let millis name a b = (name, "ms", ms a, ms b)

let ratio_records () =
  let rand64k = String.sub random_1mb 0 65536 in
  let zeros = String.make 1_000_000 '\000' in
  let pack algo s = String.length (Compress.Container.pack ~algo s) in
  [
    bytes "deflate-raw-text-1MB" (String.length text_1mb)
      (String.length (Compress.Deflate.compress text_1mb));
    bytes "deflate-raw-random-64KB" 65536 (String.length (Compress.Deflate.compress rand64k));
    bytes "container-deflate-text-1MB" (String.length text_1mb)
      (pack Compress.Algo.Deflate text_1mb);
    bytes "container-deflate-random-64KB" 65536 (pack Compress.Algo.Deflate rand64k);
    bytes "container-rle-zeros-1MB" 1_000_000 (pack Compress.Algo.Rle zeros);
    bytes "container-null-random-64KB" 65536 (pack Compress.Algo.Null rand64k);
  ]

(* Store dedup shape: two generations of a frame-chunked checkpoint
   image through the content-addressed store, generation 1 dirtying one
   256 KiB window out of 16.  Target bytes are a property of the chunker
   and the store, not of the machine, so they join the ratio baseline:
   gen 0 ships the whole image, gen 1 ships only the dirtied frame. *)
let store_records () =
  let eng = Sim.Engine.create () in
  let targets =
    Array.init 4 (fun i ->
        let t = Storage.Target.local_disk eng () in
        Storage.Target.set_node t i;
        t)
  in
  let store = Store.create ~replicas:2 ~engine:eng ~targets () in
  let n = 16 * 256 * 1024 in
  let image g =
    let b =
      Bytes.init n (fun i ->
          Char.chr ((i * 131 + ((i lsr 8) * 17) + ((i lsr 16) * 211)) land 0xff))
    in
    if g > 0 then Bytes.fill b (5 * 256 * 1024) (256 * 1024) (Char.chr (g land 0xff));
    Dmtcp.Ckpt_image.encode
      {
        Dmtcp.Ckpt_image.upid = Dmtcp.Upid.make ~hostid:2 ~pid:41 ~generation:g;
        vpid = 41;
        parent_vpid = 0;
        program = "p:bench";
        fds = [];
        ptys = [];
        algo = Compress.Algo.Null;
        sizes = { Mtcp.Image.uncompressed = n; compressed = n; zero_bytes = 0 };
        mtcp_blob = Compress.Container.pack ~algo:Compress.Algo.Null (Bytes.to_string b);
        delta_base = None;
      }
  in
  let put_gen g =
    let bytes = image g in
    ignore
      (Store.put store ~node:0 ~lineage:"2-41" ~generation:g
         ~name:(Printf.sprintf "img-g%d" g) ~program:"p:bench"
         ~sim_bytes:(String.length bytes) ~chunks:(Dmtcp.Ckpt_image.chunk bytes));
    String.length bytes
  in
  let full = put_gen 0 in
  let s0 = Store.stats store in
  ignore (put_gen 1);
  let s1 = Store.stats store in
  [
    bytes "store.gen0-full-write" full s0.Store.bytes_written;
    bytes "store.gen1-dedup-dirty-1of16" full (s1.Store.bytes_written - s0.Store.bytes_written);
  ]

(* Incremental-checkpoint shape: a 64-page image with one 256 KiB window
   (4 pages of 16 groups) dirtied since the last checkpoint.  The delta
   encoding ships only the dirty frames, so its size against the full
   encode is a property of the codec — it joins the ratio baseline.  The
   forked-vs-inline blackout is virtual-time deterministic for the same
   reason (simulated milliseconds, like the scheduler records). *)
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
    Mem.Address_space.write sp
      ~addr:(r.Mem.Region.start_addr + (p * Mem.Page.size))
      "dirty"
  done;
  let delta = Mtcp.Image.encode_delta ~algo img in
  let fk = Harness.Extras.forked_ablation () in
  [
    bytes "ckpt.delta-bytes-dirty-1of16" (String.length full) (String.length delta);
    millis "ckpt.forked-vs-inline-blackout" fk.Harness.Extras.plain_s fk.Harness.Extras.forked_s;
  ]

(* Scheduler shape: the canned three-job preempt/fail/drain scenario is
   virtual-time deterministic, so its makespan and checkpoint-bounded
   lost work are encoder-like properties — they join the ratio baseline
   (values in simulated milliseconds).  The invariants bound what the
   fault path is allowed to cost over the no-fault reference. *)
let sched_records () =
  let reference = Chaos.Sched_demo.run ~faults:false () in
  let faulted = Chaos.Sched_demo.run ~faults:true () in
  let mk_ref = Sched.Scheduler.makespan reference.Chaos.Sched_demo.d_sched in
  let mk_f = Sched.Scheduler.makespan faulted.Chaos.Sched_demo.d_sched in
  let lost = Sched.Scheduler.total_lost_work faulted.Chaos.Sched_demo.d_sched in
  [
    millis "sched.makespan-faulted-vs-nofault" mk_ref mk_f;
    millis "sched.lost-work-vs-makespan" mk_f lost;
  ]

(* Scale shape: the 1000-small-job scenario run twice on the same
   submissions — once with the per-job op queues, once with
   [~max_inflight:1], which reproduces the old fully-serialized
   scheduler.  Both makespans are virtual-time deterministic, so their
   ratio is a property of the op-queue design and joins the ratio
   baseline; the in-flight peak must show the queues actually overlap
   work. *)
let sched1k_records () =
  let concurrent = Chaos.Sched_demo1k.run ~faults:false () in
  let serialized = Chaos.Sched_demo1k.run ~faults:false ~max_inflight:1 () in
  let peak = Sched.Scheduler.peak_ops_inflight concurrent.Chaos.Sched_demo1k.k_sched in
  let mk_c = Sched.Scheduler.makespan concurrent.Chaos.Sched_demo1k.k_sched in
  let mk_s = Sched.Scheduler.makespan serialized.Chaos.Sched_demo1k.k_sched in
  [
    (* ratio 8/peak <= 1 iff at least eight ops ran concurrently *)
    ("sched.ops-inflight", "ops", peak, 8);
    millis "sched.makespan-1000job" mk_s mk_c;
  ]

(* Restart fast-path shape: both records are virtual-time deterministic
   (simulated milliseconds), so they join the ratio baseline.

   - lazy-vs-eager blackout: the 1-of-16-dirty workload (4096 pages
     materialized, 256 rewritten per iteration) checkpointed and
     restarted twice, once eager and once with DMTCP_LAZY_RESTART.
     Lazy restore resumes threads after the hot set only — the cold
     heap faults in on touch and drains through the prefetcher — so the
     restart blackout must collapse.

   - striped fetch: the same 4 MiB frame-chunked image fetched back
     from the store with one replica (every block queued on a single
     disk) vs two (blocks stripe across the least-loaded surviving
     replica), measuring the modeled fetch delay. *)
let restart_blackout ?(pages = 4096) ?(dirty = 256) ~lazy_restart () =
  Chaos.Progs.ensure_registered ();
  let options = { Dmtcp.Options.default with Dmtcp.Options.lazy_restart } in
  let env = Harness.Common.setup ~nodes:1 ~options () in
  let rt = env.Harness.Common.rt in
  ignore
    (Dmtcp.Api.launch rt ~node:0 ~prog:"p:dirty"
       ~argv:[ string_of_int pages; string_of_int dirty; "20000"; "/tmp/lz" ]);
  Harness.Common.run_for env 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  let t = Dmtcp.Api.last_restart_seconds rt in
  Harness.Common.teardown env;
  t

let striped_fetch_delay ~replicas =
  let eng = Sim.Engine.create () in
  let targets =
    Array.init 4 (fun i ->
        let t = Storage.Target.local_disk eng () in
        Storage.Target.set_node t i;
        t)
  in
  let store = Store.create ~replicas ~engine:eng ~targets () in
  let n = 16 * 256 * 1024 in
  let body =
    String.init n (fun i -> Char.chr ((i * 131 + ((i lsr 8) * 17) + ((i lsr 16) * 211)) land 0xff))
  in
  let bytes =
    Dmtcp.Ckpt_image.encode
      {
        Dmtcp.Ckpt_image.upid = Dmtcp.Upid.make ~hostid:3 ~pid:51 ~generation:0;
        vpid = 51;
        parent_vpid = 0;
        program = "p:bench";
        fds = [];
        ptys = [];
        algo = Compress.Algo.Null;
        sizes = { Mtcp.Image.uncompressed = n; compressed = n; zero_bytes = 0 };
        mtcp_blob = Compress.Container.pack ~algo:Compress.Algo.Null body;
        delta_base = None;
      }
  in
  ignore
    (Store.put store ~node:0 ~lineage:"3-51" ~generation:0 ~name:"img-stripe" ~program:"p:bench"
       ~sim_bytes:(String.length bytes) ~chunks:(Dmtcp.Ckpt_image.chunk bytes));
  (* let the write bookings drain so the fetch measures read striping,
     not queuing behind its own put *)
  Sim.Engine.run ~until:10.0 eng;
  match Store.fetch store ~node:0 ~name:"img-stripe" with
  | Some (_, delay) -> delay
  | None -> failwith "bench: striped image vanished from the store"

let restore_records () =
  let eager = restart_blackout ~lazy_restart:false () in
  let lzy = restart_blackout ~lazy_restart:true () in
  let single = striped_fetch_delay ~replicas:1 in
  let striped = striped_fetch_delay ~replicas:2 in
  [
    millis "rst.lazy-vs-eager-blackout" eager lzy;
    millis "store.striped-fetch-speedup" single striped;
  ]

(* Plugin hook overhead: the same 1-of-16-dirty cycle with every
   built-in plugin enabled vs none.  Handlers run in zero simulated
   time and this workload holds nothing the heuristics act on, so the
   checkpoint+restart blackout must not grow — the record pins the
   dispatch machinery itself at <= 5% overhead. *)
let plugin_cycle ~plugins () =
  Chaos.Progs.ensure_registered ();
  let options = { Dmtcp.Options.default with Dmtcp.Options.plugins } in
  let env = Harness.Common.setup ~nodes:1 ~options () in
  let rt = env.Harness.Common.rt in
  ignore
    (Dmtcp.Api.launch rt ~node:0 ~prog:"p:dirty" ~argv:[ "1024"; "64"; "20000"; "/tmp/po" ]);
  Harness.Common.run_for env 1.0;
  Dmtcp.Api.checkpoint_now rt;
  let ckpt = Dmtcp.Api.last_checkpoint_seconds rt in
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  let rst = Dmtcp.Api.last_restart_seconds rt in
  Harness.Common.teardown env;
  ckpt +. rst

let plugin_records () =
  let off = plugin_cycle ~plugins:[] () in
  let all = plugin_cycle ~plugins:Dmtcp.Plugins.all_names () in
  [ millis "plugin.hook-overhead" off all ]

(* The rank/proxy split's image-shape payoff, as committed records: the
   same bsp collective workload checkpointed mid-straggle on both
   transports.  The phase straggler is the allreduce root, so at the
   checkpoint the other ranks' gather frames are parked en route to a
   rank that is not reading.  On the direct backend those bytes sit in
   the root's TCP sockets and the drain barrier copies them into the
   rank images; on the proxy backend they are proxy custody —
   disposable by design — so rank images carry no drained bytes, and
   shed the per-neighbour socket specs besides. *)
let mpi_cycle ~kind ~extra () =
  let base_port = Harness.Common.base_port in
  Proxy.Accounting.reset ~base_port;
  let options =
    if kind = Harness.Common.Proxy then
      { Dmtcp.Options.default with Dmtcp.Options.plugins = [ "ext-sock"; "mpi-proxy" ] }
    else Dmtcp.Options.default
  in
  let env = Harness.Common.setup ~nodes:4 ~cores_per_node:2 ~options () in
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
  let script = Dmtcp.Api.restart_script env.Harness.Common.rt in
  (* encoded image bytes, not the modeled memory footprint: the fd
     specs and drained socket bytes the proxy split removes live in the
     encoding *)
  let image_bytes =
    List.fold_left
      (fun total (host, paths) ->
        let vfs = Simos.Kernel.vfs (Simos.Cluster.kernel env.Harness.Common.cl host) in
        List.fold_left
          (fun total path ->
            match Simos.Vfs.lookup vfs path with
            | Some f -> total + String.length (Simos.Vfs.read_all f)
            | None -> total)
          total paths)
      0 script.Dmtcp.Restart_script.entries
  in
  let _estab, drained = Chaos.Proxy_fault.image_stats env script in
  Harness.Common.teardown env;
  (image_bytes, drained)

let mpi_records () =
  let bsp = [ "1"; "512"; "1"; "0.6" ] in
  let d_img, d_drained = mpi_cycle ~kind:Harness.Common.Direct ~extra:("direct" :: bsp) () in
  let p_img, p_drained = mpi_cycle ~kind:Harness.Common.Proxy ~extra:bsp () in
  [
    bytes "mpi.proxy-vs-direct-drain-bytes" d_drained p_drained;
    bytes "mpi.proxy-ckpt-image-bytes" d_img p_img;
  ]

(* BENCH_RESTORE_SWEEP=1: print the eager/lazy blackout sweep over
   working-set sizes, and the striped fetch delay over replica counts
   (the tables in EXPERIMENTS.md). Virtual-time deterministic, but kept
   out of the baseline records: it exists to be re-run by hand. *)
let restore_sweep () =
  hr "Restart fast-path sweep (modeled ms, deterministic)";
  Printf.printf "%10s %8s %12s %11s %8s\n" "pages" "MiB" "eager (ms)" "lazy (ms)" "ratio";
  List.iter
    (fun pages ->
      let eager = restart_blackout ~pages ~dirty:(pages / 16) ~lazy_restart:false () in
      let lzy = restart_blackout ~pages ~dirty:(pages / 16) ~lazy_restart:true () in
      Printf.printf "%10d %8d %12d %11d %8.4f\n" pages
        (pages * Mem.Page.size / 1024 / 1024)
        (ms eager) (ms lzy) (lzy /. eager))
    [ 256; 1024; 4096; 8192 ];
  Printf.printf "\n%10s %12s\n" "replicas" "fetch (ms)";
  List.iter
    (fun replicas ->
      Printf.printf "%10d %12d\n" replicas (ms (striped_fetch_delay ~replicas)))
    [ 1; 2; 3; 4 ];
  flush stdout

let print_ratios ratios =
  hr "Deterministic records (modeled bytes and simulated ms: no host timing)";
  List.iter
    (fun (name, unit, v_in, v_out) ->
      Printf.printf "%-42s %10d -> %9d %-5s  (ratio %.6f)\n" name v_in v_out unit
        (float_of_int v_out /. float_of_int v_in))
    ratios;
  flush stdout

(* BENCH_JSON=path: machine-readable results, one object per line so
   line-oriented tools (the CI baseline diff greps for "kind": "ratio")
   can filter the deterministic records. *)
let emit_json path timings ratios =
  let oc = open_out path in
  output_string oc "[\n";
  let lines =
    List.map
      (fun (name, unit, v_in, v_out) ->
        Printf.sprintf
          {|{"kind": "ratio", "name": "%s", "unit": "%s", "bytes_in": %d, "bytes_out": %d, "ratio": %.6f}|}
          name unit v_in v_out
          (float_of_int v_out /. float_of_int v_in))
      ratios
    @ List.map
        (fun (name, ns) ->
          Printf.sprintf {|{"kind": "timing", "name": "%s", "ns_per_run": %.1f}|} name ns)
        timings
  in
  output_string oc (String.concat ",\n" lines);
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* BENCH_ASSERT=1: fail (exit 1) if the compressor stops pulling its
   weight — text must at least halve, incompressible data must not grow
   by more than 1% (the container's stored-block fallback bounds it). *)
let assert_invariants ratios =
  let ratio name =
    let _, _, v_in, v_out = List.find (fun (n, _, _, _) -> n = name) ratios in
    float_of_int v_out /. float_of_int v_in
  in
  let failed = ref false in
  let check name what limit =
    let r = ratio name in
    if r > limit then begin
      Printf.printf "BENCH_ASSERT FAILED: %s: %s (ratio %.6f > %.3f)\n" name what r limit;
      failed := true
    end
    else Printf.printf "bench invariant ok: %s ratio %.6f <= %.3f\n" name r limit
  in
  check "deflate-raw-text-1MB" "text must compress to half or better" 0.5;
  check "container-deflate-text-1MB" "text must compress to half or better" 0.5;
  check "deflate-raw-random-64KB" "random must expand by at most 1%" 1.01;
  check "container-deflate-random-64KB" "random must expand by at most 1%" 1.01;
  check "store.gen0-full-write" "first generation ships at most the image plus catalog overhead"
    1.01;
  check "store.gen1-dedup-dirty-1of16"
    "a 1-of-16-dirty generation must dedup to an eighth of the image or less" 0.125;
  check "ckpt.delta-bytes-dirty-1of16"
    "a 1-of-16-dirty interval checkpoint must write an eighth of the full image or less" 0.125;
  check "ckpt.forked-vs-inline-blackout"
    "forked checkpointing must cut the blackout to a quarter or less" 0.25;
  check "sched.makespan-faulted-vs-nofault"
    "a node loss plus a drain must at most double the canned scenario's makespan" 2.0;
  check "sched.lost-work-vs-makespan"
    "interval checkpoints must bound lost work to a quarter of the makespan" 0.25;
  check "sched.ops-inflight"
    "the op queues must run at least eight operations concurrently" 1.0;
  check "sched.makespan-1000job"
    "concurrent ops must at least halve the serialized 1000-job makespan" 0.5;
  check "rst.lazy-vs-eager-blackout"
    "lazy restore must cut the restart blackout to a quarter or less" 0.25;
  check "store.striped-fetch-speedup"
    "striped fetch over two replicas must run at least 1.5x faster than one" (1. /. 1.5);
  check "plugin.hook-overhead"
    "dispatching every built-in plugin hook must cost at most 5% blackout" 1.05;
  check "mpi.proxy-vs-direct-drain-bytes"
    "the proxy split must leave nothing to drain into rank images" 0.0;
  check "mpi.proxy-ckpt-image-bytes"
    "proxy-backend rank images must encode strictly smaller than direct-backend ones" 0.999;
  flush stdout;
  if !failed then exit 1

let () =
  Printf.printf "DMTCP reproduction benchmark harness (scale: %s)\n"
    (match scale with `Full -> "full" | `Quick -> "quick");
  let timings = if sections <> `Repro then run_micro () else [] in
  let ratios =
    ratio_records () @ store_records () @ delta_records () @ sched_records ()
    @ sched1k_records () @ restore_records () @ plugin_records () @ mpi_records ()
  in
  print_ratios ratios;
  (match Sys.getenv_opt "BENCH_JSON" with
  | Some path -> emit_json path timings ratios
  | None -> ());
  if Sys.getenv_opt "BENCH_ASSERT" = Some "1" then assert_invariants ratios;
  if Sys.getenv_opt "BENCH_RESTORE_SWEEP" = Some "1" then restore_sweep ();
  if sections <> `Micro then run_reproduction ();
  hr "Done";
  print_endline "Interpretation notes live in EXPERIMENTS.md."
