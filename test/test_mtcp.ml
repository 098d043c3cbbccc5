(* Tests for the MTCP layer: image capture/encode/decode, size
   accounting, thread restore, snapshot isolation, and cost models. *)

let check = Alcotest.check

let () = Chaos.Progs.ensure_registered ()

let make_proc ?(mb = 2) () =
  let cl = Simos.Cluster.create ~nodes:1 () in
  let k = Simos.Cluster.kernel cl 0 in
  let proc =
    Simos.Kernel.spawn k ~prog:"p:memhog"
      ~argv:[ string_of_int mb; "100000"; "/tmp/h" ]
      ()
  in
  Sim.Engine.run ~until:0.5 (Simos.Cluster.engine cl);
  (cl, k, proc)

let test_capture_roundtrip () =
  let _, k, proc = make_proc () in
  Simos.Kernel.suspend_user_threads k proc;
  let img = Mtcp.Image.capture proc in
  let bytes = Mtcp.Image.encode ~algo:Compress.Algo.Deflate img in
  let img' = Mtcp.Image.decode bytes in
  Alcotest.(check bool) "image round-trips" true (Mtcp.Image.equal img img')

let test_capture_all_algos () =
  let _, k, proc = make_proc () in
  Simos.Kernel.suspend_user_threads k proc;
  let img = Mtcp.Image.capture proc in
  List.iter
    (fun algo ->
      let bytes = Mtcp.Image.encode ~algo img in
      Alcotest.(check bool) (Compress.Algo.name algo) true
        (Mtcp.Image.equal img (Mtcp.Image.decode bytes)))
    Compress.Algo.all

let test_sizes_accounting () =
  let _, k, proc = make_proc ~mb:4 () in
  Simos.Kernel.suspend_user_threads k proc;
  let img = Mtcp.Image.capture proc in
  let null = Mtcp.Image.sizes Compress.Algo.Null img in
  let gz = Mtcp.Image.sizes Compress.Algo.Deflate img in
  Alcotest.(check bool) "uncompressed covers the footprint" true
    (null.Mtcp.Image.uncompressed >= 4_000_000);
  check Alcotest.int "raw scheme does not shrink pages"
    null.Mtcp.Image.uncompressed
    (null.Mtcp.Image.compressed + (null.Mtcp.Image.uncompressed - null.Mtcp.Image.compressed));
  Alcotest.(check bool) "deflate shrinks (mostly-zero memhog)" true
    (gz.Mtcp.Image.compressed * 2 < gz.Mtcp.Image.uncompressed);
  check Alcotest.int "zero accounting consistent" gz.Mtcp.Image.zero_bytes
    null.Mtcp.Image.zero_bytes

(* real pages of a space and whether each carries a Deflate size memo *)
let real_pages (img : Mtcp.Image.t) =
  List.concat_map
    (fun (r : Mem.Region.t) ->
      Array.to_list r.Mem.Region.pages
      |> List.filter_map (function
           | Mem.Page.Materialized { sized; _ } ->
             Some (match sized with Some (Compress.Algo.Deflate, _) -> true | _ -> false)
           | Mem.Page.Zero | Mem.Page.Synthetic _ -> None))
    (Mem.Address_space.regions img.Mtcp.Image.space)

(* the memo lives on the page value a snapshot shares with the live space,
   so a second capture with no writes in between is priced from memos *)
let test_sizes_memo_shared_across_captures () =
  let _, k, proc = make_proc ~mb:2 () in
  let sp = proc.Simos.Kernel.space in
  let heap = List.hd (Mem.Address_space.regions sp) in
  for p = 1 to 4 do
    Mem.Address_space.write sp
      ~addr:(heap.Mem.Region.start_addr + (p * Mem.Page.size))
      (Printf.sprintf "page %d of real bytes" p)
  done;
  Simos.Kernel.suspend_user_threads k proc;
  let img1 = Mtcp.Image.capture proc in
  check Alcotest.int "real pages" 5 (List.length (real_pages img1));
  Alcotest.(check bool) "unsized before sizing" true (List.for_all not (real_pages img1));
  let s1 = Mtcp.Image.sizes Compress.Algo.Deflate img1 in
  let img2 = Mtcp.Image.capture proc in
  Alcotest.(check bool) "second capture finds every real page sized" true
    (List.for_all Fun.id (real_pages img2));
  let s2 = Mtcp.Image.sizes Compress.Algo.Deflate img2 in
  check Alcotest.int "same compressed size" s1.Mtcp.Image.compressed s2.Mtcp.Image.compressed

let test_sizes_keep_round_trip_equal () =
  let _, k, proc = make_proc () in
  Simos.Kernel.suspend_user_threads k proc;
  let img = Mtcp.Image.capture proc in
  ignore (Mtcp.Image.sizes Compress.Algo.Deflate img);
  let img' = Mtcp.Image.decode (Mtcp.Image.encode ~algo:Compress.Algo.Deflate img) in
  Alcotest.(check bool) "decoded pages start unsized" true (List.for_all not (real_pages img'));
  Alcotest.(check bool) "sized image equals its unsized round trip" true (Mtcp.Image.equal img img')

let test_snapshot_isolation () =
  (* the captured image must not change while the process keeps running *)
  let cl, k, proc = make_proc () in
  Simos.Kernel.suspend_user_threads k proc;
  let img = Mtcp.Image.capture proc in
  let before = Mtcp.Image.encode ~algo:Compress.Algo.Null img in
  Simos.Kernel.resume_user_threads k proc;
  Sim.Engine.run ~until:(Simos.Cluster.now cl +. 1.0) (Simos.Cluster.engine cl);
  Mem.Address_space.write proc.Simos.Kernel.space
    ~addr:
      (List.hd (Mem.Address_space.regions proc.Simos.Kernel.space)).Mem.Region.start_addr
    "mutated after capture";
  let after = Mtcp.Image.encode ~algo:Compress.Algo.Null img in
  check Alcotest.string "image bytes stable (COW snapshot)" (Digest.string before)
    (Digest.string after)

let test_restore_threads_completes () =
  (* capture a half-done counter, restore into a fresh shell, and the
     restored program must finish with the same answer *)
  let cl = Simos.Cluster.create ~nodes:1 () in
  let k = Simos.Cluster.kernel cl 0 in
  let proc = Simos.Kernel.spawn k ~prog:"p:counter" ~argv:[ "2000"; "/tmp/out" ] () in
  Sim.Engine.run ~until:1.0 (Simos.Cluster.engine cl);
  Simos.Kernel.suspend_user_threads k proc;
  let img = Mtcp.Image.capture proc in
  Simos.Kernel.vanish_process k proc;
  let shell = Simos.Kernel.create_raw_process k ~pid:(Simos.Kernel.fresh_pid k) ~ppid:0 ~env:[] ~hijacked:false in
  Mtcp.Image.restore_threads k shell img;
  Simos.Cluster.run cl;
  (match Simos.Vfs.lookup (Simos.Kernel.vfs k) "/tmp/out" with
  | Some f -> check Alcotest.string "restored counter finished" "done:2000" (Simos.Vfs.read_all f)
  | None -> Alcotest.fail "no output after restore")

let test_blocked_wait_preserved () =
  (* a thread blocked on a sleep must re-block after restore, not spin *)
  let cl = Simos.Cluster.create ~nodes:1 () in
  let k = Simos.Cluster.kernel cl 0 in
  let proc = Simos.Kernel.spawn k ~prog:"p:aware" ~argv:[ "100.0" ] () in
  Sim.Engine.run ~until:0.5 (Simos.Cluster.engine cl);
  Simos.Kernel.suspend_user_threads k proc;
  let img = Mtcp.Image.capture proc in
  let ti = List.hd img.Mtcp.Image.threads in
  Alcotest.(check bool) "wait condition captured" true (ti.Mtcp.Image.ti_wait <> None)

let test_decode_rejects_corruption () =
  let _, k, proc = make_proc () in
  Simos.Kernel.suspend_user_threads k proc;
  let bytes = Mtcp.Image.encode ~algo:Compress.Algo.Deflate (Mtcp.Image.capture proc) in
  let b = Bytes.of_string bytes in
  Bytes.set b (Bytes.length b / 2) '\xee';
  Alcotest.(check bool) "corrupt image rejected" true
    (try
       ignore (Mtcp.Image.decode (Bytes.to_string b));
       false
     with
    | Util.Codec.Reader.Corrupt _ -> true)

let test_manager_threads_excluded () =
  (* processes under DMTCP have a manager thread; it must not be captured *)
  let cl = Simos.Cluster.create ~nodes:1 () in
  let rt = Dmtcp.Api.install cl () in
  let _ = Dmtcp.Api.launch rt ~node:0 ~prog:"p:counter" ~argv:[ "100000"; "/tmp/x" ] in
  Sim.Engine.run ~until:1.0 (Simos.Cluster.engine cl);
  match Dmtcp.Runtime.hijacked_processes rt with
  | [ (node, pid, _) ] ->
    let k = Simos.Cluster.kernel cl node in
    let proc = Option.get (Simos.Kernel.find_process k ~pid) in
    Simos.Kernel.suspend_user_threads k proc;
    let img = Mtcp.Image.capture proc in
    check Alcotest.int "only the user thread captured" 1 (List.length img.Mtcp.Image.threads);
    Alcotest.(check bool) "process has more threads live" true
      (List.length proc.Simos.Kernel.threads > 1)
  | procs -> Alcotest.failf "expected one process, got %d" (List.length procs)

let test_delta_sizes () =
  let cl, k, proc = make_proc ~mb:4 () in
  Simos.Kernel.suspend_user_threads k proc;
  ignore (Mtcp.Image.capture proc);
  (* as the manager does: the live space's dirt is relative to the
     checkpoint just captured *)
  Mem.Address_space.clear_dirty proc.Simos.Kernel.space;
  Simos.Kernel.resume_user_threads k proc;
  Sim.Engine.run ~until:(Simos.Cluster.now cl +. 0.1) (Simos.Cluster.engine cl);
  (* dirty exactly one page *)
  let r = List.hd (Mem.Address_space.regions proc.Simos.Kernel.space) in
  Mem.Address_space.write proc.Simos.Kernel.space ~addr:r.Mem.Region.start_addr "dirty!";
  Simos.Kernel.suspend_user_threads k proc;
  let img2 = Mtcp.Image.capture proc in
  let full = Mtcp.Image.sizes Compress.Algo.Deflate img2 in
  let delta = Mtcp.Image.delta_sizes Compress.Algo.Deflate img2 in
  (* memhog's pages are mostly zeros, so compare raw page volumes: the
     full image re-writes ~4 MB, the delta only the dirtied page(s) *)
  Alcotest.(check bool)
    (Printf.sprintf "delta pages (%d) far below full (%d)" delta.Mtcp.Image.uncompressed
       full.Mtcp.Image.uncompressed)
    true
    (delta.Mtcp.Image.uncompressed * 10 < full.Mtcp.Image.uncompressed);
  Alcotest.(check bool) "delta covers the dirtied page" true
    (delta.Mtcp.Image.uncompressed
    >= Mem.Page.size + (4096 + 1024) (* one page + image metadata *))

(* The page-shipping rule against the test's own write list: after the
   checkpoint's clear_dirty, [delta_sizes] charges exactly the heap
   pages written since, plus every page of the shared mapping, written
   or not.  Heap pages start materialized with an "a" at offset 0, so a
   write of "a" there is a rewrite with identical bytes: it ships too. *)
let prop_delta_sizes_charge_what_ships =
  let heap_pages = 8 and shared_pages = 3 in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 21 |])
    (QCheck.Test.make ~count:200 ~name:"delta sizes charge written heap pages and every shared page"
       QCheck.(
         list_of_size Gen.(0 -- 12)
           (quad bool (int_bound 99) bool (int_bound (Mem.Page.size - 8))))
       (fun writes ->
         let sp = Mem.Address_space.create () in
         let heap =
           Mem.Address_space.map sp ~kind:Mem.Region.Heap ~perms:Mem.Region.rw
             ~bytes:(heap_pages * Mem.Page.size) ()
         in
         let shm =
           Mem.Address_space.map sp
             ~kind:(Mem.Region.Mmap_shared { backing_path = "/dev/shm/ships" })
             ~perms:Mem.Region.rw ~bytes:(shared_pages * Mem.Page.size) ()
         in
         for i = 0 to heap_pages - 1 do
           Mem.Address_space.write sp ~addr:(heap.Mem.Region.start_addr + (i * Mem.Page.size)) "a"
         done;
         Mem.Address_space.clear_dirty sp;
         let written_heap = Hashtbl.create 8 and written_shm = Hashtbl.create 4 in
         List.iter
           (fun (shared, page, same, off) ->
             let r, n, written =
               if shared then (shm, shared_pages, written_shm) else (heap, heap_pages, written_heap)
             in
             let page = page mod n in
             let off, data = if same then (0, "a") else (off, "xyz") in
             Mem.Address_space.write sp
               ~addr:(r.Mem.Region.start_addr + (page * Mem.Page.size) + off)
               data;
             Hashtbl.replace written page ())
           writes;
         let img =
           {
             Mtcp.Image.cmdline = [];
             env = [];
             threads = [];
             space = Mem.Address_space.snapshot sp;
             sigtable = [];
             pending_signals = [];
           }
         in
         let algo = Compress.Algo.Rle in
         let full = Mtcp.Image.sizes algo img in
         let delta = Mtcp.Image.delta_sizes algo img in
         let shipped = Hashtbl.length written_heap + shared_pages in
         let unshipped = heap_pages + shared_pages - shipped in
         delta.Mtcp.Image.uncompressed
         = full.Mtcp.Image.uncompressed - (unshipped * Mem.Page.size)
         (* the shared pages never written are the only zero pages *)
         && delta.Mtcp.Image.zero_bytes
            = (shared_pages - Hashtbl.length written_shm) * Mem.Page.size))

(* Delta-reconstruction battery: whatever pages get dirtied, and however
   deep the chain, a delta applied to its base must reconstruct an image
   byte-identical to the from-scratch full checkpoint taken at the same
   instant.  Each chain step applies onto the PREVIOUS reconstruction,
   so errors would compound — byte equality at every depth proves the
   delta codec is exact, not approximately right. *)
let prop_delta_reconstruction =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"delta chain reconstructs byte-identically"
       QCheck.(pair (int_bound 10_000) (int_range 1 4))
       (fun (seed, depth) ->
         let _, k, proc = make_proc ~mb:2 () in
         let sp = proc.Simos.Kernel.space in
         Simos.Kernel.suspend_user_threads k proc;
         let algo = Compress.Algo.Rle in
         let base = Mtcp.Image.capture proc in
         Mem.Address_space.clear_dirty sp;
         let rng = Util.Rng.create (Int64.of_int (seed + 7)) in
         let regions = Array.of_list (Mem.Address_space.regions sp) in
         let prev = ref base in
         let ok = ref true in
         for _step = 1 to depth do
           (* a random dirty pattern: 0..8 writes at random page offsets,
              possibly none (an empty delta must also round-trip) *)
           let writes = Util.Rng.int rng 9 in
           for _ = 1 to writes do
             let r = Util.Rng.choose rng regions in
             let page = Util.Rng.int rng (Array.length r.Mem.Region.pages) in
             let off = Util.Rng.int rng (Mem.Page.size - 64) in
             let data = Bytes.to_string (Util.Rng.bytes rng (1 + Util.Rng.int rng 63)) in
             Mem.Address_space.write sp
               ~addr:(r.Mem.Region.start_addr + (page * Mem.Page.size) + off)
               data
           done;
           let fresh = Mtcp.Image.capture proc in
           let delta = Mtcp.Image.encode_delta ~algo fresh in
           Mem.Address_space.clear_dirty sp;
           let rebuilt = Mtcp.Image.apply_delta ~base:!prev delta in
           if Mtcp.Image.encode ~algo rebuilt <> Mtcp.Image.encode ~algo fresh then ok := false;
           (* chain: the next delta applies onto this reconstruction *)
           prev := rebuilt
         done;
         !ok))

let test_cost_models_monotone () =
  Alcotest.(check bool) "suspend grows with threads" true
    (Mtcp.Cost.suspend_seconds ~nthreads:16 > Mtcp.Cost.suspend_seconds ~nthreads:1);
  Alcotest.(check bool) "snapshot grows with pages" true
    (Mtcp.Cost.snapshot_seconds ~pages:10_000 > Mtcp.Cost.snapshot_seconds ~pages:10);
  Alcotest.(check bool) "elect grows with fds" true
    (Mtcp.Cost.elect_seconds ~nfds:100 > Mtcp.Cost.elect_seconds ~nfds:1);
  Alcotest.(check bool) "suspend near paper's 25 ms" true
    (let t = Mtcp.Cost.suspend_seconds ~nthreads:2 in
     t > 0.01 && t < 0.05)

let () =
  Alcotest.run "mtcp"
    [
      ( "image",
        [
          Alcotest.test_case "capture round-trip" `Quick test_capture_roundtrip;
          Alcotest.test_case "all algorithms" `Quick test_capture_all_algos;
          Alcotest.test_case "size accounting" `Quick test_sizes_accounting;
          Alcotest.test_case "size memo shared across captures" `Quick
            test_sizes_memo_shared_across_captures;
          Alcotest.test_case "sizing keeps round trip equal" `Quick
            test_sizes_keep_round_trip_equal;
          Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "restore completes" `Quick test_restore_threads_completes;
          Alcotest.test_case "blocked wait preserved" `Quick test_blocked_wait_preserved;
          Alcotest.test_case "corruption rejected" `Quick test_decode_rejects_corruption;
          Alcotest.test_case "manager threads excluded" `Quick test_manager_threads_excluded;
          Alcotest.test_case "incremental delta sizes" `Quick test_delta_sizes;
          prop_delta_sizes_charge_what_ships;
          prop_delta_reconstruction;
        ] );
      ("cost", [ Alcotest.test_case "models monotone" `Quick test_cost_models_monotone ]);
    ]
