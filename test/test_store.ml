(* Tests for the replicated content-addressed checkpoint store: digest
   addressing, cross-generation dedup, quorum write timing, generational
   GC, replica loss, and the image chunker feeding it. *)

let check = Alcotest.check

let mk ?(nodes = 4) ?replicas ?quorum ?keep () =
  let eng = Sim.Engine.create () in
  let targets =
    Array.init nodes (fun i ->
        let t = Storage.Target.local_disk eng () in
        Storage.Target.set_node t i;
        t)
  in
  (eng, Store.create ?replicas ?quorum ?keep ~engine:eng ~targets ())

let put ?base ?(node = 0) ?(lineage = "1-100") ?(generation = 0) ?(name = "img-g0")
    ?(program = "p:test") ?sim_bytes store chunks =
  let sim_bytes =
    match sim_bytes with
    | Some b -> b
    | None -> List.fold_left (fun a c -> a + String.length c) 0 chunks
  in
  Store.put ?base store ~node ~lineage ~generation ~name ~program ~sim_bytes ~chunks

(* ------------------------------------------------------------------ *)

let test_put_fetch_roundtrip () =
  let _, store = mk () in
  let chunks = [ "alpha"; "bb"; String.make 1000 'z' ] in
  let d = put store chunks in
  Alcotest.(check bool) "put books positive time" true (d > 0.);
  Alcotest.(check bool) "catalogued" true (Store.contains store ~name:"img-g0");
  match Store.fetch store ~node:3 ~name:"img-g0" with
  | Some (bytes, delay) ->
    check Alcotest.string "bytes reassemble exactly" (String.concat "" chunks) bytes;
    Alcotest.(check bool) "fetch books positive time" true (delay > 0.)
  | None -> Alcotest.fail "catalogued image not fetchable"

let test_fetch_unknown_is_none () =
  let _, store = mk () in
  Alcotest.(check bool) "unknown name" true (Store.fetch store ~node:0 ~name:"nope" = None);
  Alcotest.(check bool) "not contained" false (Store.contains store ~name:"nope")

(* Blocks carry modeled bytes already scaled at put, so a fetch must
   book the image's modeled size once, not scale it a second time: an
   image whose modeled size is 4x its real length reads like one
   [Storage.Target.read] of that modeled size on an idle disk. *)
let test_fetch_books_modeled_bytes () =
  let eng, store = mk ~replicas:1 () in
  let chunks =
    List.init 4 (fun i -> String.make (1000 + (250 * i)) (Char.chr (Char.code 'k' + i)))
  in
  let real = List.fold_left (fun a c -> a + String.length c) 0 chunks in
  ignore (put ~sim_bytes:(4 * real) store chunks);
  (* drain the put's write bookings so the fetch meets an idle disk *)
  Sim.Engine.run ~until:10.0 eng;
  let fetched =
    match Store.fetch store ~node:0 ~name:"img-g0" with
    | Some (_, delay) -> delay
    | None -> Alcotest.fail "catalogued image not fetchable"
  in
  let reference = Storage.Target.read (Storage.Target.local_disk eng ()) ~bytes:(4 * real) in
  Alcotest.(check (float 1e-12))
    (Printf.sprintf "fetch %.6f s = one read of the modeled size %.6f s" fetched reference)
    reference fetched

let test_dedup_across_generations () =
  let _, store = mk () in
  let a = String.make 500 'a' and b = String.make 600 'b' in
  let c = String.make 700 'c' and d = String.make 800 'd' in
  ignore (put ~generation:0 ~name:"img-g0" store [ a; b; c ]);
  let s0 = Store.stats store in
  check Alcotest.int "gen0 writes every block" 3 s0.Store.blocks_written;
  (* gen1 dirties one block: only [d] ships *)
  ignore (put ~generation:1 ~name:"img-g1" store [ a; b; d ]);
  let s1 = Store.stats store in
  check Alcotest.int "gen1 writes one new block" 4 s1.Store.blocks_written;
  check Alcotest.int "gen1 dedups the unchanged blocks" 2 s1.Store.blocks_deduped;
  check Alcotest.int "target bytes proportional to dirtied data"
    (String.length d)
    (s1.Store.bytes_written - s0.Store.bytes_written);
  check Alcotest.int "dedup avoided re-shipping shared bytes"
    (String.length a + String.length b)
    s1.Store.bytes_deduped;
  (* both generations still reassemble bit-identically *)
  check (Alcotest.option Alcotest.string) "gen0 intact"
    (Some (a ^ b ^ c))
    (Store.peek store ~name:"img-g0");
  check (Alcotest.option Alcotest.string) "gen1 intact"
    (Some (a ^ b ^ d))
    (Store.peek store ~name:"img-g1")

let test_reput_replaces_manifest () =
  let _, store = mk () in
  ignore (put ~name:"img-g0" store [ "one"; "shared" ]);
  ignore (put ~name:"img-g0" store [ "two"; "shared" ]);
  check Alcotest.int "one manifest per name" 1 (List.length (Store.manifests store));
  check (Alcotest.option Alcotest.string) "latest content wins" (Some "twoshared")
    (Store.peek store ~name:"img-g0");
  (* the replaced put's unique block is unreferenced and reclaimed *)
  check Alcotest.int "orphan block reclaimed" 2 (Store.block_count store);
  let s = Store.stats store in
  Alcotest.(check bool) "reclaim accounted" true (s.Store.bytes_reclaimed > 0)

let test_quorum_delay_ordering () =
  let chunks = [ String.make 200_000 'q' ] in
  let sim_bytes = 400_000_000 in
  let d1 =
    let _, store = mk ~replicas:3 ~quorum:1 () in
    put ~sim_bytes store chunks
  in
  let d3 =
    let _, store = mk ~replicas:3 ~quorum:3 () in
    put ~sim_bytes store chunks
  in
  Alcotest.(check bool)
    (Printf.sprintf "quorum 1 durable before quorum 3 (%.3f vs %.3f)" d1 d3)
    true (d1 < d3)

let test_replication_counts () =
  let _, store = mk ~nodes:4 ~replicas:2 () in
  ignore (put store [ "x"; "y" ]);
  let s = Store.stats store in
  check Alcotest.int "one extra copy per new block" 2 s.Store.blocks_replicated;
  List.iter
    (fun chunk ->
      check Alcotest.int
        ("block " ^ chunk ^ " on 2 nodes")
        2
        (Store.replica_count store ~digest:(Store.Digest.of_chunk chunk)))
    [ "x"; "y" ]

(* Regression: checkpoint image sections end in a CRC-32 trailer over
   their own payload, and CRC(m ++ CRC(m)) is a constant residue — so
   every same-length section chunk collides on the CRC component alone.
   Before the digest grew an independent FNV-1a component, dedup would
   splice one process's identity prefix onto another process's image;
   the batch scheduler surfaced this as two restarted jobs claiming the
   same upid. *)
let with_crc_trailer s =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Util.Crc32.digest s);
  s ^ Bytes.to_string b

let test_digest_fnv1a_vectors () =
  List.iter
    (fun (s, want) ->
      check Alcotest.int64 (Printf.sprintf "FNV-1a-64 %S" s) want
        (Store.Digest.of_chunk s).Store.Digest.fnv)
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL); ("foobar", 0x85944171f73967e8L) ]

let test_digest_survives_crc_residue () =
  let p1 = with_crc_trailer "process one metadata" in
  let p2 = with_crc_trailer "process two metadata" in
  check Alcotest.int32 "CRC collides by construction (residue property)"
    (Util.Crc32.digest p1) (Util.Crc32.digest p2);
  check Alcotest.int "lengths equal too" (String.length p1) (String.length p2);
  Alcotest.(check bool) "digests still distinct" false
    (Store.Digest.equal (Store.Digest.of_chunk p1) (Store.Digest.of_chunk p2));
  (* the store must keep the two processes' images apart *)
  let _, store = mk () in
  ignore (put ~lineage:"1-100" ~name:"img-a" store [ p1; "tail-a" ]);
  ignore (put ~lineage:"2-200" ~name:"img-b" store [ p2; "tail-b" ]);
  check (Alcotest.option Alcotest.string) "image a intact" (Some (p1 ^ "tail-a"))
    (Store.peek store ~name:"img-a");
  check (Alcotest.option Alcotest.string) "image b intact" (Some (p2 ^ "tail-b"))
    (Store.peek store ~name:"img-b")

(* Regression for preempted jobs: a pin must hold a requeued job's
   newest checkpoint against both generational retention and pid-reuse
   GC until the job restarts. *)
let test_pin_protects_generation () =
  let _, store = mk ~keep:2 () in
  for g = 0 to 4 do
    ignore
      (put ~generation:g
         ~name:(Printf.sprintf "img-g%d" g)
         store
         [ Printf.sprintf "unique-%d" g ])
  done;
  Store.pin store ~lineage:"1-100" ~generation:1;
  check (Alcotest.option Alcotest.int) "pin recorded" (Some 1)
    (Store.pinned store ~lineage:"1-100");
  ignore (Store.gc_lineage store ~lineage:"1-100");
  Alcotest.(check bool) "pinned generation survives keep=2" true
    (Store.contains store ~name:"img-g1");
  Alcotest.(check bool) "generations newer than the pin survive" true
    (Store.contains store ~name:"img-g3");
  Alcotest.(check bool) "generation below the pin is collected" false
    (Store.contains store ~name:"img-g0");
  Store.unpin store ~lineage:"1-100";
  check (Alcotest.option Alcotest.int) "pin gone" None (Store.pinned store ~lineage:"1-100");
  ignore (Store.gc_lineage store ~lineage:"1-100");
  Alcotest.(check bool) "after unpin normal retention applies" false
    (Store.contains store ~name:"img-g1");
  Alcotest.(check bool) "newest two still kept" true (Store.contains store ~name:"img-g4")

(* GC closes the keep-set over [m_base]: a pinned (or retained) delta
   must hold its whole base chain alive, even across the retention
   horizon — collecting the base would orphan every restart from the
   chain. *)
let test_gc_keeps_pinned_delta_chain () =
  let _, store = mk ~keep:1 () in
  ignore (put ~generation:0 ~name:"img-g0" store [ String.make 400 'a' ]);
  ignore (put ~base:"img-g0" ~generation:1 ~name:"img-g1" store [ String.make 90 'd' ]);
  ignore (put ~generation:2 ~name:"img-g2" store [ String.make 500 'e' ]);
  Store.pin store ~lineage:"1-100" ~generation:1;
  ignore (Store.gc_lineage ~keep:1 store ~lineage:"1-100");
  Alcotest.(check bool) "pinned delta survives keep=1" true
    (Store.contains store ~name:"img-g1");
  Alcotest.(check bool) "its base generation survives too" true
    (Store.contains store ~name:"img-g0");
  check Alcotest.(list Alcotest.string) "catalog healthy after gc" [] (Store.verify store);
  (* unpinning releases the whole chain *)
  Store.unpin store ~lineage:"1-100";
  ignore (Store.gc_lineage ~keep:1 store ~lineage:"1-100");
  Alcotest.(check bool) "delta collected after unpin" false
    (Store.contains store ~name:"img-g1");
  Alcotest.(check bool) "base collected after unpin" false
    (Store.contains store ~name:"img-g0");
  Alcotest.(check bool) "newest generation kept" true (Store.contains store ~name:"img-g2")

let test_gc_keeps_retained_delta_chain () =
  (* no pin: the retention window alone must also close over bases *)
  let _, store = mk ~keep:1 () in
  ignore (put ~generation:0 ~name:"img-g0" store [ String.make 400 'a' ]);
  ignore (put ~base:"img-g0" ~generation:1 ~name:"img-g1" store [ String.make 90 'd' ]);
  ignore (Store.gc_lineage ~keep:1 store ~lineage:"1-100");
  Alcotest.(check bool) "retained delta's base survives keep=1" true
    (Store.contains store ~name:"img-g0");
  check Alcotest.(list Alcotest.string) "healthy" [] (Store.verify store)

(* a cyclic catalog (two deltas naming each other) must not hang the
   keep-set walk: GC terminates, keeps the retained delta and the base it
   names, and collects the rest *)
let test_gc_cyclic_chain () =
  let _, store = mk ~keep:1 () in
  ignore (put ~generation:0 ~name:"old" store [ String.make 300 'o' ]);
  ignore (put ~base:"cb" ~generation:1 ~name:"ca" store [ "a" ]);
  ignore (put ~base:"ca" ~generation:2 ~name:"cb" store [ "b" ]);
  let r = Store.gc_lineage ~keep:1 store ~lineage:"1-100" in
  check Alcotest.int "only the manifest outside the cycle is collected" 1 r.Store.gc_manifests;
  Alcotest.(check bool) "retained member kept" true (Store.contains store ~name:"cb");
  Alcotest.(check bool) "the base it names kept" true (Store.contains store ~name:"ca");
  Alcotest.(check bool) "older full image collected" false (Store.contains store ~name:"old")

let test_verify_flags_dangling_base () =
  let _, store = mk () in
  ignore (put ~base:"img-gone" ~generation:1 ~name:"img-g1" store [ "delta-bytes" ]);
  Alcotest.(check bool) "verify names the dangling base" true
    (List.exists
       (fun p ->
         (* the problem line names both the delta and its missing base *)
         let has needle s =
           let nl = String.length needle and sl = String.length s in
           let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
           go 0
         in
         has "img-gone" p && has "img-g1" p)
       (Store.verify store))

let test_gc_retention () =
  let _, store = mk ~keep:2 () in
  let shared = String.make 400 's' in
  for g = 0 to 4 do
    ignore
      (put ~generation:g
         ~name:(Printf.sprintf "img-g%d" g)
         store
         [ shared; Printf.sprintf "unique-%d" g ])
  done;
  check Alcotest.int "five generations catalogued" 5 (List.length (Store.manifests store));
  let r = Store.gc_lineage store ~lineage:"1-100" in
  check Alcotest.int "three manifests dropped" 3 r.Store.gc_manifests;
  check Alcotest.int "their unique blocks freed" 3 r.Store.gc_blocks;
  check Alcotest.int "newest two survive" 2 (List.length (Store.manifests store));
  Alcotest.(check bool) "old gone" false (Store.contains store ~name:"img-g2");
  check (Alcotest.option Alcotest.string) "kept generation intact"
    (Some (shared ^ "unique-4"))
    (Store.peek store ~name:"img-g4");
  check Alcotest.int "shared + 2 unique blocks remain" 3 (Store.block_count store);
  (* keep = 0 disables GC *)
  let _, s2 = mk ~keep:0 () in
  ignore (put ~generation:0 ~name:"a" s2 [ "p" ]);
  ignore (put ~generation:1 ~name:"b" s2 [ "q" ]);
  let r2 = Store.gc s2 in
  check Alcotest.int "keep=0 reclaims nothing" 0 r2.Store.gc_manifests

let test_drop_node_and_replica_fallback () =
  let _, store = mk ~nodes:4 ~replicas:2 () in
  let chunks = [ String.make 300 'm'; String.make 300 'n' ] in
  ignore (put ~node:1 store chunks);
  (* primary's disk dies: reads must come from the surviving replica *)
  Store.drop_node store 1;
  check Alcotest.int "one replica left"
    1
    (Store.replica_count store ~digest:(Store.Digest.of_chunk (List.hd chunks)));
  Alcotest.(check bool) "still available" true (Store.contains store ~name:"img-g0");
  check Alcotest.(list Alcotest.string) "verify clean with a survivor" [] (Store.verify store);
  (match Store.fetch store ~node:1 ~name:"img-g0" with
  | Some (bytes, _) -> check Alcotest.string "bit-identical from replica" (String.concat "" chunks) bytes
  | None -> Alcotest.fail "image lost with a replica surviving");
  (* now the survivor dies too *)
  Store.drop_node store 2;
  Store.drop_node store 0;
  Store.drop_node store 3;
  Alcotest.(check bool) "no longer available" false (Store.contains store ~name:"img-g0");
  Alcotest.(check bool) "verify reports the loss" true (Store.verify store <> []);
  match Store.fetch store ~node:1 ~name:"img-g0" with
  | exception Store.Missing_blocks names ->
    check Alcotest.int "every lost block named" 2 (List.length names)
  | Some _ -> Alcotest.fail "fetch succeeded with every replica gone"
  | None -> Alcotest.fail "fetch must raise, not hide the loss"

let test_placement_skips_dead_nodes () =
  let _, store = mk ~nodes:4 ~replicas:2 () in
  Store.drop_node store 1;
  ignore (put ~node:0 store [ "fresh" ]);
  let d = Store.Digest.of_chunk "fresh" in
  check Alcotest.int "still two replicas" 2 (Store.replica_count store ~digest:d);
  check Alcotest.(list Alcotest.string) "placed on live nodes only" [] (Store.verify store)

(* ------------------------------------------------------------------ *)
(* the chunker feeding the store *)

let image_with_blob blob =
  {
    Dmtcp.Ckpt_image.upid = Dmtcp.Upid.make ~hostid:2 ~pid:41 ~generation:0;
    vpid = 41;
    parent_vpid = 0;
    program = "p:test";
    fds = [];
    ptys = [];
    algo = Compress.Algo.Null;
    sizes = { Mtcp.Image.uncompressed = 1 lsl 20; compressed = 1 lsl 19; zero_bytes = 0 };
    mtcp_blob = blob;
    delta_base = None;
  }

(* pseudo-random, deterministic, and non-periodic over the sizes used
   here (a periodic payload would dedup frame-against-frame and hide
   the cross-generation ratio being measured) *)
let payload n =
  String.init n (fun i ->
      Char.chr ((i * 131 + ((i lsr 8) * 17) + ((i lsr 16) * 211)) land 0xff))

let test_chunk_concat_identity () =
  let data = payload 700_000 in
  let blob = Compress.Container.pack ~algo:Compress.Algo.Null data in
  let bytes = Dmtcp.Ckpt_image.encode (image_with_blob blob) in
  let chunks = Dmtcp.Ckpt_image.chunk bytes in
  check Alcotest.string "concat reproduces the image" bytes (String.concat "" chunks);
  (* 700 KB at 256 KiB frames = 3 frames, plus the image's metadata
     prefix, the container header, and the CRC tail *)
  check Alcotest.int "frame-aligned chunking" 6 (List.length chunks);
  (* unparseable bytes degrade to a single chunk *)
  check Alcotest.int "garbage is one chunk" 1 (List.length (Dmtcp.Ckpt_image.chunk "not an image"))

let test_chunk_stability_under_dirtying () =
  (* dirty one 256 KiB window of the input: only the frame covering it
     (plus the tiny prefix/suffix) may change — that is what makes the
     frames usable dedup units *)
  let n = 8 * 256 * 1024 in
  let data = payload n in
  let dirtied =
    let b = Bytes.of_string data in
    Bytes.fill b (3 * 256 * 1024) 4096 '!';
    Bytes.to_string b
  in
  let chunks_of d =
    Dmtcp.Ckpt_image.chunk
      (Dmtcp.Ckpt_image.encode (image_with_blob (Compress.Container.pack ~algo:Compress.Algo.Null d)))
  in
  let c0 = chunks_of data and c1 = chunks_of dirtied in
  check Alcotest.int "same chunk count" (List.length c0) (List.length c1);
  let differing = List.fold_left2 (fun acc a b -> if a = b then acc else acc + 1) 0 c0 c1 in
  check Alcotest.int "one frame + CRC tail differ" 2 differing

let test_store_dedup_ratio_on_dirty_pages () =
  (* the acceptance scenario, store-level: generation N+1 of a chunked
     image whose input dirtied 1 window out of 16 ships ~1/16 of the
     modeled bytes *)
  let _, store = mk () in
  let n = 16 * 256 * 1024 in
  let gen g =
    let b = Bytes.of_string (payload n) in
    if g > 0 then Bytes.fill b (5 * 256 * 1024) (256 * 1024) (Char.chr (g land 0xff));
    Dmtcp.Ckpt_image.encode
      (image_with_blob (Compress.Container.pack ~algo:Compress.Algo.Null (Bytes.to_string b)))
  in
  let put_gen g =
    let bytes = gen g in
    ignore
      (Store.put store ~node:0 ~lineage:"1-100" ~generation:g
         ~name:(Printf.sprintf "img-g%d" g) ~program:"p:test"
         ~sim_bytes:(String.length bytes) ~chunks:(Dmtcp.Ckpt_image.chunk bytes))
  in
  put_gen 0;
  let s0 = Store.stats store in
  put_gen 1;
  let s1 = Store.stats store in
  let full = s0.Store.bytes_written in
  let delta = s1.Store.bytes_written - s0.Store.bytes_written in
  Alcotest.(check bool)
    (Printf.sprintf "gen1 ships ~1 dirty window of %d full bytes (got %d)" full delta)
    true
    (delta > 0 && delta < full / 8);
  Alcotest.(check bool) "most blocks deduped" true (s1.Store.blocks_deduped >= 15)

(* ------------------------------------------------------------------ *)
(* delta-chain depth and striped fetch *)

let test_chain_depth () =
  let _, store = mk () in
  ignore (put ~name:"base" store [ "aaa" ]);
  ignore (put ~base:"base" ~name:"d1" store [ "bbb" ]);
  ignore (put ~base:"d1" ~name:"d2" store [ "ccc" ]);
  let depth name = Dmtcp.Image_chain.catalog_depth store ~name in
  check Alcotest.int "full image depth 0" 0 (depth "base");
  check Alcotest.int "first delta depth 1" 1 (depth "d1");
  check Alcotest.int "second delta depth 2" 2 (depth "d2");
  check Alcotest.int "unknown name depth 0" 0 (depth "nope")

(* catalog depth has no limit and stops on a cycle *)
let test_deep_and_cyclic_chains () =
  let _, store = mk () in
  ignore (put ~name:"l0" store [ "base" ]);
  for i = 1 to 70 do
    ignore (put ~base:(Printf.sprintf "l%d" (i - 1)) ~name:(Printf.sprintf "l%d" i) store [ "d" ])
  done;
  ignore (put ~base:"cb" ~name:"ca" store [ "a" ]);
  ignore (put ~base:"ca" ~name:"cb" store [ "b" ]);
  let depth name = Dmtcp.Image_chain.catalog_depth store ~name in
  check Alcotest.int "70-link chain reports its real depth" 70 (depth "l70");
  check Alcotest.int "cycle stops at the repeated name" 2 (depth "ca")

let test_striped_fetch_speedup () =
  (* eight equal blocks, read back from the writer's node: with two
     replicas the stripe splits the reads across both disks, so the
     modeled fetch delay must drop well below the single-replica case *)
  let chunks = List.init 8 (fun i -> String.make 100_000 (Char.chr (Char.code 'a' + i))) in
  let fetch_delay replicas =
    let eng, store = mk ~replicas () in
    ignore (put store chunks);
    (* drain the put's write bookings so the fetch measures reads only *)
    Sim.Engine.run ~until:10.0 eng;
    match Store.fetch store ~node:0 ~name:"img-g0" with
    | Some (bytes, delay) ->
      check Alcotest.string "bytes reassemble exactly" (String.concat "" chunks) bytes;
      delay
    | None -> Alcotest.fail "catalogued image not fetchable"
  in
  let single = fetch_delay 1 in
  let striped = fetch_delay 2 in
  Alcotest.(check bool)
    (Printf.sprintf "two replicas at least 1.5x faster (%.4f vs %.4f)" striped single)
    true
    (striped <= single /. 1.5)

(* ------------------------------------------------------------------ *)
(* end-to-end through the DMTCP stack *)

let setup_cluster () =
  let cl = Simos.Cluster.create ~nodes:4 () in
  let options =
    {
      Dmtcp.Options.default with
      Dmtcp.Options.store = true;
      store_replicas = 2;
      keep_generations = 2;
    }
  in
  let rt = Dmtcp.Api.install cl ~options () in
  (cl, rt)

let run_for cl s = Sim.Engine.run ~until:(Simos.Cluster.now cl +. s) (Simos.Cluster.engine cl)

let test_e2e_checkpoint_lands_in_store () =
  let cl, rt = setup_cluster () in
  let store = Option.get (Dmtcp.Runtime.store rt) in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:memhog" ~argv:[ "8"; "4000"; "/tmp/st1" ] in
  run_for cl 0.5;
  Dmtcp.Api.checkpoint_now rt;
  let s = Store.stats store in
  Alcotest.(check bool) "blocks written" true (s.Store.blocks_written > 0);
  check Alcotest.int "one image catalogued" 1 (List.length (Store.manifests store));
  let node, path = List.hd (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images in
  (* store mode: the catalog replaces the flat image file *)
  Alcotest.(check bool) "no flat image file" false
    (Simos.Vfs.exists (Simos.Kernel.vfs (Simos.Cluster.kernel cl node)) path);
  Alcotest.(check bool) "catalog resolves the script path" true
    (Store.contains store ~name:(Filename.basename path));
  check Alcotest.(list Alcotest.string) "replication healthy" [] (Store.verify store)

let test_e2e_interval_checkpoints_dedup () =
  let cl, rt = setup_cluster () in
  let store = Option.get (Dmtcp.Runtime.store rt) in
  (* the dirty-page workload: 24 pages (1.5 MB) of real data spanning
     several DMZ2 frames, 2 pages rewritten per iteration — the second
     checkpoint re-ships only the frames covering the dirtied pages *)
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:dirty" ~argv:[ "24"; "2"; "20000"; "/tmp/st2" ] in
  run_for cl 0.5;
  Dmtcp.Api.checkpoint_now rt;
  let s1 = Store.stats store in
  run_for cl 0.5;
  Dmtcp.Api.checkpoint_now rt;
  let s2 = Store.stats store in
  let deduped = s2.Store.blocks_deduped - s1.Store.blocks_deduped in
  let written = s2.Store.blocks_written - s1.Store.blocks_written in
  Alcotest.(check bool)
    (Printf.sprintf "second checkpoint mostly dedups (%d deduped, %d written)" deduped written)
    true
    (deduped > written && deduped > 0);
  let shipped = s2.Store.bytes_written - s1.Store.bytes_written in
  Alcotest.(check bool)
    (Printf.sprintf "gen N+1 target bytes proportional to the dirtied pages (%d of %d)" shipped
       s1.Store.bytes_written)
    true
    (shipped < s1.Store.bytes_written / 2);
  check Alcotest.int "catalog still one manifest per live image" 1
    (List.length (Store.manifests store))

let test_e2e_restart_from_replica () =
  let cl, rt = setup_cluster () in
  let store = Option.get (Dmtcp.Runtime.store rt) in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:memhog" ~argv:[ "8"; "400"; "/tmp/st3" ] in
  run_for cl 0.5;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  (* the image bytes the catalog would serve, before the disk loss *)
  let name =
    Filename.basename (snd (List.hd (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images))
  in
  let before = Option.get (Store.peek store ~name) in
  Store.drop_node store 1;
  check (Alcotest.option Alcotest.string) "replica serves identical bytes" (Some before)
    (Store.peek store ~name);
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  Simos.Cluster.run cl;
  match
    Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cl 1)) "/tmp/st3"
  with
  | Some f -> check Alcotest.string "computation finished correctly" "hog:400" (Simos.Vfs.read_all f)
  | None -> Alcotest.fail "restarted computation produced no output"

let test_e2e_pinned_chain_restart () =
  (* build a depth-3 delta chain through incremental checkpoints and pin
     the lineage (as the scheduler does for preempted jobs): the catalog
     and the image walk agree on the depth, and the pinned lineage
     restarts through its chain and finishes as an unfaulted run does *)
  let cl = Simos.Cluster.create ~nodes:4 () in
  let options =
    {
      Dmtcp.Options.default with
      Dmtcp.Options.store = true;
      store_replicas = 2;
      keep_generations = 2;
      incremental = true;
    }
  in
  let rt = Dmtcp.Api.install cl ~options () in
  let store = Option.get (Dmtcp.Runtime.store rt) in
  let _ = Dmtcp.Api.launch rt ~node:1 ~prog:"p:dirty" ~argv:[ "24"; "2"; "1000"; "/tmp/cp1" ] in
  run_for cl 0.5;
  Dmtcp.Api.checkpoint_now rt;
  run_for cl 0.2;
  Dmtcp.Api.checkpoint_now rt;
  run_for cl 0.2;
  Dmtcp.Api.checkpoint_now rt;
  run_for cl 0.2;
  Dmtcp.Api.checkpoint_now rt;
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  let name =
    Filename.basename (snd (List.hd (Dmtcp.Runtime.ckpt_info rt).Dmtcp.Runtime.images))
  in
  check Alcotest.int "three incremental checkpoints chained" 3
    (Dmtcp.Image_chain.catalog_depth store ~name);
  (* the image-level walk restart and inspect use agrees with the catalog *)
  let img, _ = Option.get (Dmtcp.Image_chain.peek rt name) in
  check Alcotest.int "image walk agrees with the catalog" 3
    (Util.Chain.depth (Dmtcp.Image_chain.peek_chain rt name img));
  let m = Option.get (Store.find store ~name) in
  Store.pin store ~lineage:m.Store.m_lineage ~generation:m.Store.m_generation;
  check Alcotest.(list Alcotest.string) "catalog healthy" [] (Store.verify store);
  Dmtcp.Api.restart rt script;
  Dmtcp.Api.await_restart rt;
  Simos.Cluster.run cl;
  match Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cl 1)) "/tmp/cp1" with
  | Some f ->
    check Alcotest.string "computation finished correctly" "dirty:1000" (Simos.Vfs.read_all f)
  | None -> Alcotest.fail "restart from the pinned chain produced no output"

let () =
  Alcotest.run "store"
    [
      ( "core",
        [
          Alcotest.test_case "put/fetch roundtrip" `Quick test_put_fetch_roundtrip;
          Alcotest.test_case "unknown name" `Quick test_fetch_unknown_is_none;
          Alcotest.test_case "dedup across generations" `Quick test_dedup_across_generations;
          Alcotest.test_case "re-put replaces" `Quick test_reput_replaces_manifest;
          Alcotest.test_case "quorum delay ordering" `Quick test_quorum_delay_ordering;
          Alcotest.test_case "replication counts" `Quick test_replication_counts;
          Alcotest.test_case "FNV-1a-64 vectors" `Quick test_digest_fnv1a_vectors;
          Alcotest.test_case "CRC-residue chunks stay distinct" `Quick
            test_digest_survives_crc_residue;
          Alcotest.test_case "fetch books the modeled size" `Quick test_fetch_books_modeled_bytes;
        ] );
      ( "gc",
        [
          Alcotest.test_case "generational retention" `Quick test_gc_retention;
          Alcotest.test_case "pinned delta chain survives gc" `Quick
            test_gc_keeps_pinned_delta_chain;
          Alcotest.test_case "retained delta chain survives gc" `Quick
            test_gc_keeps_retained_delta_chain;
          Alcotest.test_case "verify flags dangling base" `Quick test_verify_flags_dangling_base;
          Alcotest.test_case "pin protects requeued job's checkpoint" `Quick
            test_pin_protects_generation;
          Alcotest.test_case "cyclic chain terminates" `Quick test_gc_cyclic_chain;
        ] );
      ( "replica-loss",
        [
          Alcotest.test_case "fallback + missing blocks" `Quick test_drop_node_and_replica_fallback;
          Alcotest.test_case "placement skips dead nodes" `Quick test_placement_skips_dead_nodes;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "chain depth" `Quick test_chain_depth;
          Alcotest.test_case "deep and cyclic chains" `Quick test_deep_and_cyclic_chains;
          Alcotest.test_case "striped fetch speedup" `Quick test_striped_fetch_speedup;
        ] );
      ( "chunking",
        [
          Alcotest.test_case "concat identity" `Quick test_chunk_concat_identity;
          Alcotest.test_case "frame stability" `Quick test_chunk_stability_under_dirtying;
          Alcotest.test_case "dedup ratio on dirty pages" `Quick test_store_dedup_ratio_on_dirty_pages;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "checkpoint lands in store" `Quick test_e2e_checkpoint_lands_in_store;
          Alcotest.test_case "interval dedup" `Quick test_e2e_interval_checkpoints_dedup;
          Alcotest.test_case "restart from replica" `Quick test_e2e_restart_from_replica;
          Alcotest.test_case "pinned delta chain restarts" `Quick test_e2e_pinned_chain_restart;
        ] );
    ]
