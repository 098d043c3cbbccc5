(* Tests for the paged memory model: entropy generators, page codecs,
   regions, address spaces, and copy-on-write fork semantics. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Entropy *)

let test_entropy_deterministic () =
  List.iter
    (fun cls ->
      let a = Mem.Entropy.generate cls ~seed:7L ~len:1000 in
      let b = Mem.Entropy.generate cls ~seed:7L ~len:1000 in
      check Alcotest.bytes (Mem.Entropy.name cls) a b)
    Mem.Entropy.all

let test_entropy_seed_matters () =
  let a = Mem.Entropy.generate Mem.Entropy.Random ~seed:1L ~len:64 in
  let b = Mem.Entropy.generate Mem.Entropy.Random ~seed:2L ~len:64 in
  Alcotest.(check bool) "different seeds differ" true (a <> b)

let test_entropy_ratio_ordering () =
  (* Compressibility must be ordered: zeros < text < random, and random
     must be essentially incompressible. *)
  let z = Mem.Entropy.deflate_ratio Mem.Entropy.Zeros in
  let tx = Mem.Entropy.deflate_ratio Mem.Entropy.Text in
  let r = Mem.Entropy.deflate_ratio Mem.Entropy.Random in
  Alcotest.(check bool) "zeros < text" true (z < tx);
  Alcotest.(check bool) "text < random" true (tx < r);
  Alcotest.(check bool) "zeros tiny" true (z < 0.01);
  Alcotest.(check bool) "random ~1" true (r > 0.9)

let test_entropy_ratio_memoized () =
  let a = Mem.Entropy.deflate_ratio Mem.Entropy.Code in
  let b = Mem.Entropy.deflate_ratio Mem.Entropy.Code in
  check (Alcotest.float 0.) "memoized ratio stable" a b

let test_entropy_codec () =
  List.iter
    (fun cls ->
      let cls' = Util.Codec.roundtrip Mem.Entropy.encode Mem.Entropy.decode cls in
      Alcotest.(check bool) (Mem.Entropy.name cls) true (cls = cls'))
    Mem.Entropy.all

(* ------------------------------------------------------------------ *)
(* Page *)

let test_page_materialize_deterministic () =
  let p = Mem.Page.Synthetic { seed = 99L; cls = Mem.Entropy.Numeric } in
  check Alcotest.string "same bytes twice" (Mem.Page.materialize p) (Mem.Page.materialize p)

let test_page_zero () =
  let b = Mem.Page.materialize Mem.Page.Zero in
  check Alcotest.int "page size" Mem.Page.size (String.length b);
  Alcotest.(check bool) "all zero" true (String.for_all (fun c -> c = '\000') b)

let test_page_codec_roundtrip () =
  let pages =
    [
      Mem.Page.Zero;
      Mem.Page.of_string
        (Bytes.to_string (Mem.Entropy.generate Mem.Entropy.Text ~seed:1L ~len:Mem.Page.size));
      Mem.Page.Synthetic { seed = 123L; cls = Mem.Entropy.Code };
    ]
  in
  List.iter
    (fun p ->
      let p' = Util.Codec.roundtrip Mem.Page.encode Mem.Page.decode p in
      Alcotest.(check bool) "page round-trip" true (Mem.Page.equal p p'))
    pages

let test_page_compressed_size_zero_small () =
  let sz = Mem.Page.compressed_size Compress.Algo.Deflate Mem.Page.Zero in
  Alcotest.(check bool) "zero page compresses to ~nothing" true (sz < 64)

let deflated_len data = String.length (Compress.Deflate.compress data)

let sized_as algo = function
  | Mem.Page.Materialized { sized = Some (a, _); _ } -> a = algo
  | Mem.Page.Materialized { sized = None; _ } | Mem.Page.Zero | Mem.Page.Synthetic _ -> false

(* the size memo never changes a size: the first and every later call
   equal a fresh compression of the page's bytes, and a second scheme is
   priced afresh rather than read from the first scheme's memo *)
let prop_page_size_memo =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"memoized size equals fresh Deflate"
       QCheck.(pair (int_bound 10_000) (int_bound (List.length Mem.Entropy.all - 1)))
       (fun (seed, cls) ->
         let cls = List.nth Mem.Entropy.all cls in
         let seed = Int64.of_int seed in
         let data = Bytes.to_string (Mem.Entropy.generate cls ~seed ~len:Mem.Page.size) in
         let p = Mem.Page.of_string data in
         let want = deflated_len data in
         let unsized = not (sized_as Compress.Algo.Deflate p) in
         let first = Mem.Page.compressed_size Compress.Algo.Deflate p in
         let memoized = sized_as Compress.Algo.Deflate p in
         let again = Mem.Page.compressed_size Compress.Algo.Deflate p in
         let rle = Mem.Page.compressed_size Compress.Algo.Rle p in
         unsized && memoized && first = want && again = want
         && rle = String.length (Compress.Rle.compress data)
         && Mem.Page.compressed_size Compress.Algo.Deflate p = want))

(* a write installs a fresh, unsized page: the old page's memo cannot
   leak onto the new bytes *)
let test_page_memo_not_stale_after_write () =
  let sp = Mem.Address_space.create () in
  let base = Bytes.to_string (Mem.Entropy.generate Mem.Entropy.Text ~seed:5L ~len:Mem.Page.size) in
  let heap =
    Mem.Address_space.map sp ~kind:Mem.Region.Heap ~perms:Mem.Region.rw ~bytes:Mem.Page.size
      ~content:(fun _ -> Mem.Page.of_string base)
      ()
  in
  let old = heap.Mem.Region.pages.(0) in
  check Alcotest.int "old page sized" (deflated_len base)
    (Mem.Page.compressed_size Compress.Algo.Deflate old);
  Mem.Address_space.write sp ~addr:(heap.Mem.Region.start_addr + 100) (String.make 16 '\xff');
  let fresh = heap.Mem.Region.pages.(0) in
  Alcotest.(check bool) "write installs an unsized page" false
    (sized_as Compress.Algo.Deflate fresh);
  let bytes = Mem.Page.materialize fresh in
  Alcotest.(check bool) "new bytes differ" false (String.equal base bytes);
  check Alcotest.int "new page priced from its own bytes" (deflated_len bytes)
    (Mem.Page.compressed_size Compress.Algo.Deflate fresh);
  check Alcotest.int "old page keeps its memo" (deflated_len base)
    (Mem.Page.compressed_size Compress.Algo.Deflate old)

let test_page_equal_ignores_memo () =
  let data = Bytes.to_string (Mem.Entropy.generate Mem.Entropy.Code ~seed:9L ~len:Mem.Page.size) in
  let sized = Mem.Page.of_string data and unsized = Mem.Page.of_string data in
  ignore (Mem.Page.compressed_size Compress.Algo.Deflate sized);
  Alcotest.(check bool) "only one is sized" true
    (sized_as Compress.Algo.Deflate sized && not (sized_as Compress.Algo.Deflate unsized));
  Alcotest.(check bool) "sized equals unsized" true (Mem.Page.equal sized unsized);
  Alcotest.(check bool) "unsized equals sized" true (Mem.Page.equal unsized sized);
  Alcotest.(check bool) "different bytes differ" false
    (Mem.Page.equal sized (Mem.Page.of_string (String.make Mem.Page.size 'x')));
  Alcotest.(check bool) "zero page is not a page of zero bytes" false
    (Mem.Page.equal Mem.Page.Zero (Mem.Page.of_string (String.make Mem.Page.size '\000')))

(* ------------------------------------------------------------------ *)
(* Address space *)

let make_space () =
  let sp = Mem.Address_space.create () in
  let _text =
    Mem.Address_space.map sp ~kind:Mem.Region.Text ~perms:Mem.Region.rx ~bytes:(8 * Mem.Page.size)
      ~content:(fun i -> Mem.Page.Synthetic { seed = Int64.of_int i; cls = Mem.Entropy.Code })
      ()
  in
  let heap = Mem.Address_space.map sp ~kind:Mem.Region.Heap ~perms:Mem.Region.rw ~bytes:(16 * Mem.Page.size) () in
  (sp, heap)

let test_space_map_addresses_disjoint () =
  let sp = Mem.Address_space.create () in
  let a = Mem.Address_space.map sp ~kind:Mem.Region.Heap ~perms:Mem.Region.rw ~bytes:4096 () in
  let b = Mem.Address_space.map sp ~kind:Mem.Region.Heap ~perms:Mem.Region.rw ~bytes:4096 () in
  Alcotest.(check bool) "disjoint" true
    (Mem.Region.end_addr a <= b.Mem.Region.start_addr || Mem.Region.end_addr b <= a.Mem.Region.start_addr)

let test_space_read_write_roundtrip () =
  let sp, heap = make_space () in
  let addr = heap.Mem.Region.start_addr + 100 in
  Mem.Address_space.write sp ~addr "hello, checkpoint";
  check Alcotest.string "read back" "hello, checkpoint"
    (Mem.Address_space.read sp ~addr ~len:17)

let test_space_write_across_pages () =
  let sp, heap = make_space () in
  let addr = heap.Mem.Region.start_addr + Mem.Page.size - 3 in
  Mem.Address_space.write sp ~addr "abcdefgh";
  check Alcotest.string "crosses page boundary" "abcdefgh" (Mem.Address_space.read sp ~addr ~len:8)

let test_space_unmapped_access_rejected () =
  let sp, _ = make_space () in
  Alcotest.(check bool) "unmapped read raises" true
    (try
       ignore (Mem.Address_space.read sp ~addr:0x10 ~len:1);
       false
     with Invalid_argument _ -> true)

let test_space_cross_region_access_rejected () =
  let sp, heap = make_space () in
  let addr = Mem.Region.end_addr heap - 2 in
  Alcotest.(check bool) "crossing region end raises" true
    (try
       ignore (Mem.Address_space.read sp ~addr ~len:10);
       false
     with Invalid_argument _ -> true)

let test_space_fork_isolation () =
  let sp, heap = make_space () in
  let addr = heap.Mem.Region.start_addr in
  Mem.Address_space.write sp ~addr "original";
  let child = Mem.Address_space.fork sp in
  Mem.Address_space.write sp ~addr "PARENT!!";
  check Alcotest.string "child unaffected by parent write" "original"
    (Mem.Address_space.read child ~addr ~len:8);
  Mem.Address_space.write child ~addr "CHILD!!!";
  check Alcotest.string "parent unaffected by child write" "PARENT!!"
    (Mem.Address_space.read sp ~addr ~len:8)

let test_space_shared_mapping_visible () =
  let sp, _ = make_space () in
  let shared =
    Mem.Address_space.map sp
      ~kind:(Mem.Region.Mmap_shared { backing_path = "/dev/shm/seg0" })
      ~perms:Mem.Region.rw ~bytes:4096 ()
  in
  let child = Mem.Address_space.fork sp in
  let addr = shared.Mem.Region.start_addr in
  Mem.Address_space.write sp ~addr "shared-data";
  check Alcotest.string "visible through fork" "shared-data"
    (Mem.Address_space.read child ~addr ~len:11)

let test_space_zero_accounting () =
  let sp = Mem.Address_space.create () in
  let r = Mem.Address_space.map sp ~kind:Mem.Region.Heap ~perms:Mem.Region.rw ~bytes:(4 * Mem.Page.size) () in
  check Alcotest.int "all zero initially" (4 * Mem.Page.size) (Mem.Address_space.zero_bytes sp);
  Mem.Address_space.write sp ~addr:r.Mem.Region.start_addr "x";
  check Alcotest.int "one page dirtied" (3 * Mem.Page.size) (Mem.Address_space.zero_bytes sp)

let test_space_codec_roundtrip () =
  let sp, heap = make_space () in
  Mem.Address_space.write sp ~addr:heap.Mem.Region.start_addr "persisted";
  let sp' = Util.Codec.roundtrip Mem.Address_space.encode Mem.Address_space.decode sp in
  Alcotest.(check bool) "spaces equal" true (Mem.Address_space.equal sp sp');
  check Alcotest.string "data survives" "persisted"
    (Mem.Address_space.read sp' ~addr:heap.Mem.Region.start_addr ~len:9)

let prop_write_read =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"write then read returns written bytes"
       QCheck.(pair (string_of_size QCheck.Gen.(1 -- 300)) (int_bound 5000))
       (fun (s, off) ->
         let sp = Mem.Address_space.create () in
         let r = Mem.Address_space.map sp ~kind:Mem.Region.Heap ~perms:Mem.Region.rw ~bytes:(4 * Mem.Page.size) () in
         let off = off mod ((4 * Mem.Page.size) - String.length s) in
         let addr = r.Mem.Region.start_addr + off in
         Mem.Address_space.write sp ~addr s;
         Mem.Address_space.read sp ~addr ~len:(String.length s) = s))

let prop_fork_preserves_equality =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"fork is observationally equal until a write"
       QCheck.(small_string)
       (fun s ->
         let sp = Mem.Address_space.create () in
         let r = Mem.Address_space.map sp ~kind:Mem.Region.Data ~perms:Mem.Region.rw ~bytes:4096 () in
         if String.length s > 0 then Mem.Address_space.write sp ~addr:r.Mem.Region.start_addr s;
         let child = Mem.Address_space.fork sp in
         Mem.Address_space.equal sp child))

(* ------------------------------------------------------------------ *)
(* per-page dirty tracking (incremental checkpointing) *)

let test_dirty_fresh_and_clear () =
  let sp, heap = make_space () in
  (* freshly mapped pages are all dirty: the first checkpoint after a
     map must write them even if nothing ever stored to them *)
  Alcotest.(check bool) "fresh region fully dirty" true
    (List.for_all (Mem.Region.is_dirty heap) (List.init (Mem.Region.npages heap) Fun.id));
  check Alcotest.int "space sums regions" (8 + 16) (Mem.Address_space.dirty_pages sp);
  Mem.Address_space.clear_dirty sp;
  check Alcotest.int "clear empties every region" 0 (Mem.Address_space.dirty_pages sp)

let test_dirty_write_marks_page () =
  let sp, heap = make_space () in
  Mem.Address_space.clear_dirty sp;
  let addr = heap.Mem.Region.start_addr + (3 * Mem.Page.size) + 17 in
  Mem.Address_space.write sp ~addr "x";
  check Alcotest.int "exactly one page dirty" 1 (Mem.Address_space.dirty_pages sp);
  Alcotest.(check bool) "the written page" true (Mem.Region.is_dirty heap 3);
  Alcotest.(check bool) "not its neighbour" false (Mem.Region.is_dirty heap 2);
  (* a write spanning a page boundary dirties both sides *)
  Mem.Address_space.write sp
    ~addr:(heap.Mem.Region.start_addr + (5 * Mem.Page.size) - 2)
    "abcd";
  Alcotest.(check bool) "boundary write dirties both" true
    (Mem.Region.is_dirty heap 4 && Mem.Region.is_dirty heap 5)

let test_dirty_snapshot_independent () =
  (* fork (= checkpoint snapshot) copies the bitmap: clearing the live
     space must not erase the snapshot's record of what was dirty *)
  let sp, heap = make_space () in
  Mem.Address_space.clear_dirty sp;
  Mem.Address_space.write sp ~addr:heap.Mem.Region.start_addr "dirty";
  let snap = Mem.Address_space.fork sp in
  Mem.Address_space.clear_dirty sp;
  check Alcotest.int "live cleared" 0 (Mem.Address_space.dirty_pages sp);
  check Alcotest.int "snapshot keeps its bits" 1 (Mem.Address_space.dirty_pages snap);
  (* and the other way: dirtying the live space leaves the snapshot *)
  Mem.Address_space.write sp ~addr:heap.Mem.Region.start_addr "more"
  |> fun () -> check Alcotest.int "snapshot still one" 1 (Mem.Address_space.dirty_pages snap)

let test_dirty_shared_always_full () =
  (* attached views share the region record, so another process's clear
     could hide writes: shared segments always count fully dirty *)
  let sp, _ = make_space () in
  let seg =
    Mem.Address_space.map sp
      ~kind:(Mem.Region.Mmap_shared { backing_path = "/dev/shm/dirty0" })
      ~perms:Mem.Region.rw ~bytes:(2 * Mem.Page.size) ()
  in
  Mem.Address_space.clear_dirty sp;
  Alcotest.(check bool) "shared still ships every page" true
    (Mem.Region.ships seg 0 && Mem.Region.ships seg 1);
  check Alcotest.int "and only they count" 2 (Mem.Address_space.dirty_pages sp)

(* ------------------------------------------------------------------ *)
(* per-page residency (demand-paged lazy restore) *)

let test_resident_fresh_absent_faultin () =
  let sp, heap = make_space () in
  check Alcotest.int "fresh space fully resident" (8 + 16) (Mem.Address_space.resident_pages sp);
  check Alcotest.int "counts every page" (8 + 16) (Mem.Address_space.total_pages sp);
  Mem.Region.mark_all_absent heap;
  check Alcotest.int "absent region drops out" 8 (Mem.Address_space.resident_pages sp);
  Alcotest.(check bool) "page reads absent" false (Mem.Region.is_resident heap 3);
  Mem.Region.set_resident heap 3;
  Alcotest.(check bool) "fault-in marks the page" true (Mem.Region.is_resident heap 3);
  check Alcotest.int "one page back" 9 (Mem.Address_space.resident_pages sp);
  check Alcotest.int "region count agrees" 1 (Mem.Region.resident_count heap);
  (* a store makes its page resident, like the kernel's fault hook *)
  Mem.Address_space.write sp ~addr:(heap.Mem.Region.start_addr + Mem.Page.size) "x";
  Alcotest.(check bool) "written page resident" true (Mem.Region.is_resident heap 1)

let test_resident_excluded_from_codec () =
  (* residency is a restart-time accounting device: it never travels
     through the image codec, never affects equality, and a decoded
     region always comes back fully resident *)
  let sp, heap = make_space () in
  let encoded sp =
    let w = Util.Codec.Writer.create () in
    Mem.Address_space.encode w sp;
    Util.Codec.Writer.contents w
  in
  let full = encoded sp in
  Mem.Region.mark_all_absent heap;
  check Alcotest.string "encode ignores residency" full (encoded sp);
  let sp2 = Mem.Address_space.decode (Util.Codec.Reader.of_string full) in
  Alcotest.(check bool) "equality ignores residency" true (Mem.Address_space.equal sp sp2);
  check Alcotest.int "decoded space fully resident" (8 + 16)
    (Mem.Address_space.resident_pages sp2)

let () =
  Alcotest.run "mem"
    [
      ( "entropy",
        [
          Alcotest.test_case "deterministic" `Quick test_entropy_deterministic;
          Alcotest.test_case "seed matters" `Quick test_entropy_seed_matters;
          Alcotest.test_case "ratio ordering" `Quick test_entropy_ratio_ordering;
          Alcotest.test_case "ratio memoized" `Quick test_entropy_ratio_memoized;
          Alcotest.test_case "codec" `Quick test_entropy_codec;
        ] );
      ( "page",
        [
          Alcotest.test_case "materialize deterministic" `Quick test_page_materialize_deterministic;
          Alcotest.test_case "zero page" `Quick test_page_zero;
          Alcotest.test_case "codec round-trip" `Quick test_page_codec_roundtrip;
          Alcotest.test_case "zero compressed size" `Quick test_page_compressed_size_zero_small;
          prop_page_size_memo;
          Alcotest.test_case "memo not stale after write" `Quick
            test_page_memo_not_stale_after_write;
          Alcotest.test_case "equal ignores memo" `Quick test_page_equal_ignores_memo;
        ] );
      ( "address-space",
        [
          Alcotest.test_case "disjoint mappings" `Quick test_space_map_addresses_disjoint;
          Alcotest.test_case "read/write round-trip" `Quick test_space_read_write_roundtrip;
          Alcotest.test_case "write across pages" `Quick test_space_write_across_pages;
          Alcotest.test_case "unmapped access rejected" `Quick test_space_unmapped_access_rejected;
          Alcotest.test_case "cross-region access rejected" `Quick test_space_cross_region_access_rejected;
          Alcotest.test_case "fork isolation (COW)" `Quick test_space_fork_isolation;
          Alcotest.test_case "shared mapping visible" `Quick test_space_shared_mapping_visible;
          Alcotest.test_case "zero accounting" `Quick test_space_zero_accounting;
          Alcotest.test_case "codec round-trip" `Quick test_space_codec_roundtrip;
          prop_write_read;
          prop_fork_preserves_equality;
        ] );
      ( "dirty-tracking",
        [
          Alcotest.test_case "fresh pages dirty, clear resets" `Quick test_dirty_fresh_and_clear;
          Alcotest.test_case "writes mark pages" `Quick test_dirty_write_marks_page;
          Alcotest.test_case "snapshot bitmap independent" `Quick test_dirty_snapshot_independent;
          Alcotest.test_case "shared segments stay dirty" `Quick test_dirty_shared_always_full;
        ] );
      ( "resident",
        [
          Alcotest.test_case "fresh, absent, fault-in accounting" `Quick
            test_resident_fresh_absent_faultin;
          Alcotest.test_case "excluded from codec and equality" `Quick
            test_resident_excluded_from_codec;
        ] );
    ]
