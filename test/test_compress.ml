(* Tests for the compression stack: bit I/O, Huffman, LZ77, RLE, deflate,
   container framing, and the throughput model. *)

let check = Alcotest.check

(* Sample corpora with different redundancy characteristics. *)
let text_sample =
  String.concat " "
    (List.init 200 (fun i ->
         Printf.sprintf "the quick brown fox %d jumps over the lazy dog" (i mod 7)))

let random_sample n =
  let rng = Util.Rng.create 0xC0FFEEL in
  Bytes.unsafe_to_string (Util.Rng.bytes rng n)

let zero_sample n = String.make n '\000'

(* ------------------------------------------------------------------ *)
(* Bitio *)

let test_bitio_roundtrip () =
  let w = Compress.Bitio.Writer.create () in
  let fields = [ (0b1, 1); (0b1010, 4); (0xff, 8); (0b110, 3); (0x1234, 16); (0, 2) ] in
  List.iter (fun (bits, count) -> Compress.Bitio.Writer.put w ~bits ~count) fields;
  let r = Compress.Bitio.Reader.of_string (Compress.Bitio.Writer.contents w) in
  List.iter
    (fun (bits, count) -> check Alcotest.int (Printf.sprintf "%d bits" count) bits (Compress.Bitio.Reader.get r count))
    fields

let test_bitio_truncated () =
  let r = Compress.Bitio.Reader.of_string "" in
  Alcotest.check_raises "truncated" (Util.Codec.Reader.Corrupt "truncated bitstream") (fun () ->
      ignore (Compress.Bitio.Reader.get r 1))

let test_bitio_bit_length () =
  let w = Compress.Bitio.Writer.create () in
  Compress.Bitio.Writer.put w ~bits:0 ~count:13;
  check Alcotest.int "bit length" 13 (Compress.Bitio.Writer.bit_length w)

let prop_bitio_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"bitio round-trips arbitrary fields"
       QCheck.(small_list (pair (int_bound 0xffffff) (int_range 1 24)))
       (fun fields ->
         let fields = List.map (fun (bits, count) -> (bits land ((1 lsl count) - 1), count)) fields in
         let w = Compress.Bitio.Writer.create () in
         List.iter (fun (bits, count) -> Compress.Bitio.Writer.put w ~bits ~count) fields;
         let r = Compress.Bitio.Reader.of_string (Compress.Bitio.Writer.contents w) in
         List.for_all (fun (bits, count) -> Compress.Bitio.Reader.get r count = bits) fields))

(* ------------------------------------------------------------------ *)
(* Huffman *)

let huffman_roundtrip syms nsyms =
  let freq = Array.make nsyms 0 in
  List.iter (fun s -> freq.(s) <- freq.(s) + 1) syms;
  let lens = Compress.Huffman.lengths_of_freqs freq in
  let enc = Compress.Huffman.encoder_of_lengths lens in
  let dec = Compress.Huffman.decoder_of_lengths lens in
  let w = Compress.Bitio.Writer.create () in
  List.iter (fun s -> Compress.Huffman.encode enc w s) syms;
  let r = Compress.Bitio.Reader.of_string (Compress.Bitio.Writer.contents w) in
  List.map (fun _ -> Compress.Huffman.decode dec r) syms = syms

let test_huffman_simple () =
  Alcotest.(check bool) "round-trip" true (huffman_roundtrip [ 0; 1; 2; 0; 0; 1; 3; 0 ] 4)

let test_huffman_single_symbol () =
  Alcotest.(check bool) "single-symbol alphabet" true (huffman_roundtrip [ 5; 5; 5; 5 ] 8)

let test_huffman_skewed () =
  (* Extremely skewed frequencies exercise the depth-limit damping. *)
  let syms = List.concat (List.init 30 (fun i -> List.init (1 lsl min i 18) (fun _ -> i))) in
  (* This is big; sample it down but keep skew. *)
  let syms = List.filteri (fun i _ -> i mod 97 = 0) syms in
  Alcotest.(check bool) "skewed frequencies" true (huffman_roundtrip syms 30)

let test_huffman_optimality_order () =
  (* More frequent symbols must not get longer codes. *)
  let freq = [| 100; 50; 20; 5; 1 |] in
  let lens = Compress.Huffman.lengths_of_freqs freq in
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "len(%d) <= len(%d)" i (i + 1))
      true
      (lens.(i) <= lens.(i + 1))
  done

let test_huffman_no_symbols_rejected () =
  Alcotest.check_raises "empty alphabet" (Invalid_argument "Huffman.lengths_of_freqs: no symbols")
    (fun () -> ignore (Compress.Huffman.lengths_of_freqs [| 0; 0 |]))

(* Equal frequencies pop in insertion order, so the code lengths (and the
   Deflate bytes built from them) are pinned exactly, not just
   round-trippable.  Both tables change if ties pop last-in-first-out. *)
let test_huffman_tie_order () =
  let lens = Alcotest.(array int) in
  Alcotest.check lens "19 equal frequencies: every merge a tie"
    [| 5; 5; 5; 5; 5; 5; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4 |]
    (Compress.Huffman.lengths_of_freqs (Array.make 19 7));
  (* Fibonacci weights build a 19-deep chain, past max_bits, so the
     damp-and-retry path runs; the leaf/node ties decide the shape *)
  let fib = Array.make 20 1 in
  for i = 2 to 19 do
    fib.(i) <- fib.(i - 1) + fib.(i - 2)
  done;
  Alcotest.check lens "Fibonacci frequencies, damped"
    [| 10; 10; 10; 10; 9; 9; 8; 8; 7; 7; 6; 6; 5; 5; 4; 4; 3; 3; 2; 2 |]
    (Compress.Huffman.lengths_of_freqs fib)

(* Reference for the two-queue [lengths_of_freqs]: a Huffman tree built
   on [Util.Heap], leaves pushed in symbol order and ties popped in
   insertion order, with the same damp-and-retry past [max_bits]. *)
type tree = Leaf of int | Node of tree * tree

let reference_lengths freqs =
  let n = Array.length freqs in
  let lengths = Array.make n 0 in
  let used = Array.fold_left (fun acc f -> if f > 0 then acc + 1 else acc) 0 freqs in
  if used = 1 then Array.iteri (fun i f -> if f > 0 then lengths.(i) <- 1) freqs
  else begin
    let rec attempt freqs =
      let heap = Util.Heap.create ~dummy:(Leaf 0) () in
      let pop () = Option.get (Util.Heap.pop heap) in
      Array.iteri
        (fun i f -> if f > 0 then Util.Heap.push heap ~priority:(float_of_int f) (Leaf i))
        freqs;
      while Util.Heap.length heap > 1 do
        let f1, n1 = pop () in
        let f2, n2 = pop () in
        Util.Heap.push heap ~priority:(f1 +. f2) (Node (n1, n2))
      done;
      let _, root = pop () in
      Array.fill lengths 0 n 0;
      let too_deep = ref false in
      let rec assign depth = function
        | Leaf i ->
          lengths.(i) <- max depth 1;
          if depth > Compress.Huffman.max_bits then too_deep := true
        | Node (a, b) ->
          assign (depth + 1) a;
          assign (depth + 1) b
      in
      assign 0 root;
      if !too_deep then attempt (Array.map (fun f -> if f > 0 then (f / 2) + 1 else 0) freqs)
    in
    attempt freqs
  end;
  lengths

(* Frequency arrays of 2-286 symbols in three shapes: small counts
   (0-4, so most merges are ties), counts over six decades, and a
   shuffled Fibonacci prefix deep enough to force the damping path. *)
let freqs_gen =
  let open QCheck.Gen in
  let shaped n =
    oneof
      [
        array_size (return n) (int_bound 4);
        array_size (return n)
          (frequency
             [ (1, return 0); (4, map (fun e -> 1 + int_of_float (10. ** e)) (float_bound_inclusive 6.)) ]);
        (fun st ->
          let k = min n (2 + int_bound 28 st) in
          let fib = Array.make n 0 in
          let a = ref 1 and b = ref 1 in
          for i = 0 to k - 1 do
            fib.(i) <- !a;
            let c = !a + !b in
            a := !b;
            b := c
          done;
          shuffle_a fib st;
          fib);
      ]
  in
  int_range 2 286 >>= fun n ->
  map
    (fun a ->
      if Array.for_all (fun f -> f = 0) a then a.(0) <- 1;
      a)
    (shaped n)

let prop_huffman_matches_heap =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 21 |])
    (QCheck.Test.make ~count:600 ~name:"two-queue lengths equal the heap's"
       (QCheck.make ~print:QCheck.Print.(array int) freqs_gen)
       (fun freqs -> Compress.Huffman.lengths_of_freqs freqs = reference_lengths freqs))

let prop_huffman_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"huffman round-trips arbitrary symbol lists"
       QCheck.(list_of_size Gen.(1 -- 300) (int_bound 40))
       (fun syms -> huffman_roundtrip syms 41))

(* ------------------------------------------------------------------ *)
(* LZ77 *)

let lz77_roundtrip s = Compress.Lz77.reconstruct (Compress.Lz77.tokenize s) = s

let test_lz77_empty () = Alcotest.(check bool) "empty" true (lz77_roundtrip "")
let test_lz77_text () = Alcotest.(check bool) "text" true (lz77_roundtrip text_sample)
let test_lz77_random () = Alcotest.(check bool) "random" true (lz77_roundtrip (random_sample 10_000))
let test_lz77_zeros () = Alcotest.(check bool) "zeros" true (lz77_roundtrip (zero_sample 100_000))

let count_matches tokens =
  Compress.Lz77.fold tokens ~init:0 ~lit:(fun acc _ -> acc) ~mtch:(fun acc ~dist:_ ~len:_ -> acc + 1)

let test_lz77_finds_matches () =
  let tokens = Compress.Lz77.tokenize (String.concat "" (List.init 50 (fun _ -> "abcdefgh"))) in
  Alcotest.(check bool) "repetitive input yields matches" true (count_matches tokens > 0)

let test_lz77_token_bounds () =
  (* every emitted token decodes to an in-range literal or match *)
  let t = Compress.Lz77.tokenize (text_sample ^ random_sample 5_000) in
  let ok = ref true in
  Compress.Lz77.fold t ~init:()
    ~lit:(fun () c -> if Char.code c < 0 || Char.code c > 255 then ok := false)
    ~mtch:(fun () ~dist ~len ->
      if
        dist < 1 || dist > Compress.Lz77.window_size || len < Compress.Lz77.min_match
        || len > Compress.Lz77.max_match
      then ok := false);
  Alcotest.(check bool) "tokens within bounds" true !ok

(* Sizes that straddle the LZ77 window (32768): off-by-one bugs in
   match-distance or hash-chain pruning live exactly here. *)
let window = 32768

let adversarial_sizes =
  [ 0; 1; 2; window - 1; window; window + 1; (2 * window) - 1; 2 * window ]

(* One deterministic corpus per (size, flavour): pinned seeds so a
   failure names its input exactly. *)
let adversarial_samples =
  List.concat_map
    (fun n ->
      let rng = Util.Rng.create (Int64.of_int (0xBAD5EED + n)) in
      let random = Bytes.unsafe_to_string (Util.Rng.bytes rng n) in
      let repetitive = String.init n (fun i -> "abcabc!".[i mod 7]) in
      let zeros = String.make n '\000' in
      [
        (Printf.sprintf "random/%d" n, random);
        (Printf.sprintf "repetitive/%d" n, repetitive);
        (Printf.sprintf "zeros/%d" n, zeros);
      ])
    adversarial_sizes

let test_lz77_adversarial_sizes () =
  List.iter
    (fun (name, s) -> Alcotest.(check bool) name true (lz77_roundtrip s))
    adversarial_samples

let prop_lz77_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"lz77 round-trips arbitrary strings" QCheck.string lz77_roundtrip)

(* ------------------------------------------------------------------ *)
(* RLE *)

let rle_roundtrip s = Compress.Rle.decompress (Compress.Rle.compress s) = s

let test_rle_empty () = Alcotest.(check bool) "empty" true (rle_roundtrip "")
let test_rle_runs () = Alcotest.(check bool) "runs" true (rle_roundtrip "aaaabbbbccccddddddddddd")
let test_rle_no_runs () = Alcotest.(check bool) "no runs" true (rle_roundtrip "abcdefgh")
let test_rle_zeros_shrink () =
  let s = zero_sample 10_000 in
  Alcotest.(check bool) "zeros shrink a lot" true
    (String.length (Compress.Rle.compress s) < String.length s / 10)

let prop_rle_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"rle round-trips arbitrary strings" QCheck.string rle_roundtrip)

(* ------------------------------------------------------------------ *)
(* Deflate *)

let deflate_roundtrip s = Compress.Deflate.decompress (Compress.Deflate.compress s) = s

let test_deflate_empty () = Alcotest.(check bool) "empty" true (deflate_roundtrip "")
let test_deflate_text () = Alcotest.(check bool) "text" true (deflate_roundtrip text_sample)
let test_deflate_random () = Alcotest.(check bool) "random" true (deflate_roundtrip (random_sample 20_000))
let test_deflate_zeros () = Alcotest.(check bool) "zeros" true (deflate_roundtrip (zero_sample 50_000))

let test_deflate_compresses_text () =
  let packed = Compress.Deflate.compress text_sample in
  Alcotest.(check bool) "text shrinks 3x+" true (String.length packed * 3 < String.length text_sample)

let test_deflate_zeros_tiny () =
  let packed = Compress.Deflate.compress (zero_sample 100_000) in
  Alcotest.(check bool) "zeros shrink 100x+" true (String.length packed * 100 < 100_000)

let test_deflate_random_no_blowup () =
  let s = random_sample 10_000 in
  let packed = Compress.Deflate.compress s in
  Alcotest.(check bool) "random data grows < 15%" true
    (String.length packed < String.length s * 115 / 100)

let test_deflate_adversarial_sizes () =
  List.iter
    (fun (name, s) -> Alcotest.(check bool) name true (deflate_roundtrip s))
    adversarial_samples

(* A 400-byte block shaped like a sched-1k job image, whose container
   blocks are all 257-512 bytes: program name and argv, the DMTCP_*
   environment, then region records of small varints and page seeds. *)
let job_image_sample =
  let module W = Util.Codec.Writer in
  let w = W.create () in
  W.list W.string w
    [ "bench:pages"; "0"; "0"; "4"; "1"; "0x1.0624dd2f1a9fcp-10"; "830"; "/data/j0000_0" ];
  W.list (W.pair W.string W.string) w
    [
      ("DMTCP_HIJACK", "dmtcphijack.so");
      ("DMTCP_COORD_HOST", "0");
      ("DMTCP_COORD_PORT", "7800");
      ("DMTCP_CHECKPOINT_DIR", "/ckpt");
      ("DMTCP_GZIP", "deflate");
      ("DMTCP_FORKED", "1");
      ("DMTCP_INCREMENTAL", "1");
      ("DMTCP_INTERVAL", "0");
      ("DMTCP_SYNC", "0");
      ("DMTCP_LAZY_RESTART", "0");
    ];
  W.string w "bench:pages";
  let r = ref 0 in
  while W.length w < 400 do
    W.uvarint w (0x400000 + (!r * 0x10000));
    W.u8 w 3;
    W.uvarint w 4;
    W.i64 w (Int64.of_int (0x5bd1e995 * (!r + 1)));
    W.string w "/data/j0000_0";
    incr r
  done;
  String.sub (W.contents w) 0 400

(* The LZ77 tables are reused from call to call, so pin that a call's
   bytes depend on its input alone: the corpus packed in order matches
   a digest taken when every call allocated fresh tables, and so do the
   same calls in reverse order between tiny inputs and in a fresh
   domain. *)
let history_corpus =
  [ text_sample; random_sample 20_000; zero_sample 50_000; job_image_sample ]
  @ List.map snd adversarial_samples

let test_deflate_history_free () =
  let pack = List.map Compress.Deflate.compress in
  let in_order = pack history_corpus in
  check Alcotest.string "digest of the corpus packed in order" "134b44b2e94051ec8b5056f0539c4175"
    (Digest.to_hex (Digest.string (String.concat "" in_order)));
  let tiny = [ ""; "a"; "abcabc"; "\000\000\000\000" ] in
  let reversed =
    List.fold_left
      (fun acc s ->
        List.iter (fun t -> ignore (Compress.Deflate.compress t)) tiny;
        Compress.Deflate.compress s :: acc)
      [] (List.rev history_corpus)
  in
  Alcotest.(check (list string)) "reverse order between tiny inputs" in_order reversed;
  Alcotest.(check (list string)) "in a fresh domain" in_order
    (Domain.join (Domain.spawn (fun () -> pack history_corpus)))

let prop_deflate_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"deflate round-trips arbitrary strings" QCheck.string deflate_roundtrip)

let prop_deflate_roundtrip_runs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"deflate round-trips run-heavy strings"
       QCheck.(list (pair (map (fun n -> Char.chr (Char.code 'a' + n)) (int_bound 4)) (int_range 1 300)))
       (fun spec ->
         let s = String.concat "" (List.map (fun (c, n) -> String.make n c) spec) in
         deflate_roundtrip s))

(* ------------------------------------------------------------------ *)
(* Container (DMZ2 block format + legacy DMZ1) *)

let test_container_roundtrip_all_algos () =
  List.iter
    (fun algo ->
      let packed = Compress.Container.pack ~algo text_sample in
      check Alcotest.string (Compress.Algo.name algo) text_sample (Compress.Container.unpack packed);
      Alcotest.(check bool) "algo recorded" true (Compress.Container.algo_of packed = algo))
    Compress.Algo.all

let test_container_detects_corruption () =
  let packed = Compress.Container.pack ~algo:Compress.Algo.Deflate text_sample in
  (* Flip a byte in the body (past the header). *)
  let b = Bytes.of_string packed in
  let pos = Bytes.length b - 3 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
  let corrupted = Bytes.to_string b in
  Alcotest.(check bool) "corruption detected" true
    (try
       ignore (Compress.Container.unpack corrupted);
       false
     with Util.Codec.Reader.Corrupt _ -> true)

let test_container_bad_magic () =
  Alcotest.(check bool) "bad magic rejected" true
    (try
       ignore (Compress.Container.unpack "not a container at all");
       false
     with Util.Codec.Reader.Corrupt _ -> true)

(* Block-boundary sizes with a small test block size: off-by-one bugs in
   block splitting/reassembly live exactly at 0, 1, b-1, b, b+1 and a
   multi-block size with a ragged tail. *)
let block = 4096

let boundary_sizes = [ 0; 1; block - 1; block; block + 1; (3 * block) + 17 ]

let test_container_block_boundaries () =
  List.iter
    (fun algo ->
      List.iter
        (fun n ->
          let flavours =
            [
              ("random", random_sample n);
              ("repetitive", String.init n (fun i -> "abcabc!".[i mod 7]));
              ("zeros", zero_sample n);
            ]
          in
          List.iter
            (fun (flavour, s) ->
              let packed = Compress.Container.pack ~block_size:block ~algo s in
              check Alcotest.string
                (Printf.sprintf "%s/%s/%d" (Compress.Algo.name algo) flavour n)
                s (Compress.Container.unpack packed))
            flavours)
        boundary_sizes)
    Compress.Algo.all

let prop_container_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"container round-trips arbitrary strings at small block size"
       QCheck.(pair string (int_range 1 500))
       (fun (s, bs) ->
         Compress.Container.unpack (Compress.Container.pack ~block_size:bs ~algo:Compress.Algo.Deflate s) = s))

let test_container_stored_fallback () =
  (* incompressible input must not expand beyond the framing overhead:
     the deflate algo falls back to stored blocks *)
  List.iter
    (fun n ->
      let s = random_sample n in
      let packed = Compress.Container.pack ~algo:Compress.Algo.Deflate s in
      Alcotest.(check bool)
        (Printf.sprintf "random %d expands <= 1%%" n)
        true
        (String.length packed <= n + 64 + (n / 100)))
    [ 1_000; 65_536; 1_000_000 ]

let test_container_reports_block_index () =
  (* corrupt one block of a multi-block image: the error must name a
     block, and blocks other than the first must be nameable *)
  let s = String.concat "" (List.init 40 (fun i -> Printf.sprintf "block payload %d %s" i text_sample)) in
  let packed = Compress.Container.pack ~block_size:block ~algo:Compress.Algo.Deflate s in
  let flip pos =
    let b = Bytes.of_string packed in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
    Bytes.to_string b
  in
  let block_of_error pos =
    try
      ignore (Compress.Container.unpack (flip pos));
      None
    with Util.Codec.Reader.Corrupt msg -> (
      try Scanf.sscanf msg "block %d/%d" (fun b _ -> Some b) with Scanf.Scan_failure _ | End_of_file -> None)
  in
  (* a flip near the end lands in a late block; near the start of the
     payload area, in an early one *)
  match (block_of_error (String.length packed - 4), block_of_error 40) with
  | Some late, Some early ->
    Alcotest.(check bool) "late flip names a late block" true (late > early);
    Alcotest.(check bool) "early flip names an early block" true (early >= 0)
  | other ->
    Alcotest.failf "expected block-indexed errors, got %s"
      (match other with
      | None, None -> "neither"
      | None, _ -> "no late index"
      | _, None -> "no early index"
      | _ -> "?")

let prop_container_flip_detected =
  let packed = Compress.Container.pack ~block_size:256 ~algo:Compress.Algo.Deflate text_sample in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"container: any single-byte flip is detected or harmless"
       QCheck.(pair (int_bound 1_000_000) (int_bound 255))
       (fun (posseed, delta) ->
         let pos = posseed mod String.length packed in
         let b = Bytes.of_string packed in
         Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor max 1 delta));
         (* either the flip is rejected, or (e.g. the recorded algo tag,
            which block decoding does not rely on) the data still decodes
            exactly *)
         match Compress.Container.unpack (Bytes.to_string b) with
         | s -> s = text_sample
         | exception Util.Codec.Reader.Corrupt _ -> true))

(* ------------------------------------------------------------------ *)
(* corrupt-header hardening: implausible declared lengths must be
   rejected before any allocation is sized from them *)

let expect_corrupt name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Util.Codec.Reader.Corrupt _ -> true)

let test_container_huge_orig_len_rejected () =
  let w = Util.Codec.Writer.create () in
  Util.Codec.Writer.raw w "DMZ2";
  Util.Codec.Writer.u8 w 2 (* deflate *);
  Util.Codec.Writer.uvarint w 262144 (* block size *);
  Util.Codec.Writer.uvarint w (1 lsl 40) (* ~1 TB declared length *);
  Util.Codec.Writer.uvarint w 1;
  expect_corrupt "huge v2 orig_len rejected" (fun () ->
      Compress.Container.unpack (Util.Codec.Writer.contents w))

let test_container_huge_block_size_rejected () =
  let w = Util.Codec.Writer.create () in
  Util.Codec.Writer.raw w "DMZ2";
  Util.Codec.Writer.u8 w 2;
  Util.Codec.Writer.uvarint w (1 lsl 40);
  Util.Codec.Writer.uvarint w 100;
  Util.Codec.Writer.uvarint w 1;
  expect_corrupt "huge v2 block size rejected" (fun () ->
      Compress.Container.unpack (Util.Codec.Writer.contents w))

let test_deflate_huge_orig_len_rejected () =
  let w = Util.Codec.Writer.create () in
  Util.Codec.Writer.uvarint w (1 lsl 40);
  Util.Codec.Writer.uvarint w 0;
  Util.Codec.Writer.uvarint w 0;
  Util.Codec.Writer.string w "";
  expect_corrupt "huge deflate orig_len rejected" (fun () ->
      Compress.Deflate.decompress (Util.Codec.Writer.contents w))

let prop_container_header_fuzz =
  (* random mutations of the first 16 header bytes never crash, never
     demand absurd allocations: every outcome is Corrupt or a
     successful decode *)
  let packed = Compress.Container.pack ~block_size:512 ~algo:Compress.Algo.Deflate text_sample in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"container header fuzz: mutate first bytes"
       QCheck.(pair (int_bound 15) (int_range 1 255))
       (fun (pos, delta) ->
         let pos = min pos (String.length packed - 1) in
         let b = Bytes.of_string packed in
         Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor delta));
         match Compress.Container.unpack (Bytes.to_string b) with
         | _ -> true
         | exception Util.Codec.Reader.Corrupt _ -> true))

(* seeded decoder fuzz: a byte replaced, or a -1 varint written over or
   inserted into the first bytes, decodes or raises Corrupt, and nothing
   else *)
let fuzz_seed = 21

let fuzz_container =
  Decode_fuzz.property ~name:"fuzz: raw container" ~seed:fuzz_seed
    (lazy (Compress.Container.pack ~block_size:512 ~algo:Compress.Algo.Deflate text_sample))
    Compress.Container.unpack

let fuzz_deflate =
  Decode_fuzz.property ~name:"fuzz: raw deflate" ~seed:fuzz_seed
    (lazy (Compress.Deflate.compress text_sample))
    Compress.Deflate.decompress

let fuzz_rle =
  Decode_fuzz.property ~name:"fuzz: raw rle" ~seed:fuzz_seed
    (lazy (Compress.Rle.compress (text_sample ^ zero_sample 600)))
    Compress.Rle.decompress

(* Multi-block packs pinned byte for byte, with the [compress.*]
   counters each moves: the expected md5s and counts were taken when
   every block was encoded in order on the calling domain, so the
   bytes and the accounting cannot depend on which domain encodes a
   block.  The inputs cover stored, RLE and Deflate blocks, ragged
   tails, and block sizes of 4 KiB, 64 KiB and the default. *)
let pinned_text = String.concat "" (List.init 64 (fun i -> Printf.sprintf "%d %s" i text_sample))

let pinned_mix =
  let segment i =
    match i mod 4 with
    | 0 -> String.sub pinned_text (i * 997) 70_001
    | 1 -> random_sample 90_007
    | 2 -> zero_sample 50_021
    | _ -> String.init 30_011 (fun j -> Char.chr (Char.code 'a' + (j / 300 mod 26)))
  in
  let n = 3 * 512 * 1024 in
  String.sub (String.concat "" (List.init 28 segment)) 0 n

let compress_counters () =
  String.split_on_char '\n' (Trace.Metrics.snapshot_text ())
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ name; v ] when String.starts_with ~prefix:"compress." name -> Some (name, float_of_string v)
         | _ -> None)

let counter_deltas before after =
  List.filter_map
    (fun (name, v) ->
      let d = v -. Option.value ~default:0. (List.assoc_opt name before) in
      if d = 0. then None else Some (Printf.sprintf "%s=%.0f" name d))
    after
  |> String.concat " "

let pinned_packs =
  let d = Compress.Algo.Deflate in
  List.concat_map
    (fun bs ->
      [
        ("text", d, bs, pinned_text);
        ("random", d, bs, random_sample 600_000);
        ("zeros", d, bs, zero_sample 600_000);
        ("mix", d, bs, pinned_mix);
        ("mix", Compress.Algo.Rle, bs, pinned_mix);
        ("mix", Compress.Algo.Null, bs, pinned_mix);
      ])
    [ Some 4096; Some 65536; None ]

let pinned_expect =
  [
    ("text/deflate/4096", "f720a989d0ea82d86c7a881a581d8e12",
     "compress.blocks.deflate=144 compress.deflate.bytes_in=588918 compress.deflate.bytes_out=34811");
    ("random/deflate/4096", "0da5fd5ac8167480d4c4c776831068d3",
     "compress.blocks.stored=147 compress.deflate.bytes_in=600000 compress.deflate.bytes_out=601335");
    ("zeros/deflate/4096", "b2e9b51e0e8096557db94ad5cfbc5b3f",
     "compress.blocks.rle=147 compress.deflate.bytes_in=600000 compress.deflate.bytes_out=10564");
    ("mix/deflate/4096", "8e2046b4ea02a38ccf1f7eb783ef677c",
     "compress.blocks.deflate=126 compress.blocks.rle=117 compress.blocks.stored=141 compress.deflate.bytes_in=1572864 compress.deflate.bytes_out=643601");
    ("mix/rle/4096", "c5450c6ac4d46bb6a05b34213a8e948b",
     "compress.blocks.rle=123 compress.blocks.stored=261 compress.rle.bytes_in=1572864 compress.rle.bytes_out=1104614");
    ("mix/null/4096", "3dc2c7497a2833d8bf1c32297157d42f",
     "compress.blocks.stored=384 compress.null.bytes_in=1572864 compress.null.bytes_out=1576332");
    ("text/deflate/65536", "fb13c53ef34b7a6d51f4df74eb28c859",
     "compress.blocks.deflate=9 compress.deflate.bytes_in=588918 compress.deflate.bytes_out=5035");
    ("random/deflate/65536", "212dde8a04fca21f4763d38e3a5fd039",
     "compress.blocks.stored=10 compress.deflate.bytes_in=600000 compress.deflate.bytes_out=600120");
    ("zeros/deflate/65536", "32847d83d2e8881337967664627c2fbd",
     "compress.blocks.deflate=9 compress.blocks.rle=1 compress.deflate.bytes_in=600000 compress.deflate.bytes_out=2341");
    ("mix/deflate/65536", "2d1f47b6a39ba287e53b3d5f010f4c4e",
     "compress.blocks.deflate=22 compress.blocks.stored=2 compress.deflate.bytes_in=1572864 compress.deflate.bytes_out=613913");
    ("mix/rle/65536", "8aaace1681455395b618c92efee63822",
     "compress.blocks.rle=12 compress.blocks.stored=12 compress.rle.bytes_in=1572864 compress.rle.bytes_out=1104021");
    ("mix/null/65536", "ad23e116e502415ed10c57fa406ca089",
     "compress.blocks.stored=24 compress.null.bytes_in=1572864 compress.null.bytes_out=1573140");
    ("text/deflate/default", "bf9f51234aa0fceb669942216fa6a59c",
     "compress.blocks.deflate=3 compress.deflate.bytes_in=588918 compress.deflate.bytes_out=3640");
    ("random/deflate/default", "d31c662a11bd40f33b6a493f4201f056",
     "compress.blocks.stored=3 compress.deflate.bytes_in=600000 compress.deflate.bytes_out=600045");
    ("zeros/deflate/default", "76bc86a56a55573da2be45d49e8ef7eb",
     "compress.blocks.deflate=3 compress.deflate.bytes_in=600000 compress.deflate.bytes_out=1126");
    ("mix/deflate/default", "aeb035da2b9b41eb20fdb2cf55f93662",
     "compress.blocks.deflate=6 compress.deflate.bytes_in=1572864 compress.deflate.bytes_out=614506");
    ("mix/rle/default", "6aa40bcfff6ddac6b3db706d560f41da",
     "compress.blocks.rle=6 compress.rle.bytes_in=1572864 compress.rle.bytes_out=1110838");
    ("mix/null/default", "b60f065b235ac61cd89030eaa82d5a87",
     "compress.blocks.stored=6 compress.null.bytes_in=1572864 compress.null.bytes_out=1572942");
  ]

let test_container_multi_block_pinned () =
  let got =
    List.map
      (fun (name, algo, bs, s) ->
        let before = compress_counters () in
        let packed = Compress.Container.pack ?block_size:bs ~algo s in
        let deltas = counter_deltas before (compress_counters ()) in
        let label =
          Printf.sprintf "%s/%s/%s" name (Compress.Algo.name algo)
            (match bs with Some b -> string_of_int b | None -> "default")
        in
        (label, Digest.to_hex (Digest.string packed), deltas))
      pinned_packs
  in
  List.iter2
    (fun (l, m, d) (l', m', d') ->
      check Alcotest.string "case" l' l;
      check Alcotest.string (l ^ " md5") m' m;
      check Alcotest.string (l ^ " counter deltas") d' d)
    got pinned_expect

(* ------------------------------------------------------------------ *)
(* compression metrics surfaced through the trace registry *)

let test_container_metrics () =
  Trace.Metrics.reset ();
  ignore (Compress.Container.pack ~algo:Compress.Algo.Deflate (text_sample ^ random_sample 4096));
  let snap = Trace.Metrics.snapshot_text () in
  let mentions needle =
    let n = String.length needle and hlen = String.length snap in
    let rec go i = i + n <= hlen && (String.sub snap i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "metrics mention %S" needle) true (mentions needle))
    [ "compress.deflate.bytes_in"; "compress.deflate.bytes_out"; "compress.blocks." ]

(* ------------------------------------------------------------------ *)
(* Model *)

let test_model_compressed_slower_than_disk () =
  (* Core Figure 4a effect: deflate at ~21 MB/s is slower than a 100 MB/s
     disk, so compressed checkpoints take longer. *)
  let t = Compress.Model.compress_seconds ~algo:Compress.Algo.Deflate ~bytes:100_000_000 ~zero_bytes:0 in
  Alcotest.(check bool) "100 MB takes > 1 s to gzip" true (t > 1.0)

let test_model_zeros_faster () =
  let plain = Compress.Model.compress_seconds ~algo:Compress.Algo.Deflate ~bytes:1_000_000 ~zero_bytes:0 in
  let zeros = Compress.Model.compress_seconds ~algo:Compress.Algo.Deflate ~bytes:1_000_000 ~zero_bytes:1_000_000 in
  Alcotest.(check bool) "zero pages much faster" true (zeros *. 5. < plain)

let test_model_decompress_faster () =
  let c = Compress.Model.compress_seconds ~algo:Compress.Algo.Deflate ~bytes:1_000_000 ~zero_bytes:0 in
  let d = Compress.Model.decompress_seconds ~algo:Compress.Algo.Deflate ~bytes:1_000_000 ~zero_bytes:0 in
  Alcotest.(check bool) "gunzip faster than gzip" true (d < c)

let () =
  Alcotest.run "compress"
    [
      ( "bitio",
        [
          Alcotest.test_case "round-trip" `Quick test_bitio_roundtrip;
          Alcotest.test_case "truncated" `Quick test_bitio_truncated;
          Alcotest.test_case "bit length" `Quick test_bitio_bit_length;
          prop_bitio_roundtrip;
        ] );
      ( "huffman",
        [
          Alcotest.test_case "simple" `Quick test_huffman_simple;
          Alcotest.test_case "single symbol" `Quick test_huffman_single_symbol;
          Alcotest.test_case "skewed" `Quick test_huffman_skewed;
          Alcotest.test_case "frequency/length order" `Quick test_huffman_optimality_order;
          Alcotest.test_case "empty alphabet rejected" `Quick test_huffman_no_symbols_rejected;
          Alcotest.test_case "tie order pins code lengths" `Quick test_huffman_tie_order;
          prop_huffman_matches_heap;
          prop_huffman_roundtrip;
        ] );
      ( "lz77",
        [
          Alcotest.test_case "empty" `Quick test_lz77_empty;
          Alcotest.test_case "text" `Quick test_lz77_text;
          Alcotest.test_case "random" `Quick test_lz77_random;
          Alcotest.test_case "zeros" `Quick test_lz77_zeros;
          Alcotest.test_case "finds matches" `Quick test_lz77_finds_matches;
          Alcotest.test_case "token bounds" `Quick test_lz77_token_bounds;
          Alcotest.test_case "adversarial sizes" `Quick test_lz77_adversarial_sizes;
          prop_lz77_roundtrip;
        ] );
      ( "rle",
        [
          Alcotest.test_case "empty" `Quick test_rle_empty;
          Alcotest.test_case "runs" `Quick test_rle_runs;
          Alcotest.test_case "no runs" `Quick test_rle_no_runs;
          Alcotest.test_case "zeros shrink" `Quick test_rle_zeros_shrink;
          prop_rle_roundtrip;
        ] );
      ( "deflate",
        [
          Alcotest.test_case "empty" `Quick test_deflate_empty;
          Alcotest.test_case "text" `Quick test_deflate_text;
          Alcotest.test_case "random" `Quick test_deflate_random;
          Alcotest.test_case "zeros" `Quick test_deflate_zeros;
          Alcotest.test_case "compresses text" `Quick test_deflate_compresses_text;
          Alcotest.test_case "zeros compress hard" `Quick test_deflate_zeros_tiny;
          Alcotest.test_case "random no blowup" `Quick test_deflate_random_no_blowup;
          Alcotest.test_case "adversarial sizes" `Quick test_deflate_adversarial_sizes;
          Alcotest.test_case "bytes independent of call history" `Quick test_deflate_history_free;
          prop_deflate_roundtrip;
          prop_deflate_roundtrip_runs;
        ] );
      ( "container",
        [
          Alcotest.test_case "round-trip all algos" `Quick test_container_roundtrip_all_algos;
          Alcotest.test_case "detects corruption" `Quick test_container_detects_corruption;
          Alcotest.test_case "bad magic" `Quick test_container_bad_magic;
          Alcotest.test_case "block boundaries" `Quick test_container_block_boundaries;
          Alcotest.test_case "stored fallback bounds expansion" `Quick test_container_stored_fallback;
          Alcotest.test_case "corruption names block index" `Quick test_container_reports_block_index;
          Alcotest.test_case "multi-block bytes pinned" `Quick test_container_multi_block_pinned;
          prop_container_roundtrip;
          prop_container_flip_detected;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "huge v2 orig_len" `Quick test_container_huge_orig_len_rejected;
          Alcotest.test_case "huge v2 block size" `Quick test_container_huge_block_size_rejected;
          Alcotest.test_case "huge deflate orig_len" `Quick test_deflate_huge_orig_len_rejected;
          prop_container_header_fuzz;
          fuzz_container;
          fuzz_deflate;
          fuzz_rle;
        ] );
      ( "metrics",
        [ Alcotest.test_case "pack feeds the trace registry" `Quick test_container_metrics ] );
      ( "model",
        [
          Alcotest.test_case "compression slower than disk" `Quick test_model_compressed_slower_than_disk;
          Alcotest.test_case "zeros faster" `Quick test_model_zeros_faster;
          Alcotest.test_case "decompress faster" `Quick test_model_decompress_faster;
        ] );
    ]
