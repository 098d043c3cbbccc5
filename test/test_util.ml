(* Tests for the util library: RNG determinism, codec round-trips, CRC-32
   known-answer values, heap order and release, parallel init, statistics,
   table rendering. *)

open Util

let check = Alcotest.check
let qtest ?(count = 200) name arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_copy () =
  let a = Rng.create 7L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b)

let test_rng_split_independent () =
  let a = Rng.create 1L in
  let b = Rng.split a in
  let xs = List.init 32 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 32 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let t = Rng.create 99L in
  for _ = 1 to 10_000 do
    let v = Rng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_int_in () =
  let t = Rng.create 5L in
  for _ = 1 to 1000 do
    let v = Rng.int_in t (-3) 4 in
    if v < -3 || v > 4 then Alcotest.failf "out of range: %d" v
  done

let test_rng_float_bounds () =
  let t = Rng.create 11L in
  for _ = 1 to 10_000 do
    let v = Rng.float t 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.failf "out of bounds: %f" v
  done

let test_rng_gaussian_moments () =
  let t = Rng.create 3L in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add s (Rng.gaussian t ~mean:10. ~stddev:2.)
  done;
  Alcotest.(check bool) "mean near 10" true (abs_float (Stats.mean s -. 10.) < 0.1);
  Alcotest.(check bool) "stddev near 2" true (abs_float (Stats.stddev s -. 2.) < 0.1)

let test_rng_bytes_len () =
  let t = Rng.create 8L in
  List.iter (fun n -> check Alcotest.int "length" n (Bytes.length (Rng.bytes t n))) [ 0; 1; 7; 8; 9; 4096 ]

let test_rng_shuffle_permutation () =
  let t = Rng.create 21L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle t arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_exponential_positive () =
  let t = Rng.create 13L in
  for _ = 1 to 1000 do
    if Rng.exponential t ~mean:0.5 < 0. then Alcotest.fail "negative exponential sample"
  done

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_primitives () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 200;
  Codec.Writer.u16 w 65535;
  Codec.Writer.u32 w 123456789;
  Codec.Writer.i64 w (-42L);
  Codec.Writer.f64 w 3.14159;
  Codec.Writer.bool w true;
  Codec.Writer.string w "hello";
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  check Alcotest.int "u8" 200 (Codec.Reader.u8 r);
  check Alcotest.int "u16" 65535 (Codec.Reader.u16 r);
  check Alcotest.int "u32" 123456789 (Codec.Reader.u32 r);
  check Alcotest.int64 "i64" (-42L) (Codec.Reader.i64 r);
  check (Alcotest.float 1e-12) "f64" 3.14159 (Codec.Reader.f64 r);
  check Alcotest.bool "bool" true (Codec.Reader.bool r);
  check Alcotest.string "string" "hello" (Codec.Reader.string r);
  Codec.Reader.expect_end r

let test_codec_truncated () =
  let w = Codec.Writer.create () in
  Codec.Writer.u32 w 7;
  let s = Codec.Writer.contents w in
  let r = Codec.Reader.of_string (String.sub s 0 2) in
  Alcotest.check_raises "truncated" (Codec.Reader.Corrupt "truncated input (need 1 bytes, have 0)")
    (fun () -> ignore (Codec.Reader.u32 r))

let test_codec_trailing () =
  let r = Codec.Reader.of_string "xy" in
  ignore (Codec.Reader.u8 r);
  Alcotest.check_raises "trailing" (Codec.Reader.Corrupt "1 trailing bytes") (fun () ->
      Codec.Reader.expect_end r)

let test_codec_uvarint_negative () =
  let w = Codec.Writer.create () in
  Alcotest.check_raises "negative uvarint" (Invalid_argument "Codec.Writer.uvarint: negative")
    (fun () -> Codec.Writer.uvarint w (-1))

(* a count or length decoded as negative, or larger than the bytes
   left, is Corrupt before it sizes anything *)
let test_codec_bounded_counts () =
  let minus_one = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  check Alcotest.int "the 9-byte varint reads as -1" (-1)
    (Codec.Reader.uvarint (Codec.Reader.of_string minus_one));
  let huge =
    let w = Codec.Writer.create () in
    Codec.Writer.uvarint w (1 lsl 40);
    Codec.Writer.contents w
  in
  let rejects what prefix dec =
    match dec (Codec.Reader.of_string (prefix ^ "abc")) with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Codec.Reader.Corrupt _ -> ()
  in
  rejects "negative string length" minus_one Codec.Reader.string;
  rejects "negative list count" minus_one (Codec.Reader.list Codec.Reader.u8);
  rejects "negative array count" minus_one (Codec.Reader.array Codec.Reader.u8);
  rejects "huge array count" huge (Codec.Reader.array Codec.Reader.u8);
  rejects "count past the end" "\x04" Codec.Reader.count;
  rejects "negative raw length" "" (fun r -> Codec.Reader.raw r (-1));
  check Alcotest.int "count up to the bytes left" 3 (Codec.Reader.count (Codec.Reader.of_string "\x03abc"))

let test_codec_containers () =
  let enc w (a, bs, c) =
    Codec.Writer.varint w a;
    Codec.Writer.list Codec.Writer.string w bs;
    Codec.Writer.option Codec.Writer.f64 w c
  in
  let dec r =
    let a = Codec.Reader.varint r in
    let bs = Codec.Reader.list Codec.Reader.string r in
    let c = Codec.Reader.option Codec.Reader.f64 r in
    (a, bs, c)
  in
  let v = (-77, [ "a"; ""; "xyz" ], Some 2.5) in
  let v' = Codec.roundtrip enc dec v in
  Alcotest.(check bool) "containers round-trip" true (v = v')

let prop_varint_roundtrip =
  qtest "varint round-trip" QCheck.(int) (fun v ->
      Codec.roundtrip Codec.Writer.varint Codec.Reader.varint v = v)

let prop_uvarint_roundtrip =
  qtest "uvarint round-trip"
    QCheck.(map abs int)
    (fun v -> Codec.roundtrip Codec.Writer.uvarint Codec.Reader.uvarint v = v)

let prop_string_roundtrip =
  qtest "string round-trip" QCheck.(string) (fun s ->
      Codec.roundtrip Codec.Writer.string Codec.Reader.string s = s)

let prop_f64_roundtrip =
  qtest "f64 round-trip" QCheck.(float) (fun v ->
      let v' = Codec.roundtrip Codec.Writer.f64 Codec.Reader.f64 v in
      Int64.bits_of_float v = Int64.bits_of_float v')

(* ------------------------------------------------------------------ *)
(* Crc32 *)

let test_crc32_known_answers () =
  (* Standard CRC-32 check values. *)
  check Alcotest.int32 "empty" 0l (Crc32.digest "");
  check Alcotest.int32 "123456789" 0xCBF43926l (Crc32.digest "123456789");
  check Alcotest.int32 "a" 0xE8B7BE43l (Crc32.digest "a")

let test_crc32_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let one_shot = Crc32.digest s in
  let acc = Crc32.update Crc32.init s 0 10 in
  let acc = Crc32.update acc s 10 (String.length s - 10) in
  check Alcotest.int32 "incremental equals one-shot" one_shot (Crc32.finish acc)

let test_crc32_range_checked () =
  let rejects name pos len =
    match Crc32.update Crc32.init "abcdefgh" pos len with
    | _ -> Alcotest.failf "%s: range %d+%d of an 8-byte string accepted" name pos len
    | exception Invalid_argument _ -> ()
  in
  rejects "past the end" 4 5;
  rejects "start past the end" 9 0;
  rejects "negative start" (-1) 2;
  rejects "negative length" 2 (-1);
  check Alcotest.int32 "empty range at the end" Crc32.init (Crc32.update Crc32.init "abcdefgh" 8 0)

(* the textbook bit-at-a-time CRC-32, independent of the table code *)
let crc32_bitwise s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let prop_crc32_matches_bitwise =
  qtest ~count:500 "split update equals bitwise reference"
    QCheck.(pair (string_of_size (Gen.int_bound 300)) (int_bound 300))
    (fun (s, cut) ->
      let cut = cut mod (String.length s + 1) in
      let acc = Crc32.update Crc32.init s 0 cut in
      let acc = Crc32.update acc s cut (String.length s - cut) in
      Int32.equal (Crc32.finish acc) (crc32_bitwise s))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stats.of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  check Alcotest.int "count" 8 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-6) "stddev (sample)" 2.13809 (Stats.stddev s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.max s)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 0.) "mean of empty" 0. (Stats.mean s);
  check (Alcotest.float 0.) "stddev of empty" 0. (Stats.stddev s)

let test_stats_single () =
  let s = Stats.of_list [ 3.5 ] in
  check (Alcotest.float 0.) "stddev of singleton" 0. (Stats.stddev s);
  check (Alcotest.float 0.) "mean of singleton" 3.5 (Stats.mean s)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let s = Table.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bcd"; "22" ] ] in
  Alcotest.(check bool) "contains header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "line count" 5 (List.length lines)

let test_bar_chart_nonempty () =
  let series =
    [ { Table.series_name = "ckpt"; points = [ ("app1", 1.0); ("app2", 2.0) ] };
      { Table.series_name = "restart"; points = [ ("app1", 0.5); ("app2", 1.5) ] } ]
  in
  let s = Table.bar_chart ~title:"t" ~unit_label:"s" series in
  Alcotest.(check bool) "mentions app2" true
    (String.length s > 0
    &&
    let re_found = ref false in
    String.split_on_char '\n' s |> List.iter (fun l -> if String.length l >= 4 && String.sub l 0 4 = "app2" then re_found := true);
    !re_found)

(* ------------------------------------------------------------------ *)
(* Heap *)

let drain_heap h =
  let rec go acc = match Heap.pop h with None -> List.rev acc | Some pv -> go (pv :: acc) in
  go []

let prop_heap_sorted =
  qtest ~count:300 "heap pops sorted" QCheck.(list (float_bound_exclusive 1000.)) (fun priorities ->
      let h = Heap.create ~dummy:0 () in
      List.iteri (fun i p -> Heap.push h ~priority:p i) priorities;
      List.map fst (drain_heap h) = List.sort compare priorities)

let prop_heap_fifo_ties =
  qtest ~count:100 "heap preserves FIFO among ties" QCheck.(int_bound 50) (fun n ->
      let h = Heap.create ~dummy:0 () in
      for i = 0 to n do
        Heap.push h ~priority:1.0 i
      done;
      List.map snd (drain_heap h) = List.init (n + 1) Fun.id)

(* Random interleavings of pushes and pops against a sorted reference.
   Priorities come from four values, so most entries tie with others;
   the pushes outnumber the pops, so the heap grows past its first 16
   cells.  Pops alternate between [pop] and [take_into]. *)
type heap_op = Push of float | Pop

let prop_heap_model =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 300)
        (frequency [ (3, map (fun i -> Push (float_of_int i)) (int_range 0 3)); (2, return Pop) ]))
  in
  let print = function Push p -> Printf.sprintf "push %g" p | Pop -> "pop" in
  qtest ~count:300 "heap pops in (priority, insertion) order"
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map print ops)) gen)
    (fun ops ->
      let h = Heap.create ~dummy:(-1) () in
      let reference = ref [] and next = ref 0 and pops = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Push p ->
            Heap.push h ~priority:p !next;
            reference := List.merge compare !reference [ (p, !next) ];
            incr next;
            Heap.length h = List.length !reference
          | Pop -> (
            incr pops;
            let got =
              if !pops mod 2 = 0 then Heap.pop h
              else if Heap.is_empty h then None
              else
                let p = ref nan in
                let v = Heap.take_into h p in
                Some (!p, v)
            in
            match (!reference, got) with
            | [], None -> true
            | expected :: rest, Some entry ->
              reference := rest;
              expected = entry
            | _ -> false))
        ops)

(* A popped value must not stay reachable through the heap's array: the
   spare cells growth allocates and the cell each pop vacates hold the
   dummy.  The first check fails if growth fills with the first entry,
   the last if pop leaves a stale copy of the entry it moved to the root. *)
let test_heap_releases_popped () =
  let h = Heap.create ~dummy:(ref (-1)) () in
  let values = Weak.create 3 in
  let[@inline never] push_three () =
    List.iteri
      (fun i p ->
        let v = ref i in
        Weak.set values i (Some v);
        Heap.push h ~priority:p v)
      [ 1.0; 2.0; 3.0 ]
  in
  let[@inline never] pop_one () = ignore (Heap.pop h) in
  push_three ();
  pop_one ();
  pop_one ();
  Gc.full_major ();
  check Alcotest.bool "first popped value collected" false (Weak.check values 0);
  check Alcotest.bool "second popped value collected" false (Weak.check values 1);
  check Alcotest.(option int) "third still queued" (Some 2)
    (Option.map (fun (_, v) -> !v) (Heap.peek h));
  pop_one ();
  Gc.full_major ();
  check Alcotest.bool "last popped value collected" false (Weak.check values 2);
  check Alcotest.int "heap empty" 0 (Heap.length h)

let test_units () =
  check Alcotest.string "bytes" "512 B" (Units.pp_bytes 512);
  check Alcotest.string "mb" "225.0 MB" (Units.pp_mb (225 * Units.mb));
  check Alcotest.string "seconds" "2.000 s" (Units.pp_seconds 2.0);
  check Alcotest.string "millis" "1.500 ms" (Units.pp_seconds 0.0015)

(* ------------------------------------------------------------------ *)
(* Par *)

(* A pure [f] whose cost varies with its index, so that on two or more
   domains indices end out of order: a result stored in the order the
   calls end would land in the wrong slot. *)
let uneven i =
  let h = ref i in
  for _ = 1 to (i * 7919) mod 13 * 4_000 do
    h := ((!h * 31) + 17) land 0xffffff
  done;
  (i, !h)

let prop_par_init =
  qtest ~count:100 "init equals Array.init" QCheck.(int_range 0 64) (fun n ->
      Par.init n uneven = Array.init n uneven)

(* busy-wait until [ready ()] or [cpu_s] of process CPU time have passed *)
let spin ?(ready = fun () -> false) cpu_s =
  let deadline = Sys.time () +. cpu_s in
  while (not (ready ())) && Sys.time () < deadline do
    Domain.cpu_relax ()
  done

exception Low
exception High

(* Index 2 raises at once; index 1 raises only after it, so on two or
   more domains the higher index fails first in time.  The lower one's
   exception must still win.  Every call has ended when [init]
   returns, and none starts afterwards. *)
let test_par_lowest_failure_wins () =
  let started = Atomic.make 0 and running = Atomic.make 0 in
  let high_raised = Atomic.make false in
  let f i =
    Atomic.incr started;
    Atomic.incr running;
    Fun.protect
      ~finally:(fun () -> Atomic.decr running)
      (fun () ->
        match i with
        | 1 ->
          spin ~ready:(fun () -> Atomic.get high_raised) 1.0;
          spin 0.005;
          raise Low
        | 2 ->
          Atomic.set high_raised true;
          raise High
        | _ -> i)
  in
  (match Par.init 8 f with
  | _ -> Alcotest.fail "init returned although two indices raised"
  | exception Low -> ()
  | exception High -> Alcotest.fail "the higher index's exception was raised");
  check Alcotest.int "no call still running" 0 (Atomic.get running);
  let after = Atomic.get started in
  spin 0.05;
  check Alcotest.int "no call starts after init returns" after (Atomic.get started)

let test_par_nested () =
  let inner i j = uneven ((10 * i) + j) in
  Alcotest.(check bool) "nested results" true
    (Par.init 6 (fun i -> Par.init 5 (inner i)) = Array.init 6 (fun i -> Array.init 5 (inner i)));
  Alcotest.check_raises "an inner exception reaches the caller" Low (fun () ->
      ignore (Par.init 4 (fun i -> Par.init 4 (fun j -> if i = 2 && j = 3 then raise Low else j))))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_len;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
        ] );
      ( "codec",
        [
          Alcotest.test_case "primitives" `Quick test_codec_primitives;
          Alcotest.test_case "truncated input" `Quick test_codec_truncated;
          Alcotest.test_case "trailing bytes" `Quick test_codec_trailing;
          Alcotest.test_case "negative uvarint" `Quick test_codec_uvarint_negative;
          Alcotest.test_case "bounded counts" `Quick test_codec_bounded_counts;
          Alcotest.test_case "containers" `Quick test_codec_containers;
          prop_varint_roundtrip;
          prop_uvarint_roundtrip;
          prop_string_roundtrip;
          prop_f64_roundtrip;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known answers" `Quick test_crc32_known_answers;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
          Alcotest.test_case "range checked" `Quick test_crc32_range_checked;
          prop_crc32_matches_bitwise;
        ] );
      ( "heap",
        [
          prop_heap_sorted;
          prop_heap_fifo_ties;
          prop_heap_model;
          Alcotest.test_case "popped values are released" `Quick test_heap_releases_popped;
        ] );
      ( "par",
        [
          prop_par_init;
          Alcotest.test_case "lowest failing index wins" `Quick test_par_lowest_failure_wins;
          Alcotest.test_case "nested" `Quick test_par_nested;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "single" `Quick test_stats_single;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "bar chart" `Quick test_bar_chart_nonempty;
          Alcotest.test_case "units" `Quick test_units;
        ] );
    ]
