(* The tracing/metrics layer: emitter gating, sinks, filtering,
   deterministic rendering (golden file), queries, the metrics registry,
   and end-to-end trace determinism across identical chaos runs. *)

let check = Alcotest.check

let ev ?(node = -1) ?(pid = -1) ~cat ~name ?(args = []) ~time kind =
  { Trace.time; node; pid; cat; name; kind; args }

let sample_events =
  [
    ev ~time:0.5 ~cat:"sim" ~name:"boot" Trace.Instant;
    ev ~time:1.051010125 ~node:0 ~pid:101 ~cat:"dmtcp" ~name:"coord/ckpt-start"
      ~args:[ ("participants", "9") ]
      Trace.Instant;
    ev ~time:1.051010125 ~node:1 ~pid:204 ~cat:"dmtcp" ~name:"ckpt/drain" (Trace.Span 0.0021);
    ev ~time:1.06 ~node:1 ~pid:204 ~cat:"net" ~name:"seg/send"
      ~args:[ ("dst", "2"); ("len", "1448") ]
      Trace.Instant;
    ev ~time:1.2 ~node:2 ~pid:301 ~cat:"dmtcp" ~name:"mgr/drained-bytes" (Trace.Counter 8192.);
    ev ~time:2.0 ~node:2 ~pid:301 ~cat:"storage" ~name:"write"
      ~args:[ ("dev", "disk"); ("bytes", "65536") ]
      Trace.Instant;
    (* one scheduler preemption cycle: a high-priority arrival displaces
       a running job, which checkpoints, requeues and later restarts *)
    ev ~time:2.5 ~cat:"sched" ~name:"sched/submit"
      ~args:[ ("job", "2"); ("name", "big"); ("nodes", "6"); ("prio", "5") ]
      Trace.Instant;
    ev ~time:2.5 ~cat:"sched" ~name:"sched/preempt"
      ~args:[ ("victim", "1"); ("by", "2") ]
      Trace.Instant;
    ev ~time:2.73 ~cat:"sched" ~name:"sched/ckpt-saved"
      ~args:[ ("job", "1"); ("images", "2") ]
      Trace.Instant;
    ev ~time:2.74 ~cat:"sched" ~name:"sched/place"
      ~args:[ ("job", "2"); ("alloc", "2,3,4,5,6,7") ]
      Trace.Instant;
    ev ~time:5.81 ~cat:"sched" ~name:"sched/restart-recovery"
      ~args:[ ("job", "1") ]
      (Trace.Span 0.31);
  ]

(* ------------------------------------------------------------------ *)

let test_emitters_off_are_noops () =
  Alcotest.(check bool) "off by default" false (Trace.on ());
  (* must not raise, must not leak anywhere observable *)
  Trace.span ~cat:"dmtcp" ~name:"x" ~time:1. ~dur:0.1 ();
  Trace.instant ~cat:"sim" ~name:"y" ~time:1. ();
  Trace.counter ~cat:"net" ~name:"z" ~time:1. 5.;
  let c = Trace.collector () in
  check Alcotest.int "nothing collected" 0 (List.length (Trace.events c))

let test_collector_and_nesting () =
  let outer = Trace.collector () in
  let inner = Trace.collector () in
  Trace.with_sink (Trace.collector_sink outer) (fun () ->
      Trace.instant ~cat:"sim" ~name:"a" ~time:1. ();
      Trace.with_sink (Trace.collector_sink inner) (fun () ->
          Alcotest.(check bool) "on with sinks" true (Trace.on ());
          Trace.instant ~cat:"sim" ~name:"b" ~time:2. ());
      Trace.instant ~cat:"sim" ~name:"c" ~time:3. ());
  Alcotest.(check bool) "off after with_sink" false (Trace.on ());
  check Alcotest.int "outer saw all three" 3 (List.length (Trace.events outer));
  check (Alcotest.list Alcotest.string) "inner saw only the nested one" [ "b" ]
    (List.map (fun e -> e.Trace.name) (Trace.events inner))

let test_filter () =
  let f = { Trace.no_filter with Trace.f_cat = Some "dmtcp"; f_prefix = Some "ckpt/" } in
  let hits = List.filter (Trace.matches f) sample_events in
  check (Alcotest.list Alcotest.string) "cat+prefix" [ "ckpt/drain" ]
    (List.map (fun e -> e.Trace.name) hits);
  let f = { Trace.no_filter with Trace.f_node = Some 2 } in
  check Alcotest.int "node filter" 2 (List.length (List.filter (Trace.matches f) sample_events));
  let f = { Trace.no_filter with Trace.f_pid = Some 101 } in
  check Alcotest.int "pid filter" 1 (List.length (List.filter (Trace.matches f) sample_events))

let test_ring_keeps_tail_per_node () =
  let r = Trace.ring ~per_node:3 ~cat:"dmtcp" () in
  Trace.with_sink (Trace.ring_sink r) (fun () ->
      for i = 1 to 10 do
        Trace.instant ~node:1 ~pid:9 ~cat:"dmtcp"
          ~name:(Printf.sprintf "e%d" i)
          ~time:(float_of_int i) ();
        (* wrong category: must be ignored *)
        Trace.instant ~node:1 ~pid:9 ~cat:"net" ~name:"noise" ~time:(float_of_int i) ()
      done;
      Trace.instant ~node:0 ~pid:5 ~cat:"dmtcp" ~name:"solo" ~time:99. ());
  match Trace.ring_tails r with
  | [ (0, [ solo ]); (1, tail) ] ->
    check Alcotest.string "other node kept" "solo" solo.Trace.name;
    check (Alcotest.list Alcotest.string) "last three, oldest first" [ "e8"; "e9"; "e10" ]
      (List.map (fun e -> e.Trace.name) tail)
  | _ -> Alcotest.fail "unexpected ring shape"

let test_jsonl_shape () =
  let j = Trace.jsonl [ List.nth sample_events 2 ] in
  check Alcotest.string "span line"
    "{\"t\":1.051010125,\"node\":1,\"pid\":204,\"cat\":\"dmtcp\",\"name\":\"ckpt/drain\",\"k\":\"span\",\"dur\":0.002100000}\n"
    j;
  (* node/pid omitted when unset *)
  let j = Trace.jsonl [ List.hd sample_events ] in
  check Alcotest.string "instant line, no scope"
    "{\"t\":0.500000000,\"cat\":\"sim\",\"name\":\"boot\",\"k\":\"inst\"}\n" j

let test_text_golden () =
  (* the human rendering is part of the tool's contract: byte-compare
     against the checked-in golden file *)
  let got = Trace.text sample_events in
  let ic = open_in "trace_golden.txt" in
  let n = in_channel_length ic in
  let want = really_input_string ic n in
  close_in ic;
  check Alcotest.string "golden text" want got

let test_query_stage_stats () =
  let evs =
    [
      ev ~time:1. ~cat:"dmtcp" ~name:"ckpt/write" (Trace.Span 0.2);
      ev ~time:2. ~cat:"dmtcp" ~name:"ckpt/write" (Trace.Span 0.4);
      ev ~time:3. ~cat:"dmtcp" ~name:"ckpt/drain" (Trace.Span 0.1);
      ev ~time:4. ~cat:"other" ~name:"ckpt/write" (Trace.Span 9.9);
      ev ~time:5. ~cat:"dmtcp" ~name:"ckpt/write" Trace.Instant;
    ]
  in
  match Trace.Query.stage_stats evs with
  | [ ("ckpt/drain", d); ("ckpt/write", w) ] ->
    check Alcotest.int "two write spans" 2 (Util.Stats.count w);
    check (Alcotest.float 1e-9) "mean write" 0.3 (Util.Stats.mean w);
    check (Alcotest.float 1e-9) "mean drain" 0.1 (Util.Stats.mean d)
  | _ -> Alcotest.fail "unexpected stage stats"

let test_query_counter_total () =
  let evs =
    [
      ev ~time:1. ~cat:"dmtcp" ~name:"mgr/drained-bytes" (Trace.Counter 100.);
      ev ~time:2. ~cat:"dmtcp" ~name:"mgr/drained-bytes" (Trace.Counter 28.);
      ev ~time:3. ~cat:"dmtcp" ~name:"other" (Trace.Counter 5.);
    ]
  in
  check (Alcotest.float 1e-9) "summed" 128.
    (Trace.Query.counter_total ~cat:"dmtcp" ~name:"mgr/drained-bytes" evs)

let test_metrics_registry () =
  Trace.Metrics.reset ();
  let c = Trace.Metrics.counter "t.count" in
  let g = Trace.Metrics.gauge "t.gauge" in
  let h = Trace.Metrics.histogram "t.hist" in
  Trace.Metrics.incr c;
  Trace.Metrics.add c 4.;
  Trace.Metrics.set g 7.5;
  Trace.Metrics.observe h 1.;
  Trace.Metrics.observe h 3.;
  let snap = Trace.Metrics.snapshot_text () in
  let again = Trace.Metrics.counter "t.count" in
  Trace.Metrics.incr again;
  let snap2 = Trace.Metrics.snapshot_text () in
  Alcotest.(check bool) "name interned to same instrument" true (snap <> snap2);
  List.iter
    (fun needle ->
      let n = String.length needle and hlen = String.length snap in
      let rec go i = i + n <= hlen && (String.sub snap i n = needle || go (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "snapshot mentions %S" needle) true (go 0))
    [ "t.count"; "5"; "t.gauge"; "7.5"; "t.hist"; "count=2"; "mean=2" ];
  Trace.Metrics.reset ();
  let c' = Trace.Metrics.counter "t.count" in
  Trace.Metrics.incr c';
  Alcotest.(check bool) "reset clears values" true (Trace.Metrics.snapshot_text () <> snap)

(* Words the minor heap gave out while [f] ran 10,000 times. *)
let minor_words_10k f =
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    f ()
  done;
  Gc.minor_words () -. w0

(* A counter or gauge holds its value unboxed, so updating it allocates
   nothing; one that boxed each new value would allocate 20,000 words
   here. *)
let test_metrics_updates_allocate_nothing () =
  let c = Trace.Metrics.counter "t.alloc.count" in
  let g = Trace.Metrics.gauge "t.alloc.gauge" in
  let v = 0.25 in
  let incr () = Trace.Metrics.incr c in
  let add () = Trace.Metrics.add c v in
  let set () = Trace.Metrics.set g v in
  List.iter
    (fun (label, f) -> check (Alcotest.float 0.) (label ^ ": minor words") 0. (minor_words_10k f))
    [ ("incr", incr); ("add", add); ("set", set) ]

(* The snapshot's lines for a fixed sequence of updates, taken before
   counters stopped boxing their values: integral values print with no
   decimals below 1e15 and with nine from there, others with nine.
   Every instrument the sequence does not touch reads zero after the
   reset. *)
let test_metrics_snapshot_pinned () =
  Trace.Metrics.reset ();
  let c = Trace.Metrics.counter "pin.count" in
  let f = Trace.Metrics.counter "pin.frac" in
  let big = Trace.Metrics.counter "pin.big" in
  let g = Trace.Metrics.gauge "pin.gauge" in
  let last = Trace.Metrics.gauge "pin.last" in
  let h = Trace.Metrics.histogram "pin.hist" in
  for i = 1 to 1000 do
    Trace.Metrics.incr c;
    Trace.Metrics.add f (float_of_int i *. 0.001);
    Trace.Metrics.set last (float_of_int i /. 3.)
  done;
  Trace.Metrics.add big 1e15;
  Trace.Metrics.incr big;
  Trace.Metrics.set g (-0.125);
  Trace.Metrics.observe h 2.;
  Trace.Metrics.observe h 0.5;
  let lines = String.split_on_char '\n' (Trace.Metrics.snapshot_text ()) in
  let pinned, rest = List.partition (fun l -> String.starts_with ~prefix:"pin." l) lines in
  check Alcotest.(list string) "pinned lines"
    [
      "pin.big                      1000000000000001.000000000";
      "pin.count                    1000";
      "pin.frac                     500.500000000";
      "pin.gauge                    -0.125000000";
      "pin.hist                     count=2 mean=1.250000000 min=0.500000000 max=2";
      "pin.last                     333.333333333";
    ]
    pinned;
  List.iter
    (fun l ->
      if l <> "" && not (String.ends_with ~suffix:" 0" l || String.ends_with ~suffix:" count=0" l)
      then Alcotest.failf "untouched instrument not zero after reset: %S" l)
    rest

(* same chaos seed, two full runs: the protocol trace must be
   byte-identical — this is what makes `torture --replay` trustworthy *)
let test_chaos_trace_deterministic () =
  let capture () =
    let c = Trace.collector () in
    let r = Trace.with_sink (Trace.collector_sink c) (fun () -> Chaos.Runner.run ~seed:5 ()) in
    (r, Trace.jsonl (Trace.events c))
  in
  let r1, j1 = capture () in
  let r2, j2 = capture () in
  check (Alcotest.list Alcotest.string) "same verdict" r1.Chaos.Runner.r_violations
    r2.Chaos.Runner.r_violations;
  Alcotest.(check bool) "trace non-empty" true (String.length j1 > 0);
  Alcotest.(check bool) "byte-identical JSONL" true (String.equal j1 j2)

(* live scheduler events: the canned demo's faulted run emits a complete
   preemption cycle under the "sched" category, in causal order *)
let test_sched_preemption_cycle_traced () =
  let c = Trace.collector () in
  ignore
    (Trace.with_sink (Trace.collector_sink c) (fun () ->
         Chaos.Sched_scenario.(play ~faults:true demo)));
  let evs =
    List.filter
      (Trace.matches { Trace.no_filter with Trace.f_cat = Some "sched" })
      (Trace.events c)
  in
  Alcotest.(check bool) "sched events collected" true (evs <> []);
  let first ?arg name =
    let hit (e : Trace.event) =
      e.Trace.name = name
      && match arg with None -> true | Some kv -> List.mem kv e.Trace.args
    in
    let rec go i = function
      | [] -> Alcotest.fail (Printf.sprintf "no %s event in the demo trace" name)
      | e :: _ when hit e -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 evs
  in
  (* the victim of the first preemption, so the cycle is one job's story *)
  let victim =
    match
      List.find_opt (fun (e : Trace.event) -> e.Trace.name = "sched/preempt") evs
    with
    | Some e -> List.assoc "victim" e.Trace.args
    | None -> Alcotest.fail "no sched/preempt event in the demo trace"
  in
  let j = ("job", victim) in
  Alcotest.(check bool) "submit before preempt" true (first "sched/submit" < first "sched/preempt");
  Alcotest.(check bool) "victim checkpointed before the preempt completes" true
    (first ~arg:j "sched/ckpt-saved" < first "sched/preempt");
  Alcotest.(check bool) "preempt before the victim's restart recovery" true
    (first "sched/preempt" < first ~arg:j "sched/restart-recovery");
  Alcotest.(check bool) "recovery before the victim completes" true
    (first ~arg:j "sched/restart-recovery" < first ~arg:j "sched/job-done")

let () =
  Alcotest.run "trace"
    [
      ( "core",
        [
          Alcotest.test_case "emitters are no-ops when off" `Quick test_emitters_off_are_noops;
          Alcotest.test_case "collector + sink nesting" `Quick test_collector_and_nesting;
          Alcotest.test_case "filtering" `Quick test_filter;
          Alcotest.test_case "ring keeps per-node tail" `Quick test_ring_keeps_tail_per_node;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
          Alcotest.test_case "text golden file" `Quick test_text_golden;
        ] );
      ( "queries",
        [
          Alcotest.test_case "stage stats" `Quick test_query_stage_stats;
          Alcotest.test_case "counter total" `Quick test_query_counter_total;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "updates allocate nothing" `Quick test_metrics_updates_allocate_nothing;
          Alcotest.test_case "snapshot bytes pinned" `Quick test_metrics_snapshot_pinned;
        ] );
      ( "determinism",
        [ Alcotest.test_case "chaos seed trace stable" `Quick test_chaos_trace_deterministic ] );
      ( "sched",
        [
          Alcotest.test_case "preemption cycle traced" `Quick
            test_sched_preemption_cycle_traced;
        ] );
    ]
