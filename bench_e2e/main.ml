(* End-to-end benchmark of the DMTCP stack on two clocks.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
              [--scale full|smoke] [--json FILE]
     main.exe compare --parent FILE... --change FILE... [--spec BENCHMARK.json]
     main.exe smoke --spec BENCHMARK.json

   A run repeats the workload's fixed schedule in fresh passes until
   [--seconds] of wall time are used (at least one pass), then prints one
   JSON line: the end-to-end metrics with [--trace 0], the per-layer
   metrics with [--trace 1].  Host times are read on Probe's host clock,
   at reference speed.  Progress goes to stderr.  Exit status: 0 when
   every verdict was correct, 1 when not, 2 on bad arguments. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke] [--json FILE]\n\
    \       main.exe compare --parent FILE... --change FILE... [--spec BENCHMARK.json]\n\
    \       main.exe smoke --spec BENCHMARK.json";
  exit 2

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  scale : Workloads.scale;
  json : string option;
}

let parse_run args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = w } rest
    | "--seed" :: s :: rest -> go { o with seed = int_of_string s } rest
    | "--seconds" :: s :: rest -> go { o with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { o with trace = t = "1" } rest
    | "--scale" :: "full" :: rest -> go { o with scale = Workloads.Full } rest
    | "--scale" :: "smoke" :: rest -> go { o with scale = Workloads.Smoke } rest
    | "--json" :: f :: rest -> go { o with json = Some f } rest
    | "--corrupt-expected" :: rest ->
      Workloads.corrupt_expected := true;
      go o rest
    | a :: _ ->
      Printf.eprintf "unknown argument %S\n" a;
      usage ()
  in
  match go { workload = ""; seed = 1; seconds = 10.; trace = false; scale = Workloads.Full; json = None } args with
  | o when o.workload <> "" && o.seed >= 0 -> o
  | _ -> usage ()
  | exception Failure _ -> usage ()

(* Set-up alone is repeated before the passes, at least [setup_reps]
   times and until [setup_total] host seconds are spent, so that set-up
   time is a median of many samples even when it takes milliseconds and
   only one pass fits; the smoke scale keeps the repetitions and codec
   replays short. *)
let setup_reps = function Workloads.Full -> 5 | Workloads.Smoke -> 1
let setup_total = function Workloads.Full -> 0.5 | Workloads.Smoke -> 0.
let replay_s = function Workloads.Full -> 0.05 | Workloads.Smoke -> 0.005

(* A warm-up pass comes first, before the host clock starts: the clock's
   timer interrupts shift when the collector runs, so the heap's
   high-water mark is read after it, where it repeats exactly for a seed
   (later passes could only raise it, through fragmentation).  Then the
   set-ups and the measured passes.  Passes alternate untraced and traced
   when tracing, so the traced numbers come with an untraced baseline for
   the overhead figure.  Every pass and set-up starts from a compacted
   heap.  Measurements use the host clock; the time budget is wall
   time. *)
let run_passes (w : Workloads.t) o =
  let start = Unix.gettimeofday () in
  w.Workloads.prepare ~seed:o.seed;
  Gc.compact ();
  Trace.Metrics.reset ();
  let warmup = { (w.Workloads.pass ~seed:o.seed) with Workloads.images = (fun () -> []) } in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Probe.start_clock ();
  let rec setups acc =
    if List.length acc >= setup_reps o.scale && List.fold_left ( +. ) 0. acc >= setup_total o.scale then acc
    else begin
      Gc.compact ();
      let t0 = Probe.host_now () in
      w.Workloads.setup ~seed:o.seed;
      setups ((Probe.host_now () -. t0) :: acc)
    end
  in
  let setups = setups [] in
  let min_passes = if o.trace then 2 else 1 in
  let rec go acc replayed =
    let n = List.length acc in
    let traced = o.trace && n mod 2 = 1 in
    let agg = if traced then Some (Probe.agg ()) else None in
    Gc.compact ();
    Trace.Metrics.reset ();
    let w0 = Unix.gettimeofday () in
    let t0 = Probe.host_now () in
    let outcome =
      match agg with
      | Some a -> Trace.with_sink (Probe.sink a) (fun () -> w.Workloads.pass ~seed:o.seed)
      | None -> w.Workloads.pass ~seed:o.seed
    in
    let total_s = Probe.host_now () -. t0 in
    let pass_wall = Unix.gettimeofday () -. w0 in
    let replayed =
      if traced && replayed = [] then Report.replays ~min_s:(replay_s o.scale) (outcome.Workloads.images ()) else replayed
    in
    let p = { Report.outcome = { outcome with Workloads.images = (fun () -> []) }; traced = agg; total_s } in
    Printf.eprintf "%s pass %d%s: setup %.3fs schedule %.3fs total %.3fs\n%!" w.Workloads.name (n + 1)
      (if traced then " (traced)" else "") outcome.Workloads.setup_s outcome.Workloads.wall_s total_s;
    let acc = acc @ [ p ] in
    let elapsed = Unix.gettimeofday () -. start in
    if List.length acc < min_passes || elapsed +. pass_wall <= o.seconds then go acc replayed else (acc, replayed)
  in
  let passes, replayed = go [] [] in
  Probe.stop_clock ();
  (warmup, passes, setups @ List.map (fun p -> p.Report.outcome.Workloads.setup_s) passes, heap_words, replayed)

(* Modeled values must not depend on which pass produced them. *)
let nondeterminism (outcomes : Workloads.outcome list) =
  let key (o : Workloads.outcome) = (o.Workloads.modeled, o.Workloads.layer) in
  match outcomes with
  | [] -> []
  | o :: rest ->
    if List.for_all (fun q -> key q = key o) rest then []
    else [ "modeled metrics differ between passes of one seed" ]

let run args =
  let o = parse_run args in
  let w =
    match Workloads.find o.scale o.workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S\n" o.workload;
      usage ()
  in
  let warmup, passes, setups, heap_words, replayed = run_passes w o in
  let outcomes = warmup :: List.map (fun p -> p.Report.outcome) passes in
  let errors = nondeterminism outcomes @ List.concat_map (fun o -> o.Workloads.errors) outcomes in
  List.iter (Printf.eprintf "error: %s\n") errors;
  let first = (List.hd passes).Report.outcome in
  let correct = errors = [] in
  let attempted = first.Workloads.attempted in
  let failed =
    List.fold_left (fun a o -> max a o.Workloads.failed) 0 outcomes |> fun f -> if correct then f else max f 1
  in
  let e2e = Report.end_to_end_values passes ~setups ~heap_words in
  let metrics =
    if o.trace then Report.metrics_json Report.per_layer (Report.per_layer_values passes ~replayed)
    else Report.metrics_json Report.end_to_end e2e
  in
  let line =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int attempted));
        ("failed", Json.Num (float_of_int failed));
        ("metrics", metrics);
      ]
  in
  Option.iter
    (fun file ->
      let record =
        Json.Obj
          [
            ("workload", Json.Str w.Workloads.name);
            ("seed", Json.Num (float_of_int o.seed));
            ("trace", Json.Bool o.trace);
            ("passes", Json.Num (float_of_int (List.length passes)));
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("failed_frac", Json.Num (float_of_int failed /. float_of_int (max 1 attempted)));
            ("metrics", metrics);
            ("end_to_end", Report.metrics_json Report.end_to_end e2e);
            ("detail", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) first.Workloads.detail));
            ("errors", Json.Arr (List.map (fun e -> Json.Str e) errors));
          ]
      in
      Out_channel.with_open_text file (fun oc -> output_string oc (Json.to_string record ^ "\n")))
    o.json;
  print_endline (Json.to_string line);
  exit (if correct then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> exit (Compare.main rest)
  | "smoke" :: rest -> exit (Smoke.main rest)
  | [] | ("-h" | "--help") :: _ -> usage ()
  | args -> run args
