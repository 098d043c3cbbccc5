(* main.exe compare [--spec BENCHMARK.json] --parent FILE... --change FILE...

   Judges a change against its parent from the result records written
   with --json.  Runs of one workload pair up in the order given: the
   i-th parent run with the i-th change run, so alternate the two sides
   when producing them.  Per workload and end-to-end metric:

   - REGRESSED: the change's median is worse than the parent's by more
     than the metric's bound (a share of the parent's median);
   - improved: the change won at least 9 of every 10 pairs (ties count
     for neither side) and the medians differ by more than the parent's
     interquartile range;
   - unresolved: the parent's interquartile range is wider than the
     bound, unless every change run beats every parent run;
   - same: none of these.

   One row per workload; exit status 1 if anything regressed. *)

type metric = { name : string; better_lower : bool; bound : float }

let spec_metrics file =
  let j = Json.of_string (In_channel.with_open_text file In_channel.input_all) in
  List.map
    (fun m ->
      {
        name = Json.to_str (Json.member_exn "name" m);
        better_lower = Json.to_str (Json.member_exn "better" m) = "lower";
        bound = Json.to_num (Json.member_exn "bound" m);
      })
    (Json.to_list (Json.member_exn "end_to_end" j))

(* (workload, metric name -> value) from one --json record *)
let load file =
  let j = Json.of_string (In_channel.with_open_text file In_channel.input_all) in
  let e2e = match Json.member "end_to_end" j with Some e -> e | None -> Json.member_exn "metrics" j in
  let values =
    match e2e with
    | Json.Obj kv -> List.map (fun (k, v) -> (k, Json.to_num (Json.member_exn "value" v))) kv
    | _ -> raise (Json.Parse_error (file ^ ": no metrics"))
  in
  (Json.to_str (Json.member_exn "workload" j), values)

(* Quartiles as Python's statistics.quantiles(n=4) computes them
   (exclusive method), so spreads match the acceptance check's. *)
let quartiles l =
  let s = Array.of_list (List.sort Float.compare l) in
  let n = Array.length s in
  if n < 2 then (s.(0), s.(0))
  else
    let q p =
      let x = p *. float_of_int (n + 1) in
      let j = max 1 (min (n - 1) (int_of_float x)) in
      let delta = x -. float_of_int j in
      s.(j - 1) +. ((s.(j) -. s.(j - 1)) *. delta)
    in
    (q 0.25, q 0.75)

let verdict m parent change =
  let pm = Probe.median parent and cm = Probe.median change in
  let q1, q3 = quartiles parent in
  let iqr = q3 -. q1 in
  let better a b = if m.better_lower then a < b else a > b in
  let n = min (List.length parent) (List.length change) in
  let pairs = List.combine (List.filteri (fun i _ -> i < n) parent) (List.filteri (fun i _ -> i < n) change) in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let worse_by = (if m.better_lower then cm -. pm else pm -. cm) /. Float.abs pm in
  let all_better = List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change in
  let pct = 100. *. (cm -. pm) /. Float.abs pm in
  if pm = 0. then (false, Printf.sprintf "%s n/a" m.name)
  else if worse_by > m.bound then (true, Printf.sprintf "%s REGRESSED %+.1f%%" m.name pct)
  else if 10 * wins >= 9 * n && Float.abs (cm -. pm) > iqr then
    (false, Printf.sprintf "%s improved %+.1f%% (%d/%d pairs)" m.name pct wins n)
  else if iqr /. Float.abs pm > m.bound && not all_better then
    ( false,
      Printf.sprintf "%s unresolved (parent IQR %.1f%% > bound %.0f%%)" m.name
        (100. *. iqr /. Float.abs pm) (100. *. m.bound) )
  else (false, Printf.sprintf "%s same %+.1f%%" m.name pct)

let main args =
  let rec parse spec side parents changes = function
    | [] -> (spec, List.rev parents, List.rev changes)
    | "--spec" :: f :: rest -> parse f side parents changes rest
    | "--parent" :: rest -> parse spec `Parent parents changes rest
    | "--change" :: rest -> parse spec `Change parents changes rest
    | f :: rest -> (
      match side with
      | `Parent -> parse spec side (f :: parents) changes rest
      | `Change -> parse spec side parents (f :: changes) rest
      | `None -> raise (Json.Parse_error ("stray argument " ^ f)))
  in
  match parse "BENCHMARK.json" `None [] [] args with
  | exception Json.Parse_error msg ->
    prerr_endline msg;
    2
  | _, [], _ | _, _, [] ->
    prerr_endline "compare: need --parent FILE... and --change FILE...";
    2
  | spec, parents, changes -> (
    match (spec_metrics spec, List.map load parents, List.map load changes) with
    | exception (Json.Parse_error msg | Sys_error msg) ->
      prerr_endline msg;
      2
    | metrics, parents, changes ->
      let workloads = List.sort_uniq compare (List.map fst parents) in
      let regressed = ref false in
      List.iter
        (fun w ->
          let runs side = List.filter_map (fun (w', v) -> if w' = w then Some v else None) side in
          let p = runs parents and c = runs changes in
          let cells =
            List.map
              (fun m ->
                let values runs = List.filter_map (List.assoc_opt m.name) runs in
                match (values p, values c) with
                | [], _ | _, [] -> m.name ^ " missing"
                | pv, cv ->
                  let worse, text = verdict m pv cv in
                  if worse then regressed := true;
                  text)
              metrics
          in
          Printf.printf "%-12s %d vs %d runs | %s\n" w (List.length p) (List.length c) (String.concat "; " cells))
        workloads;
      if !regressed then 1 else 0)
