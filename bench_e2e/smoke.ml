(* main.exe smoke --spec BENCHMARK.json — the benchmark's own test, run
   by `dune runtest` at smoke scale (a few seconds in all):

   - every workload completes with correct verdicts;
   - the printed metric names and units equal BENCHMARK.json's, for the
     end-to-end (untraced) and per-layer (traced) outputs alike;
   - the modeled end-to-end values of an untraced and a traced run, each
     in its own process, are identical;
   - negative control: a wrong expected verdict yields failed > 0 and a
     non-zero exit. *)

let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

(* Runs this executable on [args], progress output discarded; its exit
   code and the last line it printed. *)
let run args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args)) Unix.stdin wr null
  in
  Unix.close wr;
  Unix.close null;
  let ic = Unix.in_channel_of_descr rd in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  close_in ic;
  let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1 in
  (code, match List.rev lines with last :: _ -> Some last | [] -> None)

let spec_names spec key =
  List.map
    (fun m -> (Json.to_str (Json.member_exn "name" m), Json.to_str (Json.member_exn "unit" m)))
    (Json.to_list (Json.member_exn key spec))

let printed_names line =
  match Json.member_exn "metrics" (Json.of_string line) with
  | Json.Obj kv -> List.map (fun (k, v) -> (k, Json.to_str (Json.member_exn "unit" v))) kv
  | _ -> []

let modeled file =
  let j = Json.of_string (In_channel.with_open_text file In_channel.input_all) in
  List.map
    (fun n -> (n, Json.to_num (Json.member_exn "value" (Json.member_exn n (Json.member_exn "end_to_end" j)))))
    Report.modeled_names

let check_workload spec w =
  let base = [ "--workload"; w; "--seed"; "1"; "--seconds"; "0"; "--scale"; "smoke" ] in
  let plain_json = Printf.sprintf "smoke-%s.json" w and traced_json = Printf.sprintf "smoke-%s-traced.json" w in
  let code, line = run (base @ [ "--trace"; "0"; "--json"; plain_json ]) in
  let tcode, tline = run (base @ [ "--trace"; "1"; "--json"; traced_json ]) in
  match (line, tline) with
  | Some line, Some tline when code = 0 && tcode = 0 ->
    if printed_names line <> spec_names spec "end_to_end" then fail "%s: end-to-end names differ from the spec" w;
    if printed_names tline <> spec_names spec "per_layer" then fail "%s: per-layer names differ from the spec" w;
    if modeled plain_json <> modeled traced_json then fail "%s: modeled values differ between runs" w
  | _ -> fail "%s: exit %d / %d" w code tcode

let main args =
  match args with
  | [ "--spec"; file ] ->
    let spec = Json.of_string (In_channel.with_open_text file In_channel.input_all) in
    let declared = List.map (fun m -> Json.to_str (Json.member_exn "name" m)) (Json.to_list (Json.member_exn "workloads" spec)) in
    if declared <> Workloads.names then fail "workloads in the spec differ from the bench's";
    List.iter (check_workload spec) Workloads.names;
    (match run [ "--workload"; "sched-1k"; "--seconds"; "0"; "--scale"; "smoke"; "--corrupt-expected" ] with
    | 0, _ -> fail "negative control exited 0"
    | _, Some line ->
      let j = Json.of_string line in
      if Json.to_num (Json.member_exn "failed" j) <= 0. then fail "negative control reported no failed operation"
    | _, None -> fail "negative control printed no result");
    List.iter prerr_endline (List.rev !failures);
    if !failures = [] then begin
      Printf.printf "bench_e2e smoke: %d workloads OK\n" (List.length Workloads.names);
      0
    end
    else 1
  | _ ->
    prerr_endline "usage: main.exe smoke --spec BENCHMARK.json";
    2
