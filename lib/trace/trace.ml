(* Deterministic structured tracing + metrics.  See trace.mli. *)

type kind = Span of float | Instant | Counter of float

type event = {
  time : float;
  node : int;
  pid : int;
  cat : string;
  name : string;
  kind : kind;
  args : (string * string) list;
}

type sink = { emit : event -> unit }

(* Attached sinks, outermost first.  The empty list is the null sink: the
   emitters test [on ()] before building the event record, so tracing-off
   costs one load and one comparison per call site. *)
let sinks : sink list ref = ref []
let on () = !sinks <> []
let attach s = sinks := !sinks @ [ s ]
let detach s = sinks := List.filter (fun x -> x != s) !sinks

let with_sink s f =
  attach s;
  Fun.protect ~finally:(fun () -> detach s) f

let emit ev = List.iter (fun s -> s.emit ev) !sinks

let span ?(node = -1) ?(pid = -1) ~cat ~name ?(args = []) ~time ~dur () =
  if on () then emit { time; node; pid; cat; name; kind = Span dur; args }

let instant ?(node = -1) ?(pid = -1) ~cat ~name ?(args = []) ~time () =
  if on () then emit { time; node; pid; cat; name; kind = Instant; args }

let counter ?(node = -1) ?(pid = -1) ~cat ~name ?(args = []) ~time v =
  if on () then emit { time; node; pid; cat; name; kind = Counter v; args }

(* ---------------- collection ---------------- *)

type collector = { mutable rev : event list }

let collector () = { rev = [] }
let collector_sink c = { emit = (fun ev -> c.rev <- ev :: c.rev) }
let events c = List.rev c.rev

type ring = {
  r_cap : int;
  r_cat : string option;
  r_tbl : (int, event Queue.t) Hashtbl.t;
}

let ring ?(per_node = 10) ?cat () =
  { r_cap = max 1 per_node; r_cat = cat; r_tbl = Hashtbl.create 7 }

let ring_sink r =
  {
    emit =
      (fun ev ->
        let wanted = match r.r_cat with None -> true | Some c -> String.equal c ev.cat in
        if wanted then begin
          let q =
            match Hashtbl.find_opt r.r_tbl ev.node with
            | Some q -> q
            | None ->
              let q = Queue.create () in
              Hashtbl.add r.r_tbl ev.node q;
              q
          in
          Queue.push ev q;
          if Queue.length q > r.r_cap then ignore (Queue.pop q)
        end);
  }

let ring_tails r =
  Hashtbl.fold (fun node q acc -> (node, List.of_seq (Queue.to_seq q)) :: acc) r.r_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---------------- filtering ---------------- *)

type filter = {
  f_node : int option;
  f_pid : int option;
  f_cat : string option;
  f_prefix : string option;
}

let no_filter = { f_node = None; f_pid = None; f_cat = None; f_prefix = None }

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let matches f ev =
  (match f.f_node with None -> true | Some n -> ev.node = n)
  && (match f.f_pid with None -> true | Some p -> ev.pid = p)
  && (match f.f_cat with None -> true | Some c -> String.equal c ev.cat)
  && match f.f_prefix with None -> true | Some p -> starts_with ~prefix:p ev.name

(* ---------------- rendering ---------------- *)

(* Fixed-format floats: nanosecond precision is plenty for the simulated
   clock and, unlike %g, renders identically everywhere. *)
let ftime t = Printf.sprintf "%.9f" t

let fval v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9f" v

let scope ev =
  let n = if ev.node >= 0 then Printf.sprintf "n%d" ev.node else "-" in
  let p = if ev.pid >= 0 then Printf.sprintf "p%d" ev.pid else "-" in
  Printf.sprintf "%-4s %-5s" n p

let kind_str ev =
  match ev.kind with
  | Span d -> Printf.sprintf "span %s" (ftime d)
  | Instant -> "inst"
  | Counter v -> Printf.sprintf "ctr  %s" (fval v)

let args_str = function
  | [] -> ""
  | args -> " " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) args)

let describe ev =
  Printf.sprintf "[%14s] %s %-8s %-22s %s%s" (ftime ev.time) (scope ev) ev.cat ev.name
    (kind_str ev) (args_str ev.args)

let describe_short ev =
  let p = if ev.pid >= 0 then Printf.sprintf " p%d" ev.pid else "" in
  Printf.sprintf "[%s]%s %s %s%s" (ftime ev.time) p ev.name (kind_str ev) (args_str ev.args)

let text evs = String.concat "" (List.map (fun ev -> describe ev ^ "\n") evs)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json ev =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "{\"t\":%s" (ftime ev.time));
  if ev.node >= 0 then Buffer.add_string b (Printf.sprintf ",\"node\":%d" ev.node);
  if ev.pid >= 0 then Buffer.add_string b (Printf.sprintf ",\"pid\":%d" ev.pid);
  Buffer.add_string b
    (Printf.sprintf ",\"cat\":\"%s\",\"name\":\"%s\"" (json_escape ev.cat) (json_escape ev.name));
  (match ev.kind with
  | Span d -> Buffer.add_string b (Printf.sprintf ",\"k\":\"span\",\"dur\":%s" (ftime d))
  | Instant -> Buffer.add_string b ",\"k\":\"inst\""
  | Counter v -> Buffer.add_string b (Printf.sprintf ",\"k\":\"ctr\",\"v\":%s" (fval v)));
  if ev.args <> [] then begin
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
      ev.args;
    Buffer.add_char b '}'
  end;
  Buffer.add_char b '}';
  Buffer.contents b

let jsonl evs = String.concat "" (List.map (fun ev -> to_json ev ^ "\n") evs)

(* ---------------- queries ---------------- *)

module Query = struct
  let stage_stats ?(cat = "dmtcp") evs =
    let tbl : (string, Util.Stats.t) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun ev ->
        match ev.kind with
        | Span d when String.equal ev.cat cat ->
          let s =
            match Hashtbl.find_opt tbl ev.name with
            | Some s -> s
            | None ->
              let s = Util.Stats.create () in
              Hashtbl.add tbl ev.name s;
              s
          in
          Util.Stats.add s d
        | _ -> ())
      evs;
    Hashtbl.fold (fun name s acc -> (name, s) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let counter_total ~cat ~name evs =
    List.fold_left
      (fun acc ev ->
        match ev.kind with
        | Counter v when String.equal ev.cat cat && String.equal ev.name name -> acc +. v
        | _ -> acc)
      0. evs
end

(* ---------------- metrics registry ---------------- *)

module Metrics = struct
  type counter = float ref
  type gauge = float ref
  type histogram = { mutable h : Util.Stats.t }

  type instrument = C of counter | G of gauge | H of histogram

  let registry : (string, instrument) Hashtbl.t = Hashtbl.create 32

  let find_or name mk check =
    match Hashtbl.find_opt registry name with
    | Some i -> check i
    | None ->
      let i = mk () in
      Hashtbl.add registry name i;
      i

  let counter name =
    match find_or name (fun () -> C (ref 0.)) Fun.id with
    | C r -> r
    | _ -> invalid_arg ("Trace.Metrics.counter: " ^ name ^ " registered with another type")

  let gauge name =
    match find_or name (fun () -> G (ref 0.)) Fun.id with
    | G r -> r
    | _ -> invalid_arg ("Trace.Metrics.gauge: " ^ name ^ " registered with another type")

  let histogram name =
    match find_or name (fun () -> H { h = Util.Stats.create () }) Fun.id with
    | H h -> h
    | _ -> invalid_arg ("Trace.Metrics.histogram: " ^ name ^ " registered with another type")

  let add c v = c := !c +. v
  let incr c = c := !c +. 1.
  let set g v = g := v
  let observe h v = Util.Stats.add h.h v

  let reset () =
    Hashtbl.iter
      (fun _ i ->
        match i with
        | C r | G r -> r := 0.
        | H h -> h.h <- Util.Stats.create ())
      registry

  let snapshot_text () =
    let lines =
      Hashtbl.fold
        (fun name i acc ->
          let v =
            match i with
            | C r | G r -> fval !r
            | H h ->
              let s = h.h in
              if Util.Stats.count s = 0 then "count=0"
              else
                Printf.sprintf "count=%d mean=%s min=%s max=%s" (Util.Stats.count s)
                  (fval (Util.Stats.mean s)) (fval (Util.Stats.min s)) (fval (Util.Stats.max s))
          in
          Printf.sprintf "%-28s %s" name v :: acc)
        registry []
      |> List.sort compare
    in
    String.concat "" (List.map (fun l -> l ^ "\n") lines)
end
