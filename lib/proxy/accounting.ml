type row = { sent_to : int array; delivered_from : int array; retained_to : int array }

type job = { ranks : (int, row) Hashtbl.t }

let jobs : (int, job) Hashtbl.t = Hashtbl.create 7

let job base_port =
  match Hashtbl.find_opt jobs base_port with
  | Some j -> j
  | None ->
    let j = { ranks = Hashtbl.create 17 } in
    Hashtbl.replace jobs base_port j;
    j

let set_rank ~base_port ~rank ~sent_to ~delivered_from ~retained_to =
  Hashtbl.replace (job base_port).ranks rank
    {
      sent_to = Array.copy sent_to;
      delivered_from = Array.copy delivered_from;
      retained_to = Array.copy retained_to;
    }

let sum = Array.fold_left ( + ) 0

let totals ~base_port =
  Hashtbl.fold
    (fun _ row (s, d, r) -> (s + sum row.sent_to, d + sum row.delivered_from, r + sum row.retained_to))
    (job base_port).ranks (0, 0, 0)

let pair ~base_port ~src ~dst =
  let j = job base_port in
  let at a i = if i < Array.length a then a.(i) else 0 in
  let sent, retained =
    match Hashtbl.find_opt j.ranks src with
    | Some row -> (at row.sent_to dst, at row.retained_to dst)
    | None -> (0, 0)
  in
  let delivered =
    match Hashtbl.find_opt j.ranks dst with
    | Some row -> at row.delivered_from src
    | None -> 0
  in
  (sent, delivered, retained)

let reset ~base_port = Hashtbl.remove jobs base_port
