type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render ~header rows =
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  let measure row = List.iteri (fun i cell -> if i < ncols then widths.(i) <- max widths.(i) (String.length cell)) row in
  measure header;
  List.iter measure rows;
  let line row =
    row
    |> List.mapi (fun i cell -> pad (if i = 0 then Left else Right) widths.(i) cell)
    |> String.concat "  "
    |> fun s -> String.trim (" " ^ s) |> fun s -> s
  in
  let sep = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

type series = { series_name : string; points : (string * float) list }

let bar_width = 48

let bar_chart ~title ~unit_label series =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "== %s ==\n" title);
  let all_values = List.concat_map (fun s -> List.map snd s.points) series in
  let vmax = List.fold_left max 1e-9 all_values in
  let labels =
    match series with
    | [] -> []
    | s :: _ -> List.map fst s.points
  in
  let label_width = List.fold_left (fun acc l -> max acc (String.length l)) 0 labels in
  let name_width =
    List.fold_left (fun acc s -> max acc (String.length s.series_name)) 0 series
  in
  List.iter
    (fun label ->
      List.iteri
        (fun si s ->
          match List.assoc_opt label s.points with
          | None -> ()
          | Some v ->
            let bar_len = int_of_float (Float.round (v /. vmax *. float_of_int bar_width)) in
            let bar_len = if v > 0. && bar_len = 0 then 1 else bar_len in
            let mark = if si = 0 then '#' else if si = 1 then '=' else '+' in
            Buffer.add_string buf
              (Printf.sprintf "%s | %s | %s %.3f %s\n"
                 (pad Left label_width (if si = 0 then label else ""))
                 (pad Left name_width s.series_name)
                 (String.make bar_len mark) v unit_label))
        series)
    labels;
  Buffer.contents buf

let xy_chart ~title ~x_label ~y_label series =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "== %s ==\n" title);
  let header = x_label :: List.map (fun (name, _) -> name ^ " " ^ y_label) series in
  (* Collect the union of x values, sorted. *)
  let module FS = Set.Make (Float) in
  let xs =
    List.fold_left (fun acc (_, pts) -> List.fold_left (fun acc (x, _) -> FS.add x acc) acc pts) FS.empty series
  in
  let rows =
    FS.elements xs
    |> List.map (fun x ->
           Printf.sprintf "%g" x
           :: List.map
                (fun (_, pts) ->
                  match List.find_opt (fun (x', _) -> x' = x) pts with
                  | Some (_, y) -> Printf.sprintf "%.3f" y
                  | None -> "-")
                series)
  in
  Buffer.add_string buf (render ~header rows);
  Buffer.contents buf
