type file = {
  path : string;
  mutable data : Bytes.t;
  mutable len : int;
  mutable declared_sim_size : int option;
}

type t = {
  files : (string, file) Hashtbl.t;
  mutable rewrite : (string -> string) option;
      (* path-rewrite hook (plugin API): applied to every path-taking
         entry point while installed *)
}

let create () = { files = Hashtbl.create 64; rewrite = None }

let resolve t path = match t.rewrite with Some f -> f path | None -> path

let with_rewrite t f body =
  let saved = t.rewrite in
  t.rewrite <- Some f;
  Fun.protect ~finally:(fun () -> t.rewrite <- saved) body

let open_or_create t path =
  let path = resolve t path in
  match Hashtbl.find_opt t.files path with
  | Some f -> f
  | None ->
    let f = { path; data = Bytes.create 256; len = 0; declared_sim_size = None } in
    Hashtbl.replace t.files path f;
    f

let lookup t path = Hashtbl.find_opt t.files (resolve t path)
let exists t path = Hashtbl.mem t.files (resolve t path)

let unlink t path =
  let path = resolve t path in
  if Hashtbl.mem t.files path then begin
    Hashtbl.remove t.files path;
    Ok ()
  end
  else Error Errno.ENOENT

let path_of f = f.path
let length f = f.len

let sim_size f =
  match f.declared_sim_size with
  | Some n -> max n f.len
  | None -> f.len

let set_sim_size f n = f.declared_sim_size <- Some n

let ensure f n =
  if n > Bytes.length f.data then begin
    let cap = ref (max 256 (Bytes.length f.data)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let nb = Bytes.make !cap '\000' in
    Bytes.blit f.data 0 nb 0 f.len;
    f.data <- nb
  end

let read_at f ~pos ~len =
  if pos >= f.len || len <= 0 then ""
  else begin
    let n = min len (f.len - pos) in
    Bytes.sub_string f.data pos n
  end

let read_all f = Bytes.sub_string f.data 0 f.len

let write_at f ~pos data =
  let n = String.length data in
  ensure f (pos + n);
  if pos > f.len then Bytes.fill f.data f.len (pos - f.len) '\000';
  Bytes.blit_string data 0 f.data pos n;
  f.len <- max f.len (pos + n)

let append f data = write_at f ~pos:f.len data

let truncate f =
  f.len <- 0;
  f.declared_sim_size <- None
