let size = 65536

type content =
  | Zero
  | Materialized of { data : string; mutable sized : (Compress.Algo.t * int) option }
  | Synthetic of { seed : int64; cls : Entropy.t }

let of_string data =
  if String.length data <> size then invalid_arg "Page.of_string: not one page of bytes";
  Materialized { data; sized = None }

let zero_page = String.make size '\000'

let materialize = function
  | Zero -> zero_page
  | Materialized { data; _ } -> data
  | Synthetic { seed; cls } -> Bytes.unsafe_to_string (Entropy.generate cls ~seed ~len:size)

let is_zero = function
  | Zero -> true
  | Materialized _ | Synthetic _ -> false

let sized_for algo = function
  | Materialized { sized = Some (a, _); _ } -> a = algo
  | Materialized { sized = None; _ } | Zero | Synthetic _ -> false

(* The one place a page is compressed: each distinct content once,
   keyed in a table local to the call, on every core; only this domain
   writes the memos. *)
let size_all algo iter =
  let slot = Hashtbl.create 16 and contents = ref [] and todo = ref [] in
  iter
    (function
      | Materialized { data; _ } as p when not (sized_for algo p) ->
        let i =
          match Hashtbl.find_opt slot data with
          | Some i -> i
          | None ->
            let i = Hashtbl.length slot in
            Hashtbl.add slot data i;
            contents := data :: !contents;
            i
        in
        todo := (p, i) :: !todo
      | Materialized _ | Zero | Synthetic _ -> ());
  let contents = Array.of_list (List.rev !contents) in
  let lens =
    Util.Par.init (Array.length contents) (fun i ->
        String.length (Compress.Algo.compress algo contents.(i)))
  in
  List.iter
    (fun (p, i) ->
      match p with
      | Materialized m -> m.sized <- Some (algo, lens.(i))
      | Zero | Synthetic _ -> ())
    !todo

let compressed_size algo = function
  | Zero ->
    (* A zero page costs a couple of bytes of token stream under any real
       scheme; count 8 to stay conservative. *)
    (match algo with Compress.Algo.Null -> size | _ -> 8)
  | Materialized m as p ->
    if not (sized_for algo p) then size_all algo (fun visit -> visit p);
    snd (Option.get m.sized)
  | Synthetic { cls; _ } ->
    int_of_float (ceil (float_of_int size *. Entropy.ratio algo cls))

let equal a b =
  a == b
  ||
  match (a, b) with
  | Zero, Zero -> true
  | Materialized x, Materialized y -> String.equal x.data y.data
  | Synthetic x, Synthetic y -> Int64.equal x.seed y.seed && x.cls = y.cls
  | (Zero | Materialized _ | Synthetic _), _ -> false

let encode w = function
  | Zero -> Util.Codec.Writer.u8 w 0
  | Materialized { data; _ } ->
    Util.Codec.Writer.u8 w 1;
    Util.Codec.Writer.string w data
  | Synthetic { seed; cls } ->
    Util.Codec.Writer.u8 w 2;
    Util.Codec.Writer.i64 w seed;
    Entropy.encode w cls

let decode r =
  match Util.Codec.Reader.u8 r with
  | 0 -> Zero
  | 1 ->
    let data = Util.Codec.Reader.string r in
    if String.length data <> size then
      Util.Codec.Reader.corrupt "page payload of %d bytes" (String.length data);
    of_string data
  | 2 ->
    let seed = Util.Codec.Reader.i64 r in
    let cls = Entropy.decode r in
    Synthetic { seed; cls }
  | n -> Util.Codec.Reader.corrupt "bad page tag %d" n
