module W = Util.Codec.Writer
module R = Util.Codec.Reader

let path_prefix = "/run/mpiproxy"
let sock_path ~base_port = Printf.sprintf "%s.%d" path_prefix base_port
let tcp_port ~base_port = base_port

type frame =
  | Hello of { rank : int; size : int; rpn : int }
  | Welcome
  | Data of { src : int; dst : int; epoch : int; seq : int; tag : char; payload : string }
  | Ack of { src : int; dst : int; epoch : int; seq : int }
  | Deliver of { src : int; epoch : int; seq : int; tag : char; payload : string }
  | Ack_ind of { src : int; epoch : int; seq : int }

let to_bytes f =
  let w = W.create () in
  (match f with
  | Hello { rank; size; rpn } ->
    W.u8 w 0;
    W.uvarint w rank;
    W.uvarint w size;
    W.uvarint w rpn
  | Welcome -> W.u8 w 1
  | Data { src; dst; epoch; seq; tag; payload } ->
    W.u8 w 2;
    W.uvarint w src;
    W.uvarint w dst;
    W.uvarint w epoch;
    W.uvarint w seq;
    W.u8 w (Char.code tag);
    W.string w payload
  | Ack { src; dst; epoch; seq } ->
    W.u8 w 3;
    W.uvarint w src;
    W.uvarint w dst;
    W.uvarint w epoch;
    W.uvarint w seq
  | Deliver { src; epoch; seq; tag; payload } ->
    W.u8 w 4;
    W.uvarint w src;
    W.uvarint w epoch;
    W.uvarint w seq;
    W.u8 w (Char.code tag);
    W.string w payload
  | Ack_ind { src; epoch; seq } ->
    W.u8 w 5;
    W.uvarint w src;
    W.uvarint w epoch;
    W.uvarint w seq);
  let body = W.contents w in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int (String.length body));
  Bytes.unsafe_to_string hdr ^ body

let pop buf =
  if String.length buf < 4 then None
  else begin
    let len = Int32.to_int (String.get_int32_le buf 0) in
    if len < 0 then R.corrupt "Proxy.Wire: negative frame length %d" len;
    if String.length buf < 4 + len then None
    else begin
      let r = R.of_string ~pos:4 ~len buf in
      let f =
        match R.u8 r with
        | 0 ->
          let rank = R.uvarint r in
          let size = R.uvarint r in
          let rpn = R.uvarint r in
          Hello { rank; size; rpn }
        | 1 -> Welcome
        | 2 ->
          let src = R.uvarint r in
          let dst = R.uvarint r in
          let epoch = R.uvarint r in
          let seq = R.uvarint r in
          let tag = Char.chr (R.u8 r) in
          let payload = R.string r in
          Data { src; dst; epoch; seq; tag; payload }
        | 3 ->
          let src = R.uvarint r in
          let dst = R.uvarint r in
          let epoch = R.uvarint r in
          let seq = R.uvarint r in
          Ack { src; dst; epoch; seq }
        | 4 ->
          let src = R.uvarint r in
          let epoch = R.uvarint r in
          let seq = R.uvarint r in
          let tag = Char.chr (R.u8 r) in
          let payload = R.string r in
          Deliver { src; epoch; seq; tag; payload }
        | 5 ->
          let src = R.uvarint r in
          let epoch = R.uvarint r in
          let seq = R.uvarint r in
          Ack_ind { src; epoch; seq }
        | t -> R.corrupt "Proxy.Wire: unknown frame type %d" t
      in
      R.expect_end r;
      Some (f, String.sub buf (4 + len) (String.length buf - 4 - len))
    end
  end

