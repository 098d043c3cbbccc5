type fd_info =
  | FFile of { path : string; offset : int }
  | FSock of {
      state : sock_state;
      kind : Conn_table.sock_kind;
      role : Conn_table.role;
      conn_id : Conn_id.t;
      drained : string;
      eof : bool;  (** peer closed pre-checkpoint: EOF follows [drained] *)
    }
  | FPty of { master : bool; pty_key : int }

and sock_state =
  | S_established
  | S_listening of { port : int option; unix_path : string option; backlog : int }
  | S_other

type pty_record = {
  pty_key : int;
  pr_name : string;
  icanon : bool;
  echo : bool;
  isig : bool;
  baud : int;
  drained_to_slave : string;
  drained_to_master : string;
}

type t = {
  upid : Upid.t;
  vpid : int;
  parent_vpid : int;
  program : string;
  fds : (int * int * fd_info) list;
  ptys : pty_record list;
  algo : Compress.Algo.t;
  sizes : Mtcp.Image.sizes;
  delta_base : string option;
  mtcp_blob : string;
}

let filename ?seq t =
  let base = Filename.basename t.program in
  match seq with
  | None -> Printf.sprintf "ckpt_%s_%s.dmtcp" base (Upid.to_string t.upid)
  | Some k -> Printf.sprintf "ckpt_%s_%s.d%d.dmtcp" base (Upid.to_string t.upid) k

module W = Util.Codec.Writer
module R = Util.Codec.Reader

let encode_sock_state w = function
  | S_established -> W.u8 w 0
  | S_listening { port; unix_path; backlog } ->
    W.u8 w 1;
    W.option W.uvarint w port;
    W.option W.string w unix_path;
    W.uvarint w backlog
  | S_other -> W.u8 w 2

let decode_sock_state r =
  match R.u8 r with
  | 0 -> S_established
  | 1 ->
    let port = R.option R.uvarint r in
    let unix_path = R.option R.string r in
    let backlog = R.uvarint r in
    S_listening { port; unix_path; backlog }
  | 2 -> S_other
  | n -> R.corrupt "bad sock state %d" n

let role_tag = function
  | Conn_table.Connector -> 0
  | Conn_table.Acceptor -> 1
  | Conn_table.Pair_a -> 2
  | Conn_table.Pair_b -> 3

let role_of_tag = function
  | 0 -> Conn_table.Connector
  | 1 -> Conn_table.Acceptor
  | 2 -> Conn_table.Pair_a
  | 3 -> Conn_table.Pair_b
  | n -> R.corrupt "bad role %d" n

let kind_tag = function Conn_table.Tcp -> 0 | Conn_table.Unixsock -> 1 | Conn_table.Pair -> 2

let kind_of_tag = function
  | 0 -> Conn_table.Tcp
  | 1 -> Conn_table.Unixsock
  | 2 -> Conn_table.Pair
  | n -> R.corrupt "bad kind %d" n

let encode_fd_info w = function
  | FFile { path; offset } ->
    W.u8 w 0;
    W.string w path;
    W.uvarint w offset
  | FSock { state; kind; role; conn_id; drained; eof } ->
    W.u8 w 1;
    encode_sock_state w state;
    W.u8 w (kind_tag kind);
    W.u8 w (role_tag role);
    Conn_id.encode w conn_id;
    W.string w drained;
    W.bool w eof
  | FPty { master; pty_key } ->
    W.u8 w 2;
    W.bool w master;
    W.uvarint w pty_key

let decode_fd_info r =
  match R.u8 r with
  | 0 ->
    let path = R.string r in
    let offset = R.uvarint r in
    FFile { path; offset }
  | 1 ->
    let state = decode_sock_state r in
    let kind = kind_of_tag (R.u8 r) in
    let role = role_of_tag (R.u8 r) in
    let conn_id = Conn_id.decode r in
    let drained = R.string r in
    let eof = R.bool r in
    FSock { state; kind; role; conn_id; drained; eof }
  | 2 ->
    let master = R.bool r in
    let pty_key = R.uvarint r in
    FPty { master; pty_key }
  | n -> R.corrupt "bad fd info %d" n

let encode_pty w p =
  W.uvarint w p.pty_key;
  W.string w p.pr_name;
  W.bool w p.icanon;
  W.bool w p.echo;
  W.bool w p.isig;
  W.uvarint w p.baud;
  W.string w p.drained_to_slave;
  W.string w p.drained_to_master

let decode_pty r =
  let pty_key = R.uvarint r in
  let pr_name = R.string r in
  let icanon = R.bool r in
  let echo = R.bool r in
  let isig = R.bool r in
  let baud = R.uvarint r in
  let drained_to_slave = R.string r in
  let drained_to_master = R.string r in
  { pty_key; pr_name; icanon; echo; isig; baud; drained_to_slave; drained_to_master }

let magic = "DMTCP_CKPT_V2"

exception Corrupt_image = R.Corrupt

(* V2 layout: magic, then two length-prefixed sections (metadata, mtcp
   blob), each followed by a CRC-32 trailer over the section bytes.  A
   truncated or bit-flipped image fails the CRC (or the bounds checks of
   the codec) and surfaces as [R.Corrupt] rather than garbage decode
   results at restart. *)

let crc_of s = Int32.to_int (Util.Crc32.digest s) land 0xffffffff

let write_section w payload =
  W.string w payload;
  W.u32 w (crc_of payload)

let read_section r what =
  let payload = R.string r in
  let crc = R.u32 r in
  if crc <> crc_of payload then R.corrupt "%s section CRC mismatch" what;
  payload

let encode t =
  let meta = W.create ~capacity:1024 () in
  Upid.encode meta t.upid;
  W.uvarint meta t.vpid;
  W.uvarint meta t.parent_vpid;
  W.string meta t.program;
  W.list
    (fun w (fd, key, info) ->
      W.uvarint w fd;
      W.uvarint w key;
      encode_fd_info w info)
    meta t.fds;
  W.list encode_pty meta t.ptys;
  Compress.Algo.encode meta t.algo;
  W.uvarint meta t.sizes.Mtcp.Image.uncompressed;
  W.uvarint meta t.sizes.Mtcp.Image.compressed;
  W.uvarint meta t.sizes.Mtcp.Image.zero_bytes;
  W.option W.string meta t.delta_base;
  let w = W.create ~capacity:(String.length t.mtcp_blob + 1024) () in
  W.raw w magic;
  write_section w (W.contents meta);
  write_section w t.mtcp_blob;
  W.contents w

let decode s =
  try
    let r = R.of_string s in
    let m = R.raw r (String.length magic) in
    if m <> magic then R.corrupt "bad DMTCP image magic";
    let meta = read_section r "metadata" in
    let mtcp_blob = read_section r "mtcp" in
    R.expect_end r;
    let r = R.of_string meta in
    let upid = Upid.decode r in
    let vpid = R.uvarint r in
    let parent_vpid = R.uvarint r in
    let program = R.string r in
    let fds =
      R.list
        (fun r ->
          let fd = R.uvarint r in
          let key = R.uvarint r in
          let info = decode_fd_info r in
          (fd, key, info))
        r
    in
    let ptys = R.list decode_pty r in
    let algo = Compress.Algo.decode r in
    let uncompressed = R.uvarint r in
    let compressed = R.uvarint r in
    let zero_bytes = R.uvarint r in
    let delta_base = R.option R.string r in
    R.expect_end r;
    {
      upid;
      vpid;
      parent_vpid;
      program;
      fds;
      ptys;
      algo;
      sizes = { Mtcp.Image.uncompressed; compressed; zero_bytes };
      delta_base;
      mtcp_blob;
    }
  with
  (* the safety net at the image boundary: every decoder below reports
     damage as [R.Corrupt] itself, so this arm only catches a decoder
     bug *)
  | Invalid_argument msg | Failure msg -> R.corrupt "%s" msg

(* Chunk an encoded image at its DMZ2 frame boundaries for the
   content-addressed store: [magic + metadata section + blob length
   prefix] as one chunk, each frame of the mtcp blob as its own chunk,
   and the blob CRC trailer last.  Concatenating the chunks reproduces
   [bytes] exactly.  The metadata prefix carries the upid and so never
   dedups across generations, but it is tiny; the blob frames cover
   fixed 256 KiB windows of process memory, so generations that dirty
   few pages share almost every frame with their predecessor.  Anything
   unparseable (or a non-DMZ2 blob) chunks as a single unit. *)
let chunk bytes =
  let total = String.length bytes in
  let whole = [ bytes ] in
  try
    let r = R.of_string bytes in
    let pos () = total - R.remaining r in
    let m = R.raw r (String.length magic) in
    if m <> magic then whole
    else begin
      let (_ : string) = R.string r in (* metadata payload *)
      let (_ : int) = R.u32 r in (* metadata CRC *)
      let blob = R.string r in
      let blob_end = pos () in
      let blob_start = blob_end - String.length blob in
      match Compress.Container.frame_bounds blob with
      | None -> whole
      | Some bounds ->
        let prefix = String.sub bytes 0 blob_start in
        let frames =
          List.map (fun (off, len) -> String.sub bytes (blob_start + off) len) bounds
        in
        let suffix = String.sub bytes blob_end (total - blob_end) in
        (prefix :: frames) @ [ suffix ]
    end
  with R.Corrupt _ -> whole

let mtcp t = Mtcp.Image.decode t.mtcp_blob
let delta_mtcp t ~base = Mtcp.Image.apply_delta ~base t.mtcp_blob

let socket_stats t =
  List.fold_left
    (fun (estab, drained) (_, _, info) ->
      match info with
      | FSock { state = S_established; drained = d; _ } -> (estab + 1, drained + String.length d)
      | FSock { drained = d; _ } -> (estab, drained + String.length d)
      | FFile _ | FPty _ -> (estab, drained))
    (0, 0) t.fds
