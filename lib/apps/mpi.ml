module W = Util.Codec.Writer
module R = Util.Codec.Reader

type transport = Direct | Proxied

let transport_of_string = function
  | "direct" -> Direct
  | "proxy" | "proxied" -> Proxied
  | s -> invalid_arg (Printf.sprintf "Mpi.transport_of_string: %S (want direct|proxy)" s)

(* ------------------------------------------------------------------ *)
(* Direct backend: one TCP mesh socket per neighbour pair, exactly the
   original design. *)

type direct = {
  mutable listen_fd : int;
  mutable peer_fd : int array;
  mutable pending_conn : (int * int) list;    (* (peer rank, fd) *)
  mutable pending_accept : (int * string) list;  (* (fd, partial rank header) *)
  mutable out_bufs : string array;
  mutable in_bufs : string array;
  mutable watch : watch option;  (* transient: never encoded *)
}

(* Which neighbours' sockets may have become readable (DESIGN §2.4):
   one wait with a cell armed on each neighbour's socket, under the
   neighbour's index in [peers]. *)
and watch = {
  wait : Sim.Wake.wait;
  cells : Sim.Wake.cell array;
  peers : int array;  (* the neighbours, in order *)
  due : bool array;  (* by neighbour index: fired since its last visit *)
  block : Simos.Program.wait;  (* the listen fd, then the neighbours' fds *)
}

(* Proxy backend: a single unix connection to the node's proxy daemon,
   plus the end-to-end reliability state that makes proxy custody
   disposable (see lib/proxy/wire.mli). *)

type proxied = {
  mutable pfd : int;          (* -1 = not connected *)
  mutable ready : bool;       (* Welcome received on the current connection *)
  mutable hello_sent : bool;
  mutable pout : string;
  mutable pin : string;
  mutable epoch : int;        (* restart generation; images restore to epoch+1 *)
  mutable last_resend : float;    (* transient: last retransmit-timer firing *)
  mutable send_seq : int array;   (* per dst: last sequence number assigned *)
  mutable recv_seq : int array;   (* per src: last sequence number accepted *)
  mutable unacked : (int * char * string) list array;  (* per dst, oldest first *)
  mutable sent_bytes : int array;       (* per dst: payload bytes sent *)
  mutable delivered_bytes : int array;  (* per src: payload bytes accepted *)
  mutable ledger : Proxy.Accounting.job option;
      (* transient: this run's gauges of the job, found by the first
         progress; a rank progresses before it sends *)
}

type backend = B_direct of direct | B_proxied of proxied

type t = {
  rank : int;
  size : int;
  base_port : int;
  ranks_per_node : int;
  neighbors : int list;
  backend : backend;
  inbox : (char * string) Queue.t array;  (* per source, oldest first *)
}

(* rank 0 is everyone's neighbour (collectives are rooted there), so by
   symmetry rank 0 neighbours every rank *)
let normalize ~size ~rank peers =
  if rank = 0 then List.init (size - 1) (fun i -> i + 1)
  else List.sort_uniq compare (0 :: peers) |> List.filter (fun r -> r <> rank)

(* An asymmetric relation used to deadlock at init_step: the listed side
   waits forever for a connection the other side never opens.  Check the
   whole relation up front instead. *)
let validate_relation ~size relation =
  for r = 0 to size - 1 do
    List.iter
      (fun n ->
        if n < 0 || n >= size then
          invalid_arg
            (Printf.sprintf "Mpi.create: rank %d lists neighbour %d outside 0..%d" r n (size - 1)))
      (relation r)
  done;
  let norm = Array.init size (fun r -> normalize ~size ~rank:r (relation r)) in
  Array.iteri
    (fun r peers ->
      List.iter
        (fun n ->
          if not (List.mem r norm.(n)) then
            invalid_arg
              (Printf.sprintf
                 "Mpi.create: asymmetric neighbour relation: rank %d lists rank %d but rank %d \
                  does not list rank %d"
                 r n n r))
        peers)
    norm

let create ~rank ~size ~base_port ~ranks_per_node ?(transport = Direct) ~neighbors () =
  if size <= 0 then invalid_arg "Mpi.create: size must be positive";
  if rank < 0 || rank >= size then
    invalid_arg (Printf.sprintf "Mpi.create: rank %d outside 0..%d" rank (size - 1));
  validate_relation ~size neighbors;
  let backend =
    match transport with
    | Direct ->
      B_direct
        {
          listen_fd = -1;
          peer_fd = Array.make size (-1);
          pending_conn = [];
          pending_accept = [];
          out_bufs = Array.make size "";
          in_bufs = Array.make size "";
          watch = None;
        }
    | Proxied ->
      B_proxied
        {
          pfd = -1;
          ready = false;
          hello_sent = false;
          pout = "";
          pin = "";
          epoch = 0;
          last_resend = 0.;
          send_seq = Array.make size 0;
          recv_seq = Array.make size 0;
          unacked = Array.make size [];
          sent_bytes = Array.make size 0;
          delivered_bytes = Array.make size 0;
          ledger = None;
        }
  in
  {
    rank;
    size;
    base_port;
    ranks_per_node;
    neighbors = normalize ~size ~rank (neighbors rank);
    backend;
    inbox = Array.init size (fun _ -> Queue.create ());
  }

let rank t = t.rank
let size t = t.size
let host_of_rank t r = r / t.ranks_per_node
let port_of_rank t r = t.base_port + r
let transport t = match t.backend with B_direct _ -> Direct | B_proxied _ -> Proxied

(* 4-byte little-endian int *)
let put_u32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.unsafe_to_string b

let get_u32 s off = Int32.to_int (String.get_int32_le s off)

(* The length prefix of the frame at [off] in bytes from [peer]: a
   frame holds at least its tag. *)
let frame_len ~peer buf off =
  let n = get_u32 buf off in
  if n < 1 then R.corrupt "Mpi: frame length %d from rank %d" n peer;
  n

(* ------------------------------------------------------------------ *)
(* Direct backend machinery *)

let start_connect (ctx : Simos.Program.ctx) t d peer =
  let fd = ctx.socket () in
  (match
     ctx.connect fd
       (Simnet.Addr.Inet { host = host_of_rank t peer; port = port_of_rank t peer })
   with
  | Ok () -> d.pending_conn <- (peer, fd) :: d.pending_conn
  | Error _ -> ctx.close_fd fd)

let direct_init_step (ctx : Simos.Program.ctx) t d =
  if d.listen_fd < 0 then begin
    let fd = ctx.socket () in
    (match ctx.bind fd ~port:(port_of_rank t t.rank) with
    | Ok _ -> ()
    | Error _ -> failwith "Mpi: cannot bind rank port");
    (match ctx.listen fd ~backlog:(t.size + 4) with
    | Ok () -> ()
    | Error _ -> failwith "Mpi: cannot listen");
    d.listen_fd <- fd;
    (* eager connections to lower-rank neighbours *)
    List.iter (fun peer -> if peer < t.rank then start_connect ctx t d peer) t.neighbors
  end;
  (* progress outgoing connections *)
  d.pending_conn <-
    List.filter
      (fun (peer, fd) ->
        match ctx.sock_state fd with
        | Some Simnet.Fabric.Established ->
          ignore (ctx.write_fd fd (put_u32 t.rank));
          d.peer_fd.(peer) <- fd;
          false
        | Some Simnet.Fabric.Connecting -> true
        | _ ->
          (* refused: the peer's listener is not up yet; retry *)
          ctx.close_fd fd;
          start_connect ctx t d peer;
          false)
      d.pending_conn;
  (* accept incoming *)
  let rec accept_all () =
    match ctx.accept d.listen_fd with
    | Some fd ->
      d.pending_accept <- (fd, "") :: d.pending_accept;
      accept_all ()
    | None -> ()
  in
  accept_all ();
  d.pending_accept <-
    List.filter_map
      (fun (fd, hdr) ->
        match ctx.read_fd fd ~max:(4 - String.length hdr) with
        | `Data data ->
          let hdr = hdr ^ data in
          if String.length hdr >= 4 then begin
            let peer = get_u32 hdr 0 in
            if peer < 0 || peer >= t.size then
              R.corrupt "Mpi: rank header %d outside 0..%d" peer (t.size - 1);
            d.peer_fd.(peer) <- fd;
            None
          end
          else Some (fd, hdr)
        | `Eof ->
          ctx.close_fd fd;
          None
        | `Would_block | `Err _ -> Some (fd, hdr))
      d.pending_accept;
  let ready = List.for_all (fun peer -> d.peer_fd.(peer) >= 0) t.neighbors in
  if ready then `Ready else `Pending

let frame ~tag payload = put_u32 (String.length payload + 1) ^ String.make 1 tag ^ payload

(* Queue the complete frames of [buf] from [off] on; the bytes left
   unparsed. *)
let rec parse t ~peer buf off =
  let len = String.length buf in
  let n = if len - off < 4 then max_int else frame_len ~peer buf off in
  if len - off - 4 < n then if off = 0 then buf else String.sub buf off (len - off)
  else begin
    Queue.push (buf.[off + 4], String.sub buf (off + 5) (n - 1)) t.inbox.(peer);
    parse t ~peer buf (off + 4 + n)
  end

(* [parse] over [tail ^ data], where [tail] holds no complete frame,
   without joining the two: only the frame that straddles them is
   copied. *)
let take t ~peer tail data =
  if tail = "" then parse t ~peer data 0
  else
    let tl = String.length tail and dl = String.length data in
    let head = if tl >= 4 then tail else tail ^ String.sub data 0 (min dl (4 - tl)) in
    let cut = if String.length head < 4 then max_int else 4 + frame_len ~peer head 0 - tl in
    if cut > dl then tail ^ data
    else begin
      ignore (parse t ~peer (tail ^ String.sub data 0 cut) 0);
      parse t ~peer data cut
    end

(* Flush, then read and parse, one neighbour.  A flush hands the whole
   output buffer to one write; each read is parsed as it arrives, and
   the unparsed tail stays in [in_bufs]. *)
let visit (ctx : Simos.Program.ctx) t d peer =
  let fd = d.peer_fd.(peer) in
  if fd >= 0 then begin
    let out = d.out_bufs.(peer) in
    (if out <> "" then
       match ctx.write_fd fd out with
       | Ok n -> d.out_bufs.(peer) <- String.sub out n (String.length out - n)
       | Error _ -> ());
    let rec drain tail =
      match ctx.read_fd fd ~max:65536 with
      | `Data data -> drain (take t ~peer tail data)
      | `Eof | `Would_block | `Err _ -> tail
    in
    (* a tail restored from an image may still hold whole frames *)
    d.in_bufs.(peer) <- drain (parse t ~peer d.in_bufs.(peer) 0)
  end

(* Some neighbour's output is not yet flushed. *)
let rec output_pending d = function
  | [] -> false
  | peer :: rest -> d.out_bufs.(peer) <> "" || output_pending d rest

(* Block until the listener or a connected neighbour is readable. *)
let readable_any t d =
  let fds =
    List.filter_map (fun p -> if d.peer_fd.(p) >= 0 then Some d.peer_fd.(p) else None) t.neighbors
  in
  Simos.Program.Readable_any (if d.listen_fd >= 0 then d.listen_fd :: fds else fds)

(* A watch over the neighbours' sockets; [None] while some neighbour's
   fd has no wake cells (an unconnected one is -1). *)
let watch (ctx : Simos.Program.ctx) t d =
  let peers = Array.of_list t.neighbors in
  let homes = Array.map (fun peer -> ctx.wake_cells d.peer_fd.(peer)) peers in
  if not (Array.for_all Option.is_some homes) then None
  else begin
    let wait = Sim.Wake.wait ~size:(Array.length peers) in
    Some
      {
        wait;
        cells = Array.mapi (fun slot home -> Sim.Wake.arm wait (Option.get home) ~slot) homes;
        peers;
        due = Array.make (Array.length peers) false;
        block = readable_any t d;
      }
  end

(* Without a watch, visit every neighbour, then try to build one.  With
   it, visit only the neighbours whose cell fired or whose output is
   pending, in neighbour order, after re-arming the fired cells.  A
   skipped neighbour has nothing to flush, and its read would return
   [`Would_block], [`Eof] or an error and parse nothing: so every read
   and write that moves bytes runs as in the full loop. *)
let direct_progress (ctx : Simos.Program.ctx) t d =
  match d.watch with
  | None ->
    List.iter (visit ctx t d) t.neighbors;
    d.watch <- watch ctx t d
  | Some w ->
    Sim.Wake.iter_fired w.wait (fun i -> w.due.(i) <- true);
    Sim.Wake.rearm w.wait w.cells;
    for i = 0 to Array.length w.peers - 1 do
      let peer = w.peers.(i) in
      if w.due.(i) || d.out_bufs.(peer) <> "" then begin
        w.due.(i) <- false;
        visit ctx t d peer
      end
    done

(* ------------------------------------------------------------------ *)
(* Proxy backend machinery *)

let proxy_path t = Proxy.Wire.sock_path ~base_port:t.base_port

(* restart-rearrangement marker: the mpi-proxy plugin reads it from the
   restored process environment and relaunches the node's proxy before
   the rank resumes *)
let proxy_env_key = "MPI_PROXY"

let unacked_payload l = List.fold_left (fun acc (_, _, pl) -> acc + String.length pl) 0 l

let mirror_accounting t p =
  Option.iter
    (fun job ->
      Proxy.Accounting.set_rank job ~rank:t.rank ~sent_to:p.sent_bytes
        ~delivered_from:p.delivered_bytes
        ~retained_to:(Array.map unacked_payload p.unacked))
    p.ledger

let penqueue p f = p.pout <- p.pout ^ Proxy.Wire.to_bytes f

let pdrop (ctx : Simos.Program.ctx) p =
  if p.pfd >= 0 then ctx.close_fd p.pfd;
  p.pfd <- -1;
  p.ready <- false;
  p.hello_sent <- false;
  p.pin <- "";
  p.pout <- ""

let pconnect (ctx : Simos.Program.ctx) t p =
  ctx.setenv proxy_env_key
    (Printf.sprintf "%d:%d" t.base_port t.ranks_per_node);
  let fd = ctx.socket_unix () in
  match ctx.connect fd (Simnet.Addr.Unix { host = ctx.node_id; path = proxy_path t }) with
  | Ok () -> p.pfd <- fd
  | Error _ -> ctx.close_fd fd

(* everything not yet acknowledged goes again, oldest first — the
   receive side discards what it already accepted.  Resends carry the
   *current* epoch: after a restore they are the new generation's
   authoritative copies of the rewound traffic. *)
let requeue_unacked t p =
  Array.iteri
    (fun dst l ->
      List.iter
        (fun (seq, tag, payload) ->
          penqueue p (Proxy.Wire.Data { src = t.rank; dst; epoch = p.epoch; seq; tag; payload }))
        l)
    p.unacked

let paccept t p ~src ~epoch ~seq ~tag ~payload =
  (* a frame from another epoch is pre-restore traffic a surviving proxy
     still held; the rewind invalidated it wholesale *)
  if epoch <> p.epoch then ()
  else if seq = p.recv_seq.(src) + 1 then begin
    p.recv_seq.(src) <- seq;
    p.delivered_bytes.(src) <- p.delivered_bytes.(src) + String.length payload;
    Queue.push (tag, payload) t.inbox.(src);
    penqueue p (Proxy.Wire.Ack { src = t.rank; dst = src; epoch = p.epoch; seq })
  end
  else if seq <= p.recv_seq.(src) then
    (* duplicate (a resend raced surviving proxy custody): re-acknowledge
       cumulatively, do not deliver twice *)
    penqueue p (Proxy.Wire.Ack { src = t.rank; dst = src; epoch = p.epoch; seq = p.recv_seq.(src) })
  (* else: a gap — stale custody from a surviving proxy running ahead of
     the in-order resend; drop it, the resend supplies the missing
     frames (and this one again) in order *)

let pprogress (ctx : Simos.Program.ctx) t p =
  if Option.is_none p.ledger then
    p.ledger <- Some (Proxy.Accounting.job ctx.local ~base_port:t.base_port);
  if p.pfd < 0 then pconnect ctx t p;
  (if p.pfd >= 0 then
     match ctx.sock_state p.pfd with
     | Some Simnet.Fabric.Connecting -> ()
     | Some Simnet.Fabric.Established ->
       if not p.hello_sent then begin
         p.hello_sent <- true;
         penqueue p (Proxy.Wire.Hello { rank = t.rank; size = t.size; rpn = t.ranks_per_node })
       end;
       (if p.pout <> "" then
          match ctx.write_fd p.pfd p.pout with
          | Ok n -> p.pout <- String.sub p.pout n (String.length p.pout - n)
          | Error _ -> pdrop ctx p);
       if p.pfd >= 0 then begin
         let continue = ref true in
         while !continue do
           match ctx.read_fd p.pfd ~max:65536 with
           | `Data data -> p.pin <- p.pin ^ data
           | `Would_block -> continue := false
           | `Eof | `Err _ ->
             pdrop ctx p;
             continue := false
         done
       end;
       if p.pfd >= 0 then begin
         let again = ref true in
         while !again do
           match Proxy.Wire.pop p.pin with
           | exception Util.Codec.Reader.Corrupt _ ->
             (* a garbled proxy stream: drop the link as on a hangup and
                reconnect next round; the resend protocol recovers *)
             pdrop ctx p;
             again := false
           | None -> again := false
           | Some (f, rest) ->
             p.pin <- rest;
             (match f with
             | Proxy.Wire.Welcome ->
               p.ready <- true;
               p.last_resend <- ctx.now ();
               requeue_unacked t p
             | Proxy.Wire.Deliver { src; epoch; seq; tag; payload } ->
               paccept t p ~src ~epoch ~seq ~tag ~payload
             | Proxy.Wire.Ack_ind { src; epoch; seq } ->
               (* a stale ack survives in the proxies across a restart and
                  would cancel the resend of a delivery the rewind undid *)
               if epoch = p.epoch then
                 p.unacked.(src) <- List.filter (fun (s, _, _) -> s > seq) p.unacked.(src)
             | Proxy.Wire.Hello _ | Proxy.Wire.Data _ | Proxy.Wire.Ack _ -> ())
         done
       end;
       (* retransmit timer: delivery must not depend on any particular
          copy surviving — a proxy sheds custody whenever a connection
          dies (a rank suspended mid-checkpoint stops draining its unix
          socket, say), and only the sender can put the bytes back.
          Duplicates are cheap: the receiver re-acks and drops them. *)
       if
         p.pfd >= 0 && p.ready
         && ctx.now () -. p.last_resend > 0.02
         && Array.exists (fun l -> l <> []) p.unacked
       then begin
         p.last_resend <- ctx.now ();
         requeue_unacked t p
       end
     | _ ->
       (* refused (proxy not up yet), closed, or the dead socket a restart
          restored in place of the old connection: reconnect next round *)
       pdrop ctx p);
  mirror_accounting t p

let psend t p ~dst ~tag payload =
  let seq = p.send_seq.(dst) + 1 in
  p.send_seq.(dst) <- seq;
  p.unacked.(dst) <- p.unacked.(dst) @ [ (seq, tag, payload) ];
  p.sent_bytes.(dst) <- p.sent_bytes.(dst) + String.length payload;
  if p.ready then
    penqueue p (Proxy.Wire.Data { src = t.rank; dst; epoch = p.epoch; seq; tag; payload });
  mirror_accounting t p

(* ------------------------------------------------------------------ *)
(* Transport-agnostic surface *)

let init_step (ctx : Simos.Program.ctx) t =
  match t.backend with
  | B_direct d -> direct_init_step ctx t d
  | B_proxied p ->
    pprogress ctx t p;
    if p.ready then `Ready else `Pending

let send t ~dst ~tag payload =
  match t.backend with
  | B_direct d -> d.out_bufs.(dst) <- d.out_bufs.(dst) ^ frame ~tag payload
  | B_proxied p -> psend t p ~dst ~tag payload

let progress (ctx : Simos.Program.ctx) t =
  match t.backend with
  | B_direct d -> direct_progress ctx t d
  | B_proxied p -> pprogress ctx t p

let recv t ~src ~tag =
  let q = t.inbox.(src) in
  match Queue.peek_opt q with
  | Some (tg, payload) when tg = tag ->
    ignore (Queue.take q);
    Some payload
  | Some _ when Queue.fold (fun found (tg, _) -> found || tg = tag) false q ->
    (* the oldest match sits behind another tag: rebuild without it *)
    let taken = ref None and rest = Queue.create () in
    Queue.iter
      (fun ((tg, payload) as m) ->
        if Option.is_none !taken && tg = tag then taken := Some payload else Queue.push m rest)
      q;
    Queue.clear q;
    Queue.transfer rest q;
    !taken
  | Some _ | None -> None

let recv_any t ~tag =
  let rec go = function
    | [] -> None
    | src :: rest -> (
      match recv t ~src ~tag with
      | Some payload -> Some (src, payload)
      | None -> go rest)
  in
  go t.neighbors

let pending_out t ~dst =
  match t.backend with
  | B_direct d -> String.length d.out_bufs.(dst)
  | B_proxied p -> unacked_payload p.unacked.(dst)

let wait (ctx : Simos.Program.ctx) t =
  match t.backend with
  | B_direct d -> (
    if output_pending d t.neighbors then Simos.Program.Sleep_until (ctx.now () +. 1e-3)
    else match d.watch with Some w -> w.block | None -> readable_any t d)
  | B_proxied p ->
    (* poll while anything is unacknowledged — a pure Readable block
       would never run the retransmit timer if the only copy in flight
       was lost; with an empty resend buffer the peer drives every
       wake-up and blocking on the socket is safe *)
    if
      p.pfd < 0 || (not p.ready) || p.pout <> ""
      || Array.exists (fun l -> l <> []) p.unacked
    then Simos.Program.Sleep_until (ctx.now () +. 1e-3)
    else Simos.Program.Readable p.pfd

(* nothing buffered and nothing awaiting acknowledgement: every payload
   this rank produced is in the destination rank's hands.  Transport
   custody is disposable, so a rank may only exit in this state — bytes
   still in [unacked] would otherwise be unrecoverable. *)
let quiesced t =
  match t.backend with
  | B_direct d -> Array.for_all (fun b -> b = "") d.out_bufs
  | B_proxied p -> p.pout = "" && Array.for_all (fun l -> l = []) p.unacked

(* ------------------------------------------------------------------ *)
(* Collectives: star rooted at rank 0; tags 'g' (gather) and 'r'
   (release) are reserved. *)

let f64_str v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float v);
  Bytes.unsafe_to_string b

let str_f64 s = Int64.float_of_bits (String.get_int64_le s 0)

module Coll = struct
  type op = Barrier | Sum of float

  let barrier = Barrier
  let allreduce_sum v = Sum v

  type st = {
    kind : int;  (* 0 barrier, 1 sum *)
    value : float;
    mutable phase : int;  (* 0 not started, 1 gathering/waiting *)
    mutable got : int;
    mutable pairs : (int * float) list;  (* root: (src rank, value) *)
  }

  let start = function
    | Barrier -> { kind = 0; value = 0.; phase = 0; got = 0; pairs = [] }
    | Sum v -> { kind = 1; value = v; phase = 0; got = 0; pairs = [] }

  (* summed in rank order, not arrival order: the reduction result must
     be bit-identical across timings and transports *)
  let reduce pairs =
    List.sort (fun (a, _) (b, _) -> compare a b) pairs
    |> List.fold_left (fun acc (_, v) -> acc +. v) 0.

  let step (ctx : Simos.Program.ctx) comm st =
    progress ctx comm;
    if comm.size = 1 then `Done st.value
    else if comm.rank <> 0 then begin
      if st.phase = 0 then begin
        send comm ~dst:0 ~tag:'g' (f64_str st.value);
        st.phase <- 1
      end;
      progress ctx comm;
      match recv comm ~src:0 ~tag:'r' with
      | Some payload -> `Done (str_f64 payload)
      | None -> `Pending
    end
    else begin
      if st.phase = 0 then begin
        st.phase <- 1;
        st.got <- 1;
        st.pairs <- [ (0, st.value) ]
      end;
      let continue = ref true in
      while !continue do
        match recv_any comm ~tag:'g' with
        | Some (src, payload) ->
          st.got <- st.got + 1;
          st.pairs <- (src, str_f64 payload) :: st.pairs
        | None -> continue := false
      done;
      if st.got >= comm.size then begin
        let result = reduce st.pairs in
        for r = 1 to comm.size - 1 do
          send comm ~dst:r ~tag:'r' (f64_str result)
        done;
        progress ctx comm;
        `Done result
      end
      else `Pending
    end

  let encode w st =
    W.uvarint w st.kind;
    W.f64 w st.value;
    W.uvarint w st.phase;
    W.uvarint w st.got;
    W.list (W.pair W.uvarint W.f64) w st.pairs

  let decode r =
    let kind = R.uvarint r in
    let value = R.f64 r in
    let phase = R.uvarint r in
    let got = R.uvarint r in
    let pairs = R.list (R.pair R.uvarint R.f64) r in
    { kind; value; phase; got; pairs }
end

(* ------------------------------------------------------------------ *)

let encode_backend w = function
  | B_direct d ->
    W.u8 w 0;
    W.varint w d.listen_fd;
    W.array W.varint w d.peer_fd;
    W.list (W.pair W.uvarint W.varint) w d.pending_conn;
    W.list (W.pair W.varint W.string) w d.pending_accept;
    W.array W.string w d.out_bufs;
    W.array W.string w d.in_bufs
  | B_proxied p ->
    W.u8 w 1;
    W.varint w p.pfd;
    W.bool w p.ready;
    W.bool w p.hello_sent;
    W.string w p.pout;
    W.string w p.pin;
    (* the image restores into the next connection generation: proxies
       outlive the computation, and anything they still carry from this
       epoch must not be mistaken for post-restore traffic *)
    W.uvarint w (p.epoch + 1);
    W.array W.uvarint w p.send_seq;
    W.array W.uvarint w p.recv_seq;
    W.array
      (W.list (fun w (seq, tag, payload) ->
           W.uvarint w seq;
           W.u8 w (Char.code tag);
           W.string w payload))
      w p.unacked;
    W.array W.uvarint w p.sent_bytes;
    W.array W.uvarint w p.delivered_bytes

let decode_backend r =
  match R.u8 r with
  | 0 ->
    let listen_fd = R.varint r in
    let peer_fd = R.array R.varint r in
    let pending_conn = R.list (R.pair R.uvarint R.varint) r in
    let pending_accept = R.list (R.pair R.varint R.string) r in
    let out_bufs = R.array R.string r in
    let in_bufs = R.array R.string r in
    B_direct { listen_fd; peer_fd; pending_conn; pending_accept; out_bufs; in_bufs; watch = None }
  | _ ->
    let pfd = R.varint r in
    let ready = R.bool r in
    let hello_sent = R.bool r in
    let pout = R.string r in
    let pin = R.string r in
    let epoch = R.uvarint r in
    let send_seq = R.array R.uvarint r in
    let recv_seq = R.array R.uvarint r in
    let unacked =
      R.array
        (R.list (fun r ->
             let seq = R.uvarint r in
             let tag = Char.chr (R.u8 r) in
             let payload = R.string r in
             (seq, tag, payload)))
        r
    in
    let sent_bytes = R.array R.uvarint r in
    let delivered_bytes = R.array R.uvarint r in
    B_proxied
      {
        pfd;
        ready;
        hello_sent;
        pout;
        pin;
        epoch;
        last_resend = 0.;
        send_seq;
        recv_seq;
        unacked;
        sent_bytes;
        delivered_bytes;
        ledger = None;
      }

let encode w t =
  W.uvarint w t.rank;
  W.uvarint w t.size;
  W.uvarint w t.base_port;
  W.uvarint w t.ranks_per_node;
  W.list W.uvarint w t.neighbors;
  encode_backend w t.backend;
  W.array
    (fun w q ->
      W.list
        (fun w (tag, payload) ->
          W.u8 w (Char.code tag);
          W.string w payload)
        w
        (List.of_seq (Queue.to_seq q)))
    w t.inbox

(* A restored record is outside input: hold it to the shape [create]
   gives it, or the rank's first step indexes out of bounds. *)
let check_shape t =
  let in_range what r =
    if r < 0 || r >= t.size then R.corrupt "Mpi: %s %d outside 0..%d" what r (t.size - 1)
  in
  let per_rank what a =
    if Array.length a <> t.size then
      R.corrupt "Mpi: %d %s for %d ranks" (Array.length a) what t.size
  in
  in_range "rank" t.rank;
  List.iter (in_range "neighbour") t.neighbors;
  per_rank "inboxes" t.inbox;
  match t.backend with
  | B_direct d ->
    per_rank "peer fds" d.peer_fd;
    per_rank "out buffers" d.out_bufs;
    per_rank "in buffers" d.in_bufs;
    List.iter (fun (peer, _) -> in_range "pending-connect peer" peer) d.pending_conn;
    List.iter
      (fun (fd, hdr) ->
        if String.length hdr >= 4 then R.corrupt "Mpi: fd %d holds a whole rank header" fd)
      d.pending_accept;
    Array.iteri (fun peer b -> if String.length b >= 4 then ignore (frame_len ~peer b 0)) d.in_bufs
  | B_proxied p ->
    per_rank "send sequences" p.send_seq;
    per_rank "recv sequences" p.recv_seq;
    per_rank "resend buffers" p.unacked;
    per_rank "sent-byte gauges" p.sent_bytes;
    per_rank "delivered-byte gauges" p.delivered_bytes

let decode r =
  let rank = R.uvarint r in
  let size = R.uvarint r in
  let base_port = R.uvarint r in
  let ranks_per_node = R.uvarint r in
  let neighbors = R.list R.uvarint r in
  let backend = decode_backend r in
  let inbox =
    R.array
      (fun r ->
        R.list
          (fun r ->
            let tag = Char.chr (R.u8 r) in
            let payload = R.string r in
            (tag, payload))
          r
        |> List.to_seq |> Queue.of_seq)
      r
  in
  let t = { rank; size; base_port; ranks_per_node; neighbors; backend; inbox } in
  check_shape t;
  t
