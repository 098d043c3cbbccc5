module W = Util.Codec.Writer

let prog_name = "mpi:proxy"

(* A connection the proxy is party to.  Three roles:
   - [`Rank r]: the unix connection rank [r] registered with Hello;
   - [`Dial n]: the TCP connection we dialed to node [n]'s proxy
     (outbound frames to that node queue here);
   - [`Anon]: freshly accepted (unix pre-Hello, or an inbound TCP
     connection from a peer proxy — those stay read-only forever). *)
type conn = {
  mutable fd : int;
  mutable role : [ `Anon | `Rank of int | `Dial of int ];
  mutable inb : string;
  mutable outb : string;
  mutable dead : bool;
}

type run = {
  base_port : int;
  mutable rpn : int;
  ufd : int;  (* unix listener for local ranks *)
  tfd : int;  (* TCP listener for peer proxies *)
  mutable conns : conn list;  (* registration order; determinism relies on it *)
  mutable parked : (int * string) list;  (* (rank, encoded frame), FIFO *)
}

type state = D_boot | D_run of run

module P = struct
  type nonrec state = state

  let name = prog_name

  (* Proxies are never checkpointed; the codec exists only to satisfy
     the program interface and restores to a cold boot. *)
  let encode w _ = W.u8 w 0
  let decode _ = D_boot
  let init ~argv:_ = D_boot

  let job_args (ctx : Simos.Program.ctx) =
    match List.tl ctx.argv with
    | bp :: rpn :: _ -> (int_of_string bp, max 1 (int_of_string rpn))
    | _ -> failwith "mpi:proxy: argv must be <base_port> <ranks_per_node>"

  let node_of r dst = dst / r.rpn

  let deliver_frame = function
    | Wire.Data { src; dst = _; epoch; seq; tag; payload } ->
      Wire.Deliver { src; epoch; seq; tag; payload }
    | Wire.Ack { src; dst = _; epoch; seq } -> Wire.Ack_ind { src; epoch; seq }
    | f -> f

  let rank_conn r rank =
    List.find_opt (fun c -> (not c.dead) && c.role = `Rank rank) r.conns

  let dial_conn r node =
    List.find_opt (fun c -> (not c.dead) && c.role = `Dial node) r.conns

  let route (ctx : Simos.Program.ctx) r f =
    let dst = match f with Wire.Data { dst; _ } | Wire.Ack { dst; _ } -> dst | _ -> -1 in
    if dst < 0 then ()
    else if node_of r dst = ctx.node_id then begin
      let bytes = Wire.to_bytes (deliver_frame f) in
      match rank_conn r dst with
      | Some c -> c.outb <- c.outb ^ bytes
      | None -> r.parked <- r.parked @ [ (dst, bytes) ]
    end
    else begin
      let node = node_of r dst in
      let c =
        match dial_conn r node with
        | Some c -> c
        | None ->
          let fd = ctx.socket () in
          (match
             ctx.connect fd (Simnet.Addr.Inet { host = node; port = Wire.tcp_port ~base_port:r.base_port })
           with
          | Ok () -> ()
          | Error _ -> ());
          let c = { fd; role = `Dial node; inb = ""; outb = ""; dead = false } in
          r.conns <- r.conns @ [ c ];
          c
      in
      c.outb <- c.outb ^ Wire.to_bytes f
    end

  let on_hello r conn ~rank ~rpn =
    r.rpn <- max 1 rpn;
    (* a reconnect (post-restart) supersedes any stale registration *)
    List.iter (fun c -> if c != conn && c.role = `Rank rank then c.role <- `Anon) r.conns;
    conn.role <- `Rank rank;
    conn.outb <- conn.outb ^ Wire.to_bytes Wire.Welcome;
    let mine, rest = List.partition (fun (dst, _) -> dst = rank) r.parked in
    r.parked <- rest;
    List.iter (fun (_, bytes) -> conn.outb <- conn.outb ^ bytes) mine

  let parse_conn ctx r conn =
    let again = ref true in
    while !again do
      match Wire.pop conn.inb with
      | exception Util.Codec.Reader.Corrupt _ ->
        (* garbage on this connection: close it as on a hangup; the
           other connections keep routing *)
        conn.dead <- true;
        again := false
      | None -> again := false
      | Some (f, rest) ->
        conn.inb <- rest;
        (match f with
        | Wire.Hello { rank; size = _; rpn } -> on_hello r conn ~rank ~rpn
        | Wire.Data _ | Wire.Ack _ -> route ctx r f
        | Wire.Welcome | Wire.Deliver _ | Wire.Ack_ind _ -> ())
    done

  let pump (ctx : Simos.Program.ctx) r =
    (* accept local ranks and peer proxies *)
    let rec accept_all lfd =
      match ctx.accept lfd with
      | Some fd ->
        r.conns <- r.conns @ [ { fd; role = `Anon; inb = ""; outb = ""; dead = false } ];
        accept_all lfd
      | None -> ()
    in
    accept_all r.ufd;
    accept_all r.tfd;
    (* read everything that arrived, then parse *)
    List.iter
      (fun c ->
        if not c.dead then begin
          let continue = ref true in
          while !continue do
            match ctx.read_fd c.fd ~max:65536 with
            | `Data d -> c.inb <- c.inb ^ d
            | `Would_block -> continue := false
            | `Eof | `Err _ ->
              c.dead <- true;
              continue := false
          done;
          if not c.dead then parse_conn ctx r c
        end)
      r.conns;
    (* flush queued output *)
    List.iter
      (fun c ->
        if (not c.dead) && c.outb <> "" then
          match (c.role, ctx.sock_state c.fd) with
          | `Dial _, Some Simnet.Fabric.Connecting -> ()
          | `Dial _, Some Simnet.Fabric.Closed when ctx.sock_refused c.fd ->
            (* peer proxy not up yet (staggered restart): redial with the
               queued custody intact *)
            ctx.close_fd c.fd;
            let fd = ctx.socket () in
            (match c.role with
            | `Dial node ->
              ignore
                (ctx.connect fd
                   (Simnet.Addr.Inet { host = node; port = Wire.tcp_port ~base_port:r.base_port }))
            | _ -> ());
            c.fd <- fd
          | _, Some Simnet.Fabric.Established -> (
            match ctx.write_fd c.fd c.outb with
            | Ok n -> c.outb <- String.sub c.outb n (String.length c.outb - n)
            | Error _ -> c.dead <- true)
          | _, Some _ | _, None -> c.dead <- true)
      r.conns;
    (* reap dead connections; their buffered custody dies with them and
       the ranks' resend protocol recovers it *)
    List.iter (fun c -> if c.dead then ctx.close_fd c.fd) r.conns;
    r.conns <- List.filter (fun c -> not c.dead) r.conns

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | D_boot ->
      let base_port, rpn = job_args ctx in
      let ufd = ctx.socket_unix () in
      (match ctx.bind_unix ufd ~path:(Wire.sock_path ~base_port) with
      | Ok () -> ()
      | Error _ ->
        (* a proxy for this job already owns the node *)
        raise Exit);
      (match ctx.listen ufd ~backlog:64 with Ok () -> () | Error _ -> raise Exit);
      let tfd = ctx.socket () in
      (match ctx.bind tfd ~port:(Wire.tcp_port ~base_port) with
      | Ok _ -> ()
      | Error _ -> raise Exit);
      (match ctx.listen tfd ~backlog:64 with Ok () -> () | Error _ -> raise Exit);
      Simos.Program.Continue (D_run { base_port; rpn; ufd; tfd; conns = []; parked = [] })
    | D_run r ->
      pump ctx r;
      (* anything queued for output (even behind an in-progress connect or
         a redial) drains by polling: connect completion alone never makes
         an fd readable, so Readable_any would sleep through it *)
      let busy = List.exists (fun c -> c.outb <> "") r.conns in
      if busy then Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
      else
        Simos.Program.Block
          (st, Simos.Program.Readable_any (r.ufd :: r.tfd :: List.map (fun c -> c.fd) r.conns))

  let step ctx st = try step ctx st with Exit -> Simos.Program.Exit 0
end

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    Simos.Program.register (module P : Simos.Program.S)
  end

let running kernel ~base_port =
  List.exists
    (fun (p : Simos.Kernel.process) ->
      match p.Simos.Kernel.cmdline with
      | n :: bp :: _ when n = prog_name -> int_of_string_opt bp = Some base_port
      | _ -> false)
    (Simos.Kernel.processes kernel)

let ensure kernel ~base_port ~rpn =
  if Simos.Program.is_registered prog_name && not (running kernel ~base_port) then
    ignore
      (Simos.Kernel.spawn kernel ~prog:prog_name
         ~argv:[ string_of_int base_port; string_of_int rpn ]
         ())

let spawn_on cl ~node ~base_port ~rpn = ensure (Simos.Cluster.kernel cl node) ~base_port ~rpn

let nodes_of_job ~size ~rpn =
  let rpn = max 1 rpn in
  List.init ((size + rpn - 1) / rpn) Fun.id
