module W = Util.Codec.Writer
module R = Util.Codec.Reader

let parse_rank_args = function
  | rank :: size :: base_port :: rpn :: nhost :: nport :: extra ->
    ( int_of_string rank,
      int_of_string size,
      int_of_string base_port,
      int_of_string rpn,
      int_of_string nhost,
      int_of_string nport,
      extra )
  | argv -> failwith ("bad rank argv: " ^ String.concat " " argv)

(* ------------------------------------------------------------------ *)
(* completion notification (rank -> mpirun) *)

type notify = { n_host : int; n_port : int; mutable n_fd : int; mutable n_sent : bool }

let notify_start ~host ~port = { n_host = host; n_port = port; n_fd = -1; n_sent = false }

let notify_step (ctx : Simos.Program.ctx) n =
  if n.n_port = 0 then `Done  (* notification disabled *)
  else if n.n_fd < 0 then begin
    n.n_fd <- ctx.socket ();
    ignore (ctx.connect n.n_fd (Simnet.Addr.Inet { host = n.n_host; port = n.n_port }));
    `Pending
  end
  else
    match ctx.sock_state n.n_fd with
    | Some Simnet.Fabric.Established ->
      if not n.n_sent then begin
        ignore (ctx.write_fd n.n_fd "DONE\n");
        n.n_sent <- true
      end;
      ctx.close_fd n.n_fd;
      `Done
    | Some Simnet.Fabric.Connecting -> `Pending
    | _ ->
      (* mpirun already gone; that is fine *)
      `Done

let encode_notify w n =
  W.uvarint w n.n_host;
  W.uvarint w n.n_port;
  W.varint w n.n_fd;
  W.bool w n.n_sent

let decode_notify r =
  let n_host = R.uvarint r in
  let n_port = R.uvarint r in
  let n_fd = R.varint r in
  let n_sent = R.bool r in
  { n_host; n_port; n_fd; n_sent }

(* ------------------------------------------------------------------ *)
(* mpd: one daemon per node, in a ring *)

module Mpd = struct
  type ring = { idx : int; n : int; port : int; lfd : int; next_fd : int; peer_fds : int list }

  type state =
    | Boot of { idx : int; n : int; port : int }
    | Ring of ring

  let name = "mpi:mpd"

  let encode w = function
    | Boot { idx; n; port } ->
      W.u8 w 0;
      W.uvarint w idx;
      W.uvarint w n;
      W.uvarint w port
    | Ring { idx; n; port; lfd; next_fd; peer_fds } ->
      W.u8 w 1;
      W.uvarint w idx;
      W.uvarint w n;
      W.uvarint w port;
      W.varint w lfd;
      W.varint w next_fd;
      W.list W.varint w peer_fds

  let decode r =
    match R.u8 r with
    | 0 ->
      let idx = R.uvarint r in
      let n = R.uvarint r in
      let port = R.uvarint r in
      Boot { idx; n; port }
    | _ ->
      let idx = R.uvarint r in
      let n = R.uvarint r in
      let port = R.uvarint r in
      let lfd = R.varint r in
      let next_fd = R.varint r in
      let peer_fds = R.list R.varint r in
      Ring { idx; n; port; lfd; next_fd; peer_fds }

  let init ~argv =
    match argv with
    | [ idx; n; port ] ->
      Boot { idx = int_of_string idx; n = int_of_string n; port = int_of_string port }
    | _ -> Boot { idx = 0; n = 1; port = 8000 }

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Boot { idx; n; port } ->
      ignore (Workload_mem.alloc ctx ~bytes:6_000_000 ~mix:Workload_mem.mostly_code ~seed:(777 + idx));
      let lfd = ctx.socket () in
      (match ctx.bind lfd ~port:(port + idx) with Ok _ -> () | Error _ -> ());
      ignore (ctx.listen lfd ~backlog:8);
      let next_fd =
        if n > 1 then begin
          let fd = ctx.socket () in
          let next = (idx + 1) mod n in
          ignore (ctx.connect fd (Simnet.Addr.Inet { host = next; port = port + next }));
          fd
        end
        else -1
      in
      Simos.Program.Block
        ( Ring { idx; n; port; lfd; next_fd; peer_fds = [] },
          Simos.Program.Sleep_until (ctx.now () +. 5e-3) )
    | Ring ring -> (
      let { lfd; next_fd; peer_fds; n; _ } = ring in
      (* retry the ring link until the next daemon's listener is up *)
      let ring =
        if next_fd >= 0 && ctx.sock_refused next_fd then begin
          ctx.close_fd next_fd;
          let fd = ctx.socket () in
          let next = (ring.idx + 1) mod n in
          ignore (ctx.connect fd (Simnet.Addr.Inet { host = next; port = ring.port + next }));
          { ring with next_fd = fd }
        end
        else ring
      in
      let ring =
        match ctx.accept lfd with
        | Some fd -> { ring with peer_fds = fd :: peer_fds }
        | None -> ring
      in
      (* drain any chatter on ring links; mpds are otherwise idle *)
      List.iter
        (fun fd ->
          match ctx.read_fd fd ~max:4096 with
          | `Data _ | `Eof | `Would_block | `Err _ -> ())
        ring.peer_fds;
      match ctx.sock_state ring.next_fd with
      | Some Simnet.Fabric.Connecting ->
        Simos.Program.Block (Ring ring, Simos.Program.Sleep_until (ctx.now () +. 5e-3))
      | _ ->
        Simos.Program.Block (Ring ring, Simos.Program.Readable_any (lfd :: ring.peer_fds)))
end

module Mpdboot = struct
  type state = unit

  let name = "mpi:mpdboot"
  let encode _ () = ()
  let decode _ = ()
  let init ~argv:_ = ()

  let step (ctx : Simos.Program.ctx) () =
    let n, port =
      match ctx.argv with
      | [ _; n ] -> (int_of_string n, 8000)
      | [ _; n; port ] -> (int_of_string n, int_of_string port)
      | _ -> (1, 8000)
    in
    for idx = 0 to n - 1 do
      ignore
        (ctx.ssh ~host:idx ~prog:Mpd.name
           ~argv:[ string_of_int idx; string_of_int n; string_of_int port ])
    done;
    Simos.Program.Exit 0
end

(* ------------------------------------------------------------------ *)
(* orted: OpenRTE daemon, star to mpirun *)

module Orted = struct
  type state =
    | Boot of { host : int; port : int }
    | Idle of { fd : int }

  let name = "mpi:orted"

  let encode w = function
    | Boot { host; port } ->
      W.u8 w 0;
      W.uvarint w host;
      W.uvarint w port
    | Idle { fd } ->
      W.u8 w 1;
      W.varint w fd

  let decode r =
    match R.u8 r with
    | 0 ->
      let host = R.uvarint r in
      let port = R.uvarint r in
      Boot { host; port }
    | _ -> Idle { fd = R.varint r }

  let init ~argv =
    match argv with
    | [ host; port ] -> Boot { host = int_of_string host; port = int_of_string port }
    | _ -> Boot { host = 0; port = 7900 }

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Boot { host; port } ->
      ignore (Workload_mem.alloc ctx ~bytes:8_000_000 ~mix:Workload_mem.mostly_code ~seed:(888 + ctx.node_id));
      let fd = ctx.socket () in
      ignore (ctx.connect fd (Simnet.Addr.Inet { host; port }));
      Simos.Program.Block (Idle { fd }, Simos.Program.Sleep_until (ctx.now () +. 5e-3))
    | Idle { fd } -> (
      match ctx.read_fd fd ~max:4096 with
      | `Data _ -> Simos.Program.Block (st, Simos.Program.Readable fd)
      | `Eof -> Simos.Program.Exit 0
      | `Would_block -> Simos.Program.Block (st, Simos.Program.Readable fd)
      | `Err _ -> Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 5e-3)))
end

(* ------------------------------------------------------------------ *)
(* mpirun *)

module Mpirun = struct
  type state =
    | Boot
    | Wait_orted of { lfd : int; fds : int list; want : int }
    | Spawn of { lfd : int; daemon_fds : int list }
    | Await of { lfd : int; daemon_fds : int list; done_fds : (int * string) list; finished : int }

  let name = "mpi:mpirun"

  (* mpirun is checkpointed but its state is simple and serializable *)
  let encode w = function
    | Boot -> W.u8 w 0
    | Wait_orted { lfd; fds; want } ->
      W.u8 w 1;
      W.varint w lfd;
      W.list W.varint w fds;
      W.uvarint w want
    | Spawn { lfd; daemon_fds } ->
      W.u8 w 2;
      W.varint w lfd;
      W.list W.varint w daemon_fds
    | Await { lfd; daemon_fds; done_fds; finished } ->
      W.u8 w 3;
      W.varint w lfd;
      W.list W.varint w daemon_fds;
      W.list (W.pair W.varint W.string) w done_fds;
      W.uvarint w finished

  let decode r =
    match R.u8 r with
    | 0 -> Boot
    | 1 ->
      let lfd = R.varint r in
      let fds = R.list R.varint r in
      let want = R.uvarint r in
      Wait_orted { lfd; fds; want }
    | 2 ->
      let lfd = R.varint r in
      let daemon_fds = R.list R.varint r in
      Spawn { lfd; daemon_fds }
    | _ ->
      let lfd = R.varint r in
      let daemon_fds = R.list R.varint r in
      let done_fds = R.list (R.pair R.varint R.string) r in
      let finished = R.uvarint r in
      Await { lfd; daemon_fds; done_fds; finished }

  let init ~argv:_ = Boot

  (* argv: mpirun <mpich2|openmpi> <nprocs> <ranks_per_node> <base_port>
     <prog> <extra...> *)
  let parse (ctx : Simos.Program.ctx) =
    match ctx.argv with
    | _ :: rt :: nprocs :: rpn :: base_port :: prog :: extra ->
      (rt, int_of_string nprocs, int_of_string rpn, int_of_string base_port, prog, extra)
    | _ -> failwith "mpirun: bad argv"

  let nodes_used nprocs rpn = (nprocs + rpn - 1) / rpn

  let control_port base_port = base_port - 1

  let spawn_ranks (ctx : Simos.Program.ctx) =
    let _, nprocs, rpn, base_port, prog, extra = parse ctx in
    for rank = 0 to nprocs - 1 do
      let host = rank / rpn in
      ignore
        (ctx.ssh ~host ~prog
           ~argv:
             ([
                string_of_int rank;
                string_of_int nprocs;
                string_of_int base_port;
                string_of_int rpn;
                string_of_int ctx.node_id;
                string_of_int (control_port base_port);
              ]
             @ extra))
    done

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Boot -> (
      ignore (Workload_mem.alloc ctx ~bytes:10_000_000 ~mix:Workload_mem.mostly_code ~seed:999);
      let rt, nprocs, rpn, base_port, _, _ = parse ctx in
      let lfd = ctx.socket () in
      (match ctx.bind lfd ~port:(control_port base_port) with Ok _ -> () | Error _ -> ());
      ignore (ctx.listen lfd ~backlog:(nprocs + 8));
      match rt with
      | "openmpi" ->
        (* start an orted on every node used, star-connected to us *)
        let nnodes = nodes_used nprocs rpn in
        for nodei = 0 to nnodes - 1 do
          ignore
            (ctx.ssh ~host:nodei ~prog:Orted.name
               ~argv:[ string_of_int ctx.node_id; string_of_int (control_port base_port) ])
        done;
        Simos.Program.Block
          (Wait_orted { lfd; fds = []; want = nnodes }, Simos.Program.Readable lfd)
      | _ -> Simos.Program.Continue (Spawn { lfd; daemon_fds = [] }))
    | Wait_orted { lfd; fds; want } ->
      let rec accept_all fds =
        match ctx.accept lfd with
        | Some fd -> accept_all (fd :: fds)
        | None -> fds
      in
      let fds = accept_all fds in
      if List.length fds >= want then Simos.Program.Continue (Spawn { lfd; daemon_fds = fds })
      else Simos.Program.Block (Wait_orted { lfd; fds; want }, Simos.Program.Readable lfd)
    | Spawn { lfd; daemon_fds } ->
      spawn_ranks ctx;
      Simos.Program.Block
        ( Await { lfd; daemon_fds; done_fds = []; finished = 0 },
          Simos.Program.Readable lfd )
    | Await { lfd; daemon_fds; done_fds; finished } ->
      let _, nprocs, _, _, _, _ = parse ctx in
      let rec accept_all acc =
        match ctx.accept lfd with
        | Some fd -> accept_all ((fd, "") :: acc)
        | None -> acc
      in
      let done_fds = accept_all done_fds in
      let finished = ref finished in
      let done_fds =
        List.filter_map
          (fun (fd, buf) ->
            match ctx.read_fd fd ~max:64 with
            | `Data d ->
              let buf = buf ^ d in
              if String.length buf >= 5 then begin
                incr finished;
                ctx.close_fd fd;
                None
              end
              else Some (fd, buf)
            | `Eof ->
              ctx.close_fd fd;
              None
            | `Would_block | `Err _ -> Some (fd, buf))
          done_fds
      in
      if !finished >= nprocs then begin
        (* tear down daemons by closing their control links *)
        List.iter (fun fd -> ctx.close_fd fd) daemon_fds;
        Simos.Program.Exit 0
      end
      else
        Simos.Program.Block
          ( Await { lfd; daemon_fds; done_fds; finished = !finished },
            Simos.Program.Readable_any (lfd :: List.map fst done_fds) )
end

let () =
  List.iter Simos.Program.register
    [ (module Mpd : Simos.Program.S); (module Mpdboot); (module Orted); (module Mpirun) ]
