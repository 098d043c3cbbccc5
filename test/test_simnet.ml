(* Tests for the network fabric: connection establishment, buffered
   transfer with latency/bandwidth, flow control, EOF, refusal, UNIX
   sockets, socketpairs, and the discovery service. *)

let check = Alcotest.check

let setup ?latency ?bandwidth () =
  let eng = Sim.Engine.create () in
  let fab = Simnet.Fabric.create eng ?latency ?bandwidth ~nhosts:4 () in
  (eng, fab)

let listen_on fab ~host ~port =
  let l = Simnet.Fabric.socket fab ~host in
  (match Simnet.Fabric.bind l ~port with Ok _ -> () | Error e -> Alcotest.failf "bind: %s" (Simnet.Fabric.pp_error e));
  (match Simnet.Fabric.listen l ~backlog:8 with Ok () -> () | Error e -> Alcotest.failf "listen: %s" (Simnet.Fabric.pp_error e));
  l

let connect_pair ?latency ?bandwidth ?(host_a = 0) ?(host_b = 1) () =
  let eng, fab = setup ?latency ?bandwidth () in
  let l = listen_on fab ~host:host_b ~port:5000 in
  let c = Simnet.Fabric.socket fab ~host:host_a in
  (match Simnet.Fabric.connect c (Simnet.Addr.Inet { host = host_b; port = 5000 }) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "connect: %s" (Simnet.Fabric.pp_error e));
  Sim.Engine.run eng;
  let s =
    match Simnet.Fabric.accept l with
    | Some s -> s
    | None -> Alcotest.fail "no pending connection"
  in
  (eng, fab, c, s, l)

let recv_exact eng sock n =
  let buf = Buffer.create n in
  let guard = ref 0 in
  while Buffer.length buf < n && !guard < 10_000 do
    (match Simnet.Fabric.recv sock ~max:(n - Buffer.length buf) with
    | `Data d -> Buffer.add_string buf d
    | `Would_block -> Sim.Engine.run eng
    | `Eof -> Alcotest.fail "unexpected EOF"
    | `Error e -> Alcotest.failf "recv: %s" (Simnet.Fabric.pp_error e));
    incr guard
  done;
  Buffer.contents buf

let send_all eng sock data =
  let sent = ref 0 in
  let guard = ref 0 in
  while !sent < String.length data && !guard < 10_000 do
    (match Simnet.Fabric.send sock (String.sub data !sent (String.length data - !sent)) with
    | Ok n -> sent := !sent + n
    | Error e -> Alcotest.failf "send: %s" (Simnet.Fabric.pp_error e));
    if !sent < String.length data then Sim.Engine.run eng;
    incr guard
  done

let test_connect_accept () =
  let _, _, c, s, _ = connect_pair () in
  check Alcotest.bool "client established" true (Simnet.Fabric.state c = Simnet.Fabric.Established);
  check Alcotest.bool "server established" true (Simnet.Fabric.state s = Simnet.Fabric.Established)

let test_connect_takes_rtt () =
  let eng, fab = setup () in
  let _l = listen_on fab ~host:1 ~port:5000 in
  let c = Simnet.Fabric.socket fab ~host:0 in
  ignore (Simnet.Fabric.connect c (Simnet.Addr.Inet { host = 1; port = 5000 }));
  Sim.Engine.run eng;
  (* RTT = 2 * 100us default latency *)
  check (Alcotest.float 1e-9) "connect completes after one RTT" 200e-6 (Sim.Engine.now eng)

let test_send_recv () =
  let eng, _, c, s, _ = connect_pair () in
  send_all eng c "hello from client";
  Sim.Engine.run eng;
  check Alcotest.string "server receives" "hello from client" (recv_exact eng s 17);
  send_all eng s "hello from server";
  Sim.Engine.run eng;
  check Alcotest.string "client receives" "hello from server" (recv_exact eng c 17)

(* Drive a full transfer, interleaving sends and receives so flow control
   can make progress. *)
let transfer eng src dst data =
  let sent = ref 0 in
  let buf = Buffer.create (String.length data) in
  let guard = ref 0 in
  while Buffer.length buf < String.length data && !guard < 100_000 do
    (if !sent < String.length data then
       match Simnet.Fabric.send src (String.sub data !sent (String.length data - !sent)) with
       | Ok n -> sent := !sent + n
       | Error e -> Alcotest.failf "send: %s" (Simnet.Fabric.pp_error e));
    (match Simnet.Fabric.recv dst ~max:65536 with
    | `Data d -> Buffer.add_string buf d
    | `Would_block -> ()
    | `Eof -> Alcotest.fail "unexpected EOF"
    | `Error e -> Alcotest.failf "recv: %s" (Simnet.Fabric.pp_error e));
    Sim.Engine.run eng;
    incr guard
  done;
  Buffer.contents buf

let test_bandwidth_timing () =
  (* 1 MB at 1 MB/s should take about a second. *)
  let eng, _, c, s, _ = connect_pair ~latency:1e-4 ~bandwidth:1e6 () in
  let data = String.make 1_000_000 'x' in
  let t0 = Sim.Engine.now eng in
  let got = transfer eng c s data in
  check Alcotest.int "all bytes arrive" (String.length data) (String.length got);
  let elapsed = Sim.Engine.now eng -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "took ~1s (got %f)" elapsed)
    true
    (elapsed > 0.9 && elapsed < 1.5)

let test_flow_control () =
  (* Without the receiver draining, at most send buffer + in flight +
     receive buffer bytes can leave the sender. *)
  let eng, _, c, _, _ = connect_pair () in
  let data = String.make (1024 * 1024) 'y' in
  let accepted = ref 0 in
  (match Simnet.Fabric.send c data with Ok n -> accepted := n | Error _ -> Alcotest.fail "send");
  Sim.Engine.run eng;
  (* Send buffer accepted one capacity's worth at most. *)
  Alcotest.(check bool) "bounded by buffer capacity" true (!accepted <= Simnet.Fabric.buffer_capacity);
  (* Pump until stable: total moved <= 2 * capacity. *)
  let total_sent = ref !accepted in
  let progress = ref true in
  while !progress do
    progress := false;
    match Simnet.Fabric.send c (String.make 65536 'z') with
    | Ok n when n > 0 ->
      total_sent := !total_sent + n;
      progress := true;
      Sim.Engine.run eng
    | _ -> Sim.Engine.run eng
  done;
  Alcotest.(check bool) "sender eventually blocked" true (!total_sent <= 2 * Simnet.Fabric.buffer_capacity + 16384)

let test_in_flight_accounting () =
  let eng, _, c, s, _ = connect_pair ~latency:0.01 ~bandwidth:1e9 () in
  ignore (Simnet.Fabric.send c (String.make 1000 'a'));
  (* Run only a hair forward: data should be in flight, not yet arrived. *)
  Sim.Engine.run ~until:(Sim.Engine.now eng +. 0.001) eng;
  Alcotest.(check bool) "bytes in flight" true (Simnet.Fabric.in_flight c > 0);
  Sim.Engine.run eng;
  check Alcotest.int "in flight drained" 0 (Simnet.Fabric.in_flight c);
  check Alcotest.int "arrived" 1000 (Simnet.Fabric.recv_buffered s)

let test_eof_after_close () =
  let eng, _, c, s, _ = connect_pair () in
  send_all eng c "bye";
  Simnet.Fabric.close c;
  Sim.Engine.run eng;
  check Alcotest.string "data before EOF" "bye" (recv_exact eng s 3);
  (match Simnet.Fabric.recv s ~max:10 with
  | `Eof -> ()
  | `Data _ | `Would_block | `Error _ -> Alcotest.fail "expected EOF")

let test_connection_refused () =
  let eng, fab = setup () in
  let c = Simnet.Fabric.socket fab ~host:0 in
  ignore (Simnet.Fabric.connect c (Simnet.Addr.Inet { host = 1; port = 9999 }));
  Sim.Engine.run eng;
  check Alcotest.bool "closed" true (Simnet.Fabric.state c = Simnet.Fabric.Closed);
  check Alcotest.bool "refused" true (Simnet.Fabric.connect_refused c)

let test_bind_conflict () =
  let _, fab = setup () in
  let _l = listen_on fab ~host:0 ~port:7000 in
  let l2 = Simnet.Fabric.socket fab ~host:0 in
  (match Simnet.Fabric.bind l2 ~port:7000 with
  | Ok _ -> (
    match Simnet.Fabric.listen l2 ~backlog:1 with
    | Error Simnet.Fabric.Addr_in_use -> ()
    | _ -> Alcotest.fail "expected Addr_in_use at listen")
  | Error Simnet.Fabric.Addr_in_use -> ()
  | Error e -> Alcotest.failf "unexpected: %s" (Simnet.Fabric.pp_error e))

let test_ephemeral_bind () =
  let _, fab = setup () in
  let s = Simnet.Fabric.socket fab ~host:0 in
  match Simnet.Fabric.bind s ~port:0 with
  | Ok port -> Alcotest.(check bool) "ephemeral port high" true (port >= 32768)
  | Error e -> Alcotest.failf "bind: %s" (Simnet.Fabric.pp_error e)

let test_backlog_refuses_excess () =
  let eng, fab = setup () in
  let l = Simnet.Fabric.socket fab ~host:1 in
  ignore (Simnet.Fabric.bind l ~port:5000);
  ignore (Simnet.Fabric.listen l ~backlog:1);
  let c1 = Simnet.Fabric.socket fab ~host:0 in
  let c2 = Simnet.Fabric.socket fab ~host:0 in
  ignore (Simnet.Fabric.connect c1 (Simnet.Addr.Inet { host = 1; port = 5000 }));
  ignore (Simnet.Fabric.connect c2 (Simnet.Addr.Inet { host = 1; port = 5000 }));
  Sim.Engine.run eng;
  let ok1 = Simnet.Fabric.state c1 = Simnet.Fabric.Established in
  let ok2 = Simnet.Fabric.state c2 = Simnet.Fabric.Established in
  Alcotest.(check bool) "exactly one accepted" true (ok1 <> ok2 || (ok1 && not ok2))

let test_close_listener_refuses_pending () =
  let eng, fab = setup () in
  let l = listen_on fab ~host:1 ~port:5000 in
  let c = Simnet.Fabric.socket fab ~host:0 in
  ignore (Simnet.Fabric.connect c (Simnet.Addr.Inet { host = 1; port = 5000 }));
  Sim.Engine.run eng;
  Simnet.Fabric.close l;
  Alcotest.(check bool) "pending client refused" true (Simnet.Fabric.connect_refused c)

let test_unix_socketpair () =
  let eng, fab = setup () in
  let a, b = Simnet.Fabric.socketpair fab ~host:2 in
  send_all eng a "ping";
  Sim.Engine.run eng;
  check Alcotest.string "pair delivers" "ping" (recv_exact eng b 4);
  Alcotest.(check bool) "unix" true (Simnet.Fabric.is_unix a)

let test_unix_listener () =
  let eng, fab = setup () in
  let l = Simnet.Fabric.socket_unix fab ~host:0 in
  (match Simnet.Fabric.bind_unix l ~path:"/tmp/mpd.sock" with Ok () -> () | Error _ -> Alcotest.fail "bind_unix");
  ignore (Simnet.Fabric.listen l ~backlog:4);
  let c = Simnet.Fabric.socket_unix fab ~host:0 in
  ignore (Simnet.Fabric.connect c (Simnet.Addr.Unix { host = 0; path = "/tmp/mpd.sock" }));
  Sim.Engine.run eng;
  (match Simnet.Fabric.accept l with
  | Some s ->
    send_all eng c "unix!";
    Sim.Engine.run eng;
    check Alcotest.string "unix data" "unix!" (recv_exact eng s 5)
  | None -> Alcotest.fail "no unix connection")

let test_wake_callback () =
  let eng, _, c, s, _ = connect_pair () in
  let woken = ref false in
  Simnet.Fabric.on_activity s (fun () -> woken := true);
  send_all eng c "x";
  Sim.Engine.run eng;
  Alcotest.(check bool) "receiver woken" true !woken

let test_readable_writable () =
  let eng, _, c, s, _ = connect_pair () in
  Alcotest.(check bool) "fresh socket not readable" false (Simnet.Fabric.readable s);
  Alcotest.(check bool) "fresh socket writable" true (Simnet.Fabric.writable c);
  send_all eng c "data";
  Sim.Engine.run eng;
  Alcotest.(check bool) "readable after arrival" true (Simnet.Fabric.readable s)

let test_bidirectional_simultaneous () =
  let eng, _, c, s, _ = connect_pair () in
  ignore (Simnet.Fabric.send c "from-c");
  ignore (Simnet.Fabric.send s "from-s");
  Sim.Engine.run eng;
  check Alcotest.string "c->s" "from-c" (recv_exact eng s 6);
  check Alcotest.string "s->c" "from-s" (recv_exact eng c 6)

(* Property: an arbitrary interleaving of sends on both sides delivers
   exactly the sent byte streams, in order, on each direction. *)
let prop_stream_integrity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"byte streams preserved in order"
       QCheck.(small_list (pair bool (string_of_size QCheck.Gen.(1 -- 2000))))
       (fun msgs ->
         let eng, _, c, s, _ = connect_pair () in
         let expect_cs = Buffer.create 64 and expect_sc = Buffer.create 64 in
         List.iter
           (fun (dir, data) ->
             let src = if dir then c else s in
             (if dir then Buffer.add_string expect_cs data else Buffer.add_string expect_sc data);
             send_all eng src data;
             Sim.Engine.run eng)
           msgs;
         Sim.Engine.run eng;
         let got_cs = recv_exact eng s (Buffer.length expect_cs) in
         let got_sc = recv_exact eng c (Buffer.length expect_sc) in
         got_cs = Buffer.contents expect_cs && got_sc = Buffer.contents expect_sc))

(* ------------------------------------------------------------------ *)
(* Wake cells *)

type wake_op =
  | Send of bool * int  (* [true]: the client side acts *)
  | Recv of bool * int  (* one read of at most this many bytes *)
  | Drain of bool  (* read until something other than data *)
  | Close of bool
  | Inject of bool * int
  | Inject_eof of bool
  | Step of int  (* dispatch up to this many engine events *)

let show_wake_op =
  let side c = if c then "client" else "server" in
  function
  | Send (c, n) -> Printf.sprintf "send %s %d" (side c) n
  | Recv (c, n) -> Printf.sprintf "recv %s %d" (side c) n
  | Drain c -> Printf.sprintf "drain %s" (side c)
  | Close c -> Printf.sprintf "close %s" (side c)
  | Inject (c, n) -> Printf.sprintf "inject_recv %s %d" (side c) n
  | Inject_eof c -> Printf.sprintf "inject_eof %s" (side c)
  | Step k -> Printf.sprintf "step %d" k

let wake_op =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun c n -> Send (c, n)) bool (1 -- 100_000));
        (3, map2 (fun c n -> Recv (c, n)) bool (1 -- 70_000));
        (3, map (fun c -> Drain c) bool);
        (1, map (fun c -> Close c) bool);
        (1, map2 (fun c n -> Inject (c, n)) bool (1 -- 2_000));
        (1, map (fun c -> Inject_eof c) bool);
        (4, map (fun k -> Step k) (1 -- 20));
      ])

(* A reader that drained its socket to [`Would_block] arms a wake cell
   on it, as the MPI direct backend's watch does (DESIGN §2.4).  The
   property: after any operation or engine event, a socket whose cell
   is still armed is unreadable, because every change that makes it
   readable (a delivery, a FIN, [inject_recv], [inject_eof]) fires
   it. *)
let prop_armed_cell_means_unreadable =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"an armed wake cell means unreadable"
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map show_wake_op ops))
          QCheck.Gen.(list_size (1 -- 40) wake_op))
       (fun ops ->
         let eng, _, c, s, _ = connect_pair () in
         let reader sock = (sock, Sim.Wake.wait ~size:1, ref [||]) in
         let rc = reader c and rs = reader s in
         let pick client = if client then rc else rs in
         let armed (_, w, cell) = Array.length !cell = 1 && Sim.Wake.quiet w in
         let arm (sock, w, cell) =
           if Array.length !cell = 0 then
             cell := [| Sim.Wake.arm w (Simnet.Fabric.wake_cells sock) ~slot:0 |]
           else if not (Sim.Wake.quiet w) then Sim.Wake.rearm w !cell
         in
         let sound () =
           List.for_all
             (fun ((sock, _, _) as r) -> not (armed r && Simnet.Fabric.readable sock))
             [ rc; rs ]
         in
         let rec steps k = k = 0 || not (Sim.Engine.step eng) || (sound () && steps (k - 1)) in
         let apply = function
           | Send (client, n) ->
             let sock, _, _ = pick client in
             ignore (Simnet.Fabric.send sock (String.make n 'x'))
           | Recv (client, max) -> (
             let ((sock, _, _) as r) = pick client in
             match Simnet.Fabric.recv sock ~max with
             | `Would_block -> arm r
             | `Data _ | `Eof | `Error _ -> ())
           | Drain client ->
             let ((sock, _, _) as r) = pick client in
             let rec go () =
               match Simnet.Fabric.recv sock ~max:65536 with
               | `Data _ -> go ()
               | `Would_block -> arm r
               | `Eof | `Error _ -> ()
             in
             go ()
           | Close client ->
             let sock, _, _ = pick client in
             Simnet.Fabric.close sock
           | Inject (client, n) ->
             let sock, _, _ = pick client in
             Simnet.Fabric.inject_recv sock (String.make n 'i')
           | Inject_eof client ->
             let sock, _, _ = pick client in
             Simnet.Fabric.inject_eof sock
           | Step _ -> ()
         in
         List.for_all
           (fun op ->
             apply op;
             sound () && match op with Step k -> steps k | _ -> true)
           ops
         && steps 100_000))

(* A delivery can make only its receiver readable.  A reader's cell on
   the sending end stays armed while that end's data is delivered, the
   receiving end's cell fires, and the sender's hook still runs once
   per delivered segment (it wakes the sender's writers). *)
let test_delivery_fires_receiver_only () =
  let eng, _, c, s, _ = connect_pair () in
  let arm sock =
    let w = Sim.Wake.wait ~size:1 in
    ignore (Sim.Wake.arm w (Simnet.Fabric.wake_cells sock) ~slot:0);
    w
  in
  let on_sender = arm c and on_receiver = arm s in
  let hooks = ref 0 in
  Simnet.Fabric.on_activity c (fun () -> incr hooks);
  (* three segments of at most 16 KiB *)
  let len = 40_000 in
  check Alcotest.(result int reject) "queued" (Ok len) (Simnet.Fabric.send c (String.make len 'd'));
  Sim.Engine.run eng;
  check Alcotest.int "delivered" len (Simnet.Fabric.recv_buffered s);
  check Alcotest.bool "sender's cell still armed" true (Sim.Wake.quiet on_sender);
  check Alcotest.bool "receiver's cell fired" false (Sim.Wake.quiet on_receiver);
  check Alcotest.int "sender's hook once per segment" 3 !hooks

(* ------------------------------------------------------------------ *)
(* Edge cases the chaos harness leans on *)

let test_connect_closed_listener () =
  (* the listener existed once; connecting after it closed is refusal,
     not a hang *)
  let eng, fab = setup () in
  let l = listen_on fab ~host:1 ~port:5000 in
  Simnet.Fabric.close l;
  let c = Simnet.Fabric.socket fab ~host:0 in
  ignore (Simnet.Fabric.connect c (Simnet.Addr.Inet { host = 1; port = 5000 }));
  Sim.Engine.run eng;
  check Alcotest.bool "refused" true (Simnet.Fabric.connect_refused c);
  check Alcotest.bool "closed" true (Simnet.Fabric.state c = Simnet.Fabric.Closed)

let test_double_bind_same_socket () =
  let _, fab = setup () in
  let s = Simnet.Fabric.socket fab ~host:0 in
  (match Simnet.Fabric.bind s ~port:8000 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first bind: %s" (Simnet.Fabric.pp_error e));
  match Simnet.Fabric.bind s ~port:8001 with
  | Error Simnet.Fabric.Already_bound -> ()
  | Ok _ -> Alcotest.fail "second bind accepted"
  | Error e -> Alcotest.failf "expected Already_bound, got %s" (Simnet.Fabric.pp_error e)

let test_double_bind_same_port () =
  let _, fab = setup () in
  let _l = listen_on fab ~host:0 ~port:8000 in
  let s2 = Simnet.Fabric.socket fab ~host:0 in
  match Simnet.Fabric.bind s2 ~port:8000 with
  | Error Simnet.Fabric.Addr_in_use -> ()
  | Error e -> Alcotest.failf "expected Addr_in_use, got %s" (Simnet.Fabric.pp_error e)
  | Ok _ -> (
    (* some stacks only detect the conflict at listen *)
    match Simnet.Fabric.listen s2 ~backlog:1 with
    | Error Simnet.Fabric.Addr_in_use -> ()
    | Ok () -> Alcotest.fail "two listeners on one port"
    | Error e -> Alcotest.failf "expected Addr_in_use, got %s" (Simnet.Fabric.pp_error e))

let test_recv_while_connecting () =
  let _, fab = setup () in
  let _l = listen_on fab ~host:1 ~port:5000 in
  let c = Simnet.Fabric.socket fab ~host:0 in
  ignore (Simnet.Fabric.connect c (Simnet.Addr.Inet { host = 1; port = 5000 }));
  (* engine has not run: SYN still in flight *)
  check Alcotest.bool "still connecting" true (Simnet.Fabric.state c = Simnet.Fabric.Connecting);
  match Simnet.Fabric.recv c ~max:10 with
  | `Error Simnet.Fabric.Not_connected -> ()
  | `Error e -> Alcotest.failf "expected Not_connected, got %s" (Simnet.Fabric.pp_error e)
  | `Data _ | `Eof | `Would_block -> Alcotest.fail "expected Not_connected error"

(* ------------------------------------------------------------------ *)
(* Fault-injection knobs (the chaos layer's interface) *)

let test_partition_defers_then_delivers () =
  let eng, fab, c, s, _ = (fun () -> connect_pair ()) () in
  Simnet.Fabric.set_link_up fab ~a:0 ~b:1 false;
  ignore (Simnet.Fabric.send c "held-back");
  (* parked senders retry forever: bound the run while partitioned *)
  Sim.Engine.run ~until:(Sim.Engine.now eng +. 1.0) eng;
  check Alcotest.int "nothing crosses a downed link" 0 (Simnet.Fabric.recv_buffered s);
  Simnet.Fabric.set_link_up fab ~a:0 ~b:1 true;
  Sim.Engine.run eng;
  check Alcotest.string "delivered after heal" "held-back" (recv_exact eng s 9)

let test_partition_refuses_syn () =
  let eng, fab = setup () in
  let _l = listen_on fab ~host:1 ~port:5000 in
  Simnet.Fabric.set_link_up fab ~a:0 ~b:1 false;
  let c = Simnet.Fabric.socket fab ~host:0 in
  ignore (Simnet.Fabric.connect c (Simnet.Addr.Inet { host = 1; port = 5000 }));
  Sim.Engine.run ~until:(Sim.Engine.now eng +. 1.0) eng;
  check Alcotest.bool "SYN across partition refused" true (Simnet.Fabric.connect_refused c);
  Simnet.Fabric.clear_faults fab

let test_latency_factor_stretches_delivery () =
  let measure factor =
    let eng, fab, c, s, _ = connect_pair ~latency:1e-3 () in
    if factor > 1.0 then Simnet.Fabric.set_latency_factor fab ~a:0 ~b:1 factor;
    let t0 = Sim.Engine.now eng in
    ignore (Simnet.Fabric.send c "x");
    let guard = ref 0 in
    while Simnet.Fabric.recv_buffered s = 0 && !guard < 1000 do
      Sim.Engine.run eng;
      incr guard
    done;
    Sim.Engine.now eng -. t0
  in
  let base = measure 1.0 in
  let slow = measure 10.0 in
  Alcotest.(check bool)
    (Printf.sprintf "x10 latency factor slows delivery (%.4fs -> %.4fs)" base slow)
    true
    (slow > base *. 5.)

let test_drop_penalizes_transfers () =
  let eng, fab, c, s, _ = connect_pair ~latency:1e-4 () in
  Simnet.Fabric.set_drop fab ~prob:1.0 (Util.Rng.create 42L);
  let t0 = Sim.Engine.now eng in
  ignore (Simnet.Fabric.send c "lossy");
  let guard = ref 0 in
  while Simnet.Fabric.recv_buffered s = 0 && !guard < 1000 do
    Sim.Engine.run eng;
    incr guard
  done;
  let elapsed = Sim.Engine.now eng -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "every chunk pays the retransmit timeout (%.3fs)" elapsed)
    true
    (elapsed >= Simnet.Fabric.retransmit_timeout);
  check Alcotest.string "data still arrives intact" "lossy" (recv_exact eng s 5);
  Simnet.Fabric.clear_faults fab

let test_peer_gone_after_close () =
  let eng, _, c, s, _ = connect_pair () in
  Alcotest.(check bool) "peer present while open" false (Simnet.Fabric.peer_gone s);
  Simnet.Fabric.close c;
  (* FIN may still be in flight: the peer is gone either way *)
  Alcotest.(check bool) "peer gone right after close" true (Simnet.Fabric.peer_gone s);
  Sim.Engine.run eng;
  Alcotest.(check bool) "still gone after FIN lands" true (Simnet.Fabric.peer_gone s)

let test_inject_eof_restores_half_closed () =
  (* restart path for a connection whose peer died before the
     checkpoint: drained bytes first, then EOF, and writes fail *)
  let _, fab = setup () in
  let s = Simnet.Fabric.socket fab ~host:0 in
  Simnet.Fabric.inject_eof s;
  check Alcotest.bool "established" true (Simnet.Fabric.state s = Simnet.Fabric.Established);
  Alcotest.(check bool) "peer gone" true (Simnet.Fabric.peer_gone s);
  Simnet.Fabric.inject_recv s "tail";
  (match Simnet.Fabric.recv s ~max:10 with
  | `Data d -> check Alcotest.string "drained bytes first" "tail" d
  | _ -> Alcotest.fail "expected drained data");
  (match Simnet.Fabric.recv s ~max:10 with
  | `Eof -> ()
  | _ -> Alcotest.fail "expected EOF after the stash");
  match Simnet.Fabric.send s "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "write on a half-closed restart must fail"

(* ------------------------------------------------------------------ *)
(* Discovery *)

let addr_testable =
  Alcotest.testable
    (fun fmt a -> Format.pp_print_string fmt (Simnet.Addr.to_string a))
    (fun a b -> a = b)

let test_discovery_lookup () =
  let d = Simnet.Discovery.create () in
  let addr = Simnet.Addr.Inet { host = 3; port = 1234 } in
  Simnet.Discovery.advertise d ~key:"conn-42" addr;
  check (Alcotest.option addr_testable) "lookup finds it" (Some addr)
    (Simnet.Discovery.lookup d ~key:"conn-42");
  check (Alcotest.option addr_testable) "missing key" None (Simnet.Discovery.lookup d ~key:"nope")

let test_peer_id () =
  let _, _, c, s, _ = connect_pair () in
  check (Alcotest.option Alcotest.int) "c's peer is s" (Some (Simnet.Fabric.id s))
    (Simnet.Fabric.peer_id c);
  check (Alcotest.option Alcotest.int) "s's peer is c" (Some (Simnet.Fabric.id c))
    (Simnet.Fabric.peer_id s)

let test_inject_recv_ordering () =
  (* refill support: injected bytes precede later network arrivals *)
  let eng, _, c, s, _ = connect_pair () in
  Simnet.Fabric.inject_recv s "refilled-";
  send_all eng c "fresh";
  Sim.Engine.run eng;
  check Alcotest.string "refilled data reads out first" "refilled-fresh" (recv_exact eng s 14)

let test_nic_serializes_transfers () =
  (* two sockets sharing one sender NIC: their transfers share bandwidth *)
  let eng, fab = setup ~latency:1e-4 ~bandwidth:1e6 () in
  let l1 = listen_on fab ~host:1 ~port:5001 in
  let l2 = listen_on fab ~host:1 ~port:5002 in
  let c1 = Simnet.Fabric.socket fab ~host:0 in
  let c2 = Simnet.Fabric.socket fab ~host:0 in
  ignore (Simnet.Fabric.connect c1 (Simnet.Addr.Inet { host = 1; port = 5001 }));
  ignore (Simnet.Fabric.connect c2 (Simnet.Addr.Inet { host = 1; port = 5002 }));
  Sim.Engine.run eng;
  let s1 = Option.get (Simnet.Fabric.accept l1) in
  let s2 = Option.get (Simnet.Fabric.accept l2) in
  let data = String.make 500_000 'q' in
  let t0 = Sim.Engine.now eng in
  (* interleave: both transfers together must take ~1 s at 1 MB/s *)
  let b1 = Buffer.create 100 and b2 = Buffer.create 100 in
  let sent1 = ref 0 and sent2 = ref 0 in
  let guard = ref 0 in
  while (Buffer.length b1 < 500_000 || Buffer.length b2 < 500_000) && !guard < 200_000 do
    (if !sent1 < 500_000 then
       match Simnet.Fabric.send c1 (String.sub data !sent1 (500_000 - !sent1)) with
       | Ok n -> sent1 := !sent1 + n
       | Error _ -> ());
    (if !sent2 < 500_000 then
       match Simnet.Fabric.send c2 (String.sub data !sent2 (500_000 - !sent2)) with
       | Ok n -> sent2 := !sent2 + n
       | Error _ -> ());
    (match Simnet.Fabric.recv s1 ~max:65536 with `Data d -> Buffer.add_string b1 d | _ -> ());
    (match Simnet.Fabric.recv s2 ~max:65536 with `Data d -> Buffer.add_string b2 d | _ -> ());
    Sim.Engine.run eng;
    incr guard
  done;
  let elapsed = Sim.Engine.now eng -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "1 MB total through a shared 1 MB/s NIC takes ~1 s (got %.2f)" elapsed)
    true
    (elapsed > 0.9 && elapsed < 1.6)

let () =
  Alcotest.run "simnet"
    [
      ( "tcp",
        [
          Alcotest.test_case "connect/accept" `Quick test_connect_accept;
          Alcotest.test_case "connect takes RTT" `Quick test_connect_takes_rtt;
          Alcotest.test_case "send/recv" `Quick test_send_recv;
          Alcotest.test_case "bandwidth timing" `Quick test_bandwidth_timing;
          Alcotest.test_case "flow control" `Quick test_flow_control;
          Alcotest.test_case "in-flight accounting" `Quick test_in_flight_accounting;
          Alcotest.test_case "EOF after close" `Quick test_eof_after_close;
          Alcotest.test_case "connection refused" `Quick test_connection_refused;
          Alcotest.test_case "bind conflict" `Quick test_bind_conflict;
          Alcotest.test_case "ephemeral bind" `Quick test_ephemeral_bind;
          Alcotest.test_case "backlog refuses excess" `Quick test_backlog_refuses_excess;
          Alcotest.test_case "close listener refuses pending" `Quick test_close_listener_refuses_pending;
          Alcotest.test_case "wake callback" `Quick test_wake_callback;
          Alcotest.test_case "readable/writable" `Quick test_readable_writable;
          Alcotest.test_case "bidirectional" `Quick test_bidirectional_simultaneous;
          Alcotest.test_case "peer id" `Quick test_peer_id;
          Alcotest.test_case "inject_recv ordering" `Quick test_inject_recv_ordering;
          Alcotest.test_case "NIC serializes transfers" `Quick test_nic_serializes_transfers;
          prop_stream_integrity;
        ] );
      ( "wake cells",
        [
          prop_armed_cell_means_unreadable;
          Alcotest.test_case "a delivery fires only the receiver's cells" `Quick
            test_delivery_fires_receiver_only;
        ] );
      ( "edges",
        [
          Alcotest.test_case "connect to closed listener" `Quick test_connect_closed_listener;
          Alcotest.test_case "double bind, same socket" `Quick test_double_bind_same_socket;
          Alcotest.test_case "double bind, same port" `Quick test_double_bind_same_port;
          Alcotest.test_case "recv while connecting" `Quick test_recv_while_connecting;
        ] );
      ( "faults",
        [
          Alcotest.test_case "partition defers then delivers" `Quick test_partition_defers_then_delivers;
          Alcotest.test_case "partition refuses SYN" `Quick test_partition_refuses_syn;
          Alcotest.test_case "latency factor" `Quick test_latency_factor_stretches_delivery;
          Alcotest.test_case "segment loss penalty" `Quick test_drop_penalizes_transfers;
          Alcotest.test_case "peer gone after close" `Quick test_peer_gone_after_close;
          Alcotest.test_case "inject EOF (half-closed restart)" `Quick test_inject_eof_restores_half_closed;
        ] );
      ( "unix",
        [
          Alcotest.test_case "socketpair" `Quick test_unix_socketpair;
          Alcotest.test_case "unix listener" `Quick test_unix_listener;
        ] );
      ("discovery", [ Alcotest.test_case "lookup" `Quick test_discovery_lookup ]);
    ]
