type state = Created | Bound | Listening | Connecting | Established | Closed

type error = Refused | Not_connected | Already_bound | Addr_in_use | Invalid

let pp_error = function
  | Refused -> "connection refused"
  | Not_connected -> "not connected"
  | Already_bound -> "already bound"
  | Addr_in_use -> "address in use"
  | Invalid -> "invalid operation"

let buffer_capacity = 64 * 1024
let chunk_size = 16 * 1024

type socket = {
  id : int;
  fab : t;
  sock_host : Addr.host;
  unix : bool;
  mutable st : state;
  mutable local : Addr.t option;
  mutable peer : socket option;
  recv_buf : Util.Bytequeue.t;
  send_buf : Util.Bytequeue.t;
  mutable in_flight : int;
  mutable pumping : bool;
  mutable fin_sent : bool;          (* our side called close *)
  mutable peer_closed : bool;       (* FIN received: EOF after recv_buf drains *)
  mutable refused : bool;
  accept_q : socket Queue.t;
  mutable backlog : int;
  mutable wake : unit -> unit;
  cells : Sim.Wake.cells;           (* fired by every [notify] *)
}

(* Per-link fault state, installed by the chaos layer.  Links are
   addressed by unordered host pair.  A link is immutable, so every
   healthy pair shares [healthy] and a fault replaces the pair's entry. *)
and link = { up : bool; lat_factor : float }

and t = {
  eng : Sim.Engine.t;
  latency : float;
  bandwidth : float;
  n : int;
  listeners : (Addr.t, socket) Hashtbl.t;
  bound : (Addr.t, unit) Hashtbl.t;
  links : link array;  (* [a * n + b] for hosts [a <= b] *)
  mutable drop_prob : float;
  mutable drop_rng : Util.Rng.t option;
  nic_free_at : float array;
  next_port : int array;
  mutable next_id : int;
}

let healthy = { up = true; lat_factor = 1.0 }

let loopback_latency = 10e-6

let create eng ?(latency = 100e-6) ?(bandwidth = 117e6) ~nhosts () =
  {
    eng;
    latency;
    bandwidth;
    n = nhosts;
    listeners = Hashtbl.create 64;
    bound = Hashtbl.create 64;
    links = Array.make (nhosts * nhosts) healthy;
    drop_prob = 0.;
    drop_rng = None;
    nic_free_at = Array.make nhosts 0.;
    next_port = Array.make nhosts 32768;
    next_id = 0;
  }

(* ------------------------------------------------------------------ *)
(* Fault injection.  Partitioned links hold traffic (senders retry
   until the link heals); latency factors stretch propagation delay;
   [drop_prob] models segment loss as a retransmission-timeout penalty
   charged per chunk, drawn from a dedicated rng so fault timing stays
   deterministic per seed.  Heal every partition before draining the
   engine to completion: blocked senders re-arm themselves forever. *)

let partition_retry = 20e-3
let retransmit_timeout = 0.2

let link_index t a b = if a <= b then (a * t.n) + b else (b * t.n) + a
let link_of t a b = t.links.(link_index t a b)

let update_link t a b f =
  if a <> b then
    let i = link_index t a b in
    t.links.(i) <- f t.links.(i)

let link_up t ~a ~b = a = b || (link_of t a b).up
let set_link_up t ~a ~b up = update_link t a b (fun l -> { l with up })

let set_latency_factor t ~a ~b f =
  update_link t a b (fun l -> { l with lat_factor = Float.max 1e-9 f })

let set_drop t ~prob rng =
  t.drop_prob <- prob;
  t.drop_rng <- (if prob > 0. then Some rng else None)

let clear_faults t =
  Array.fill t.links 0 (Array.length t.links) healthy;
  t.drop_prob <- 0.;
  t.drop_rng <- None

let lat_factor t ~src ~dst = if src = dst then 1.0 else (link_of t src dst).lat_factor

let m_segments = Trace.Metrics.counter "net.segments_sent"
let m_bytes = Trace.Metrics.counter "net.bytes_sent"
let m_drops = Trace.Metrics.counter "net.segments_dropped"
let m_refill = Trace.Metrics.counter "net.refill_bytes"

let drop_penalty t ~src ~dst =
  if src = dst || t.drop_prob <= 0. then 0.
  else
    match t.drop_rng with
    | Some rng when Util.Rng.float rng 1.0 < t.drop_prob ->
      Trace.Metrics.incr m_drops;
      Trace.instant ~node:src ~cat:"net" ~name:"seg/drop"
        ~args:[ ("dst", string_of_int dst) ]
        ~time:(Sim.Engine.now t.eng) ();
      retransmit_timeout
    | _ -> 0.

let make_socket fab ~host ~unix =
  let id = fab.next_id in
  fab.next_id <- id + 1;
  {
    id;
    fab;
    sock_host = host;
    unix;
    st = Created;
    local = None;
    peer = None;
    recv_buf = Util.Bytequeue.create ();
    send_buf = Util.Bytequeue.create ();
    in_flight = 0;
    pumping = false;
    fin_sent = false;
    peer_closed = false;
    refused = false;
    accept_q = Queue.create ();
    backlog = 0;
    wake = ignore;
    cells = Sim.Wake.cells ();
  }

let socket fab ~host = make_socket fab ~host ~unix:false
let socket_unix fab ~host = make_socket fab ~host ~unix:true

let id s = s.id
let state s = s.st
let local_addr s = s.local
let is_unix s = s.unix
let connect_refused s = s.refused
let recv_buffered s = Util.Bytequeue.length s.recv_buf
let send_buffered s = Util.Bytequeue.length s.send_buf
let in_flight s = s.in_flight
let on_activity s f = s.wake <- f
let wake_cells s = s.cells

(* Every wake-up that can make [s] readable goes through here and fires
   the cells armed on [s]. *)
let notify s =
  Sim.Wake.fire s.cells;
  s.wake ()

let peer_addr s =
  match s.peer with
  | None -> None
  | Some p -> p.local

let readable s =
  match s.st with
  | Listening -> not (Queue.is_empty s.accept_q)
  | _ -> (not (Util.Bytequeue.is_empty s.recv_buf)) || s.peer_closed

let writable s =
  s.st = Established && (not s.fin_sent) && Util.Bytequeue.length s.send_buf < buffer_capacity

(* Time for [len] bytes from [src] to [dst], charging the sender NIC. *)
let transfer_delay fab ~src ~dst len =
  let now = Sim.Engine.now fab.eng in
  if src = dst then loopback_latency
  else begin
    let depart = Float.max now fab.nic_free_at.(src) in
    let dur = float_of_int len /. fab.bandwidth in
    fab.nic_free_at.(src) <- depart +. dur;
    depart -. now +. dur
    +. (fab.latency *. lat_factor fab ~src ~dst)
    +. drop_penalty fab ~src ~dst
  end

(* Move FIN to the peer once every queued byte has been delivered.  A
   partitioned link holds the FIN and retries until it heals. *)
let rec maybe_deliver_fin s =
  if s.fin_sent && Util.Bytequeue.is_empty s.send_buf && s.in_flight = 0 then
    match s.peer with
    | Some p when not p.peer_closed ->
      if not (link_up s.fab ~a:s.sock_host ~b:p.sock_host) then
        ignore
          (Sim.Engine.schedule s.fab.eng ~delay:partition_retry (fun () -> maybe_deliver_fin s))
      else
        let delay =
          if s.sock_host = p.sock_host then loopback_latency
          else s.fab.latency *. lat_factor s.fab ~src:s.sock_host ~dst:p.sock_host
        in
        ignore
          (Sim.Engine.schedule s.fab.eng ~delay (fun () ->
               p.peer_closed <- true;
               notify p))
    | _ -> ()

and pump s =
  if (not s.pumping) && s.st = Established then
    match s.peer with
    | None -> ()
    | Some p ->
      if not (link_up s.fab ~a:s.sock_host ~b:p.sock_host) then begin
        (* partitioned: park the sender and retry until the link heals *)
        if Util.Bytequeue.length s.send_buf > 0 then begin
          s.pumping <- true;
          ignore
            (Sim.Engine.schedule s.fab.eng ~delay:partition_retry (fun () ->
                 s.pumping <- false;
                 pump s))
        end
      end
      else
        let free = buffer_capacity - Util.Bytequeue.length p.recv_buf in
        let len = min (min (Util.Bytequeue.length s.send_buf) free) chunk_size in
        if len > 0 then begin
          let data = Util.Bytequeue.pop s.send_buf len in
          s.in_flight <- s.in_flight + len;
          s.pumping <- true;
          let delay = transfer_delay s.fab ~src:s.sock_host ~dst:p.sock_host len in
          Trace.Metrics.incr m_segments;
          Trace.Metrics.add m_bytes (float_of_int len);
          if Trace.on () then
            Trace.instant ~node:s.sock_host ~cat:"net" ~name:"seg/send"
              ~args:[ ("dst", string_of_int p.sock_host); ("len", string_of_int len) ]
              ~time:(Sim.Engine.now s.fab.eng) ();
          ignore
            (Sim.Engine.schedule s.fab.eng ~delay (fun () ->
                 Util.Bytequeue.push p.recv_buf data;
                 s.in_flight <- s.in_flight - len;
                 s.pumping <- false;
                 if Trace.on () then
                   Trace.instant ~node:p.sock_host ~cat:"net" ~name:"seg/deliver"
                     ~args:[ ("src", string_of_int s.sock_host); ("len", string_of_int len) ]
                     ~time:(Sim.Engine.now s.fab.eng) ();
                 (* the receiver may now read.  The sender's hook
                    still runs, for its writers (DESIGN §2.4), but a
                    delivery cannot make the sender readable, so its
                    cells stay armed *)
                 notify p;
                 s.wake ();
                 pump s;
                 maybe_deliver_fin s))
        end
        else maybe_deliver_fin s

let addr_taken fab addr = Hashtbl.mem fab.bound addr || Hashtbl.mem fab.listeners addr

let bind s ~port =
  match s.st with
  | Created when not s.unix ->
    let port =
      if port = 0 then begin
        (* skip ephemeral ports squatted by explicit binds *)
        let rec fresh () =
          let p = s.fab.next_port.(s.sock_host) in
          s.fab.next_port.(s.sock_host) <- p + 1;
          if addr_taken s.fab (Addr.Inet { host = s.sock_host; port = p }) then fresh () else p
        in
        fresh ()
      end
      else port
    in
    let addr = Addr.Inet { host = s.sock_host; port } in
    if addr_taken s.fab addr then Error Addr_in_use
    else begin
      Hashtbl.replace s.fab.bound addr ();
      s.local <- Some addr;
      s.st <- Bound;
      Ok port
    end
  | Created -> Error Invalid
  | _ -> Error Already_bound

let bind_unix s ~path =
  match s.st with
  | Created when s.unix ->
    let addr = Addr.Unix { host = s.sock_host; path } in
    if addr_taken s.fab addr then Error Addr_in_use
    else begin
      Hashtbl.replace s.fab.bound addr ();
      s.local <- Some addr;
      s.st <- Bound;
      Ok ()
    end
  | Created -> Error Invalid
  | _ -> Error Already_bound

let listen s ~backlog =
  match s.st, s.local with
  | Bound, Some addr ->
    if Hashtbl.mem s.fab.listeners addr then Error Addr_in_use
    else begin
      Hashtbl.replace s.fab.listeners addr s;
      s.backlog <- max 1 backlog;
      s.st <- Listening;
      Ok ()
    end
  | _ -> Error Invalid

let one_way_latency fab ~src ~dst =
  if src = dst then loopback_latency else fab.latency *. lat_factor fab ~src ~dst

let connect s addr =
  match s.st with
  | Created ->
    (match addr, s.unix with
    | Addr.Inet _, true | Addr.Unix _, false -> Error Invalid
    | _ ->
      s.st <- Connecting;
      let fab = s.fab in
      let fwd = one_way_latency fab ~src:s.sock_host ~dst:(Addr.host_of addr) in
      ignore
        (Sim.Engine.schedule fab.eng ~delay:fwd (fun () ->
             let refuse () =
               let back = one_way_latency fab ~src:(Addr.host_of addr) ~dst:s.sock_host in
               ignore
                 (Sim.Engine.schedule fab.eng ~delay:back (fun () ->
                      s.st <- Closed;
                      s.refused <- true;
                      notify s))
             in
             match Hashtbl.find_opt fab.listeners addr with
             | _ when not (link_up fab ~a:s.sock_host ~b:(Addr.host_of addr)) ->
               (* SYN lost to the partition: surface as a refusal after
                  the would-be round trip *)
               refuse ()
             | None -> refuse ()
             | Some listener when listener.st <> Listening -> refuse ()
             | Some listener when Queue.length listener.accept_q >= listener.backlog -> refuse ()
             | Some listener ->
               (* Server-side endpoint, established immediately. *)
               let server = make_socket fab ~host:(Addr.host_of addr) ~unix:s.unix in
               server.st <- Established;
               server.local <- Some addr;
               server.peer <- Some s;
               Queue.push server listener.accept_q;
               notify listener;
               let back = one_way_latency fab ~src:(Addr.host_of addr) ~dst:s.sock_host in
               ignore
                 (Sim.Engine.schedule fab.eng ~delay:back (fun () ->
                      if s.st = Connecting then begin
                        s.st <- Established;
                        s.peer <- Some server;
                        (* our ephemeral local address *)
                        if s.local = None && not s.unix then begin
                          let p = fab.next_port.(s.sock_host) in
                          fab.next_port.(s.sock_host) <- p + 1;
                          s.local <- Some (Addr.Inet { host = s.sock_host; port = p })
                        end;
                        notify s;
                        pump s;
                        pump server
                      end))));
      Ok ())
  | _ -> Error Invalid

let accept s =
  match s.st with
  | Listening when not (Queue.is_empty s.accept_q) -> Some (Queue.pop s.accept_q)
  | _ -> None

let send s data =
  match s.st with
  | Established when not s.fin_sent ->
    let free = buffer_capacity - Util.Bytequeue.length s.send_buf in
    let n = min free (String.length data) in
    if n > 0 then begin
      Util.Bytequeue.push s.send_buf (String.sub data 0 n);
      pump s
    end;
    Ok n
  | Established -> Error Invalid
  | Closed -> Error (if s.refused then Refused else Not_connected)
  | _ -> Error Not_connected

let recv s ~max =
  match s.st with
  | Established | Closed ->
    if not (Util.Bytequeue.is_empty s.recv_buf) then begin
      let data = Util.Bytequeue.pop s.recv_buf max in
      (match s.peer with
      | Some p -> pump p  (* room freed: let the peer push more *)
      | None -> ());
      `Data data
    end
    else if s.peer_closed then `Eof
    else if s.st = Closed then `Error (if s.refused then Refused else Not_connected)
    else `Would_block
  | Listening | Created | Bound | Connecting -> `Error Not_connected

let close s =
  match s.st with
  | Closed -> ()
  | Listening ->
    (match s.local with
    | Some addr ->
      Hashtbl.remove s.fab.listeners addr;
      Hashtbl.remove s.fab.bound addr
    | None -> ());
    (* pending, never-accepted connections are refused *)
    Queue.iter
      (fun server ->
        match server.peer with
        | Some client ->
          client.st <- Closed;
          client.refused <- true;
          notify client
        | None -> ())
      s.accept_q;
    Queue.clear s.accept_q;
    s.st <- Closed
  | Created | Bound ->
    (match s.local with
    | Some addr ->
      Hashtbl.remove s.fab.listeners addr;
      Hashtbl.remove s.fab.bound addr
    | None -> ());
    s.st <- Closed
  | Connecting | Established ->
    s.fin_sent <- true;
    maybe_deliver_fin s;
    s.st <- Closed

let socketpair fab ~host =
  let a = make_socket fab ~host ~unix:true in
  let b = make_socket fab ~host ~unix:true in
  a.st <- Established;
  b.st <- Established;
  a.peer <- Some b;
  b.peer <- Some a;
  a.local <- Some (Addr.Unix { host; path = Printf.sprintf "<pair:%d>" a.id });
  b.local <- Some (Addr.Unix { host; path = Printf.sprintf "<pair:%d>" b.id });
  (a, b)

let inject_recv s data =
  Util.Bytequeue.push s.recv_buf data;
  Trace.Metrics.add m_refill (float_of_int (String.length data));
  if Trace.on () then
    Trace.instant ~node:s.sock_host ~cat:"net" ~name:"refill"
      ~args:[ ("bytes", string_of_int (String.length data)) ]
      ~time:(Sim.Engine.now s.fab.eng) ();
  notify s

let peer_id s = Option.map (fun p -> p.id) s.peer

(* Restart support: turn a freshly created socket into the local end of
   a connection whose peer closed before the checkpoint.  Reads yield
   whatever is injected into [recv_buf] (the drained stash) followed by
   EOF; writes fail as on any closed-by-peer stream. *)
let inject_eof s =
  s.st <- Established;
  s.peer_closed <- true;
  s.fin_sent <- true;
  if Trace.on () then
    Trace.instant ~node:s.sock_host ~cat:"net" ~name:"eof-inject"
      ~time:(Sim.Engine.now s.fab.eng) ();
  notify s

let peer_gone s =
  s.peer_closed || (match s.peer with Some p -> p.fin_sent | None -> true)

let backlog s = s.backlog
