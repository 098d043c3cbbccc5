(* The rank/proxy split: wire codec, eager neighbour-relation
   validation, mid-collective checkpoint/restart on both transports,
   direct-vs-proxy numerical identity, the drain-accounting conservation
   property, and the kill-mid-collective chaos scenarios. *)

let check = Alcotest.check

module Common = Harness.Common

let base_port = Common.base_port

(* ------------------------------------------------------------------ *)
(* wire codec *)

let frames =
  [
    Proxy.Wire.Hello { rank = 3; size = 8; rpn = 2 };
    Proxy.Wire.Welcome;
    Proxy.Wire.Data { src = 1; dst = 6; epoch = 0; seq = 42; tag = 'h'; payload = "halo-bytes" };
    Proxy.Wire.Ack { src = 6; dst = 1; epoch = 3; seq = 42 };
    Proxy.Wire.Deliver { src = 1; epoch = 1; seq = 7; tag = 'g'; payload = "" };
    Proxy.Wire.Ack_ind { src = 2; epoch = 0; seq = 9 };
  ]

let test_wire_roundtrip () =
  let bytes = String.concat "" (List.map Proxy.Wire.to_bytes frames) in
  let rec pop_all buf acc =
    match Proxy.Wire.pop buf with
    | Some (f, rest) -> pop_all rest (f :: acc)
    | None ->
      check Alcotest.int "no trailing bytes" 0 (String.length buf);
      List.rev acc
  in
  let got = pop_all bytes [] in
  Alcotest.(check bool) "frames survive the wire" true (got = frames)

let test_wire_partial () =
  let whole = Proxy.Wire.to_bytes (List.nth frames 2) in
  for cut = 0 to String.length whole - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "prefix of %d bytes is incomplete" cut)
      true
      (Proxy.Wire.pop (String.sub whole 0 cut) = None)
  done

(* seeded fuzz: a mutated frame stream pops frames, waits for more, or
   raises Corrupt, and nothing else *)
let fuzz_wire =
  Decode_fuzz.property ~name:"fuzz: wire frames" ~seed:21
    (lazy (String.concat "" (List.map Proxy.Wire.to_bytes frames)))
    (fun buf ->
      let rec pop_all buf = match Proxy.Wire.pop buf with Some (_, rest) -> pop_all rest | None -> () in
      pop_all buf)

(* A raw unix client of the proxy: connects, writes its bytes, then
   records what it reads and whether the proxy hung up on it. *)
module Peer = struct
  type state = Boot of string * string | Connecting of string * int * string | Reading of string * int

  let name = "test:wire-peer"
  let received : (string, string) Hashtbl.t = Hashtbl.create 8
  let hung_up : (string, unit) Hashtbl.t = Hashtbl.create 8

  (* never checkpointed *)
  let encode w _ = Util.Codec.Writer.u8 w 0
  let decode _ = Boot ("", "")
  let init ~argv = match argv with [ id; bytes ] -> Boot (id, bytes) | _ -> Boot ("", "")

  let step (ctx : Simos.Program.ctx) = function
    | Boot (id, bytes) ->
      let fd = ctx.socket_unix () in
      ignore (ctx.connect fd (Simnet.Addr.Unix { host = ctx.node_id; path = Proxy.Wire.sock_path ~base_port }));
      Simos.Program.Continue (Connecting (id, fd, bytes))
    | Connecting (id, fd, bytes) as st -> (
      match ctx.sock_state fd with
      | Some Simnet.Fabric.Established ->
        ignore (ctx.write_fd fd bytes);
        Simos.Program.Continue (Reading (id, fd))
      | _ -> Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 1e-3)))
    | Reading (id, fd) as st -> (
      match ctx.read_fd fd ~max:4096 with
      | `Data d ->
        Hashtbl.replace received id (Option.value ~default:"" (Hashtbl.find_opt received id) ^ d);
        Simos.Program.Continue st
      | `Would_block -> Simos.Program.Block (st, Simos.Program.Readable fd)
      | `Eof | `Err _ ->
        Hashtbl.replace hung_up id ();
        Simos.Program.Exit 0)
end

(* garbage on one connection closes that connection only: the proxy
   keeps routing between the well-behaved ranks *)
let test_daemon_drops_garbage () =
  Simos.Program.register (module Peer : Simos.Program.S);
  let cl = Simos.Cluster.create ~nodes:1 () in
  let k = Simos.Cluster.kernel cl 0 in
  let run () = Sim.Engine.run ~until:(Simos.Cluster.now cl +. 0.2) (Simos.Cluster.engine cl) in
  Proxy.Daemon.spawn_on cl ~node:0 ~base_port ~rpn:2;
  run ();
  let peer id bytes = ignore (Simos.Kernel.spawn k ~prog:Peer.name ~argv:[ id; bytes ] ()) in
  (* a frame of unknown type 9, and a negative frame length *)
  peer "bad-type" "\x02\x00\x00\x00\x09\x00";
  peer "bad-length" "\xff\xff\xff\xff";
  run ();
  let hello rank = Proxy.Wire.to_bytes (Proxy.Wire.Hello { rank; size = 2; rpn = 2 }) in
  peer "rank0" (hello 0);
  run ();
  peer "rank1"
    (hello 1
    ^ Proxy.Wire.to_bytes
        (Proxy.Wire.Data { src = 1; dst = 0; epoch = 0; seq = 1; tag = 'x'; payload = "ping" }));
  run ();
  let hung id = Hashtbl.mem Peer.hung_up id in
  Alcotest.(check bool) "unknown frame type: connection closed" true (hung "bad-type");
  Alcotest.(check bool) "negative length: connection closed" true (hung "bad-length");
  Alcotest.(check bool) "well-behaved ranks stay connected" false (hung "rank0" || hung "rank1");
  let rec frames buf = match Proxy.Wire.pop buf with Some (f, rest) -> f :: frames rest | None -> [] in
  Alcotest.(check bool) "rank 0 received rank 1's payload" true
    (List.exists
       (function Proxy.Wire.Deliver { src = 1; payload = "ping"; _ } -> true | _ -> false)
       (frames (Option.value ~default:"" (Hashtbl.find_opt Peer.received "rank0"))))

(* ------------------------------------------------------------------ *)
(* neighbour-relation validation (no simulation) *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let invalid_with substrings f =
  try
    ignore (f ());
    false
  with Invalid_argument m -> List.for_all (fun s -> contains m s) substrings

let ring size r = List.filter (fun n -> n >= 0 && n < size) [ r - 1; r + 1 ]

let test_relation_asymmetric () =
  (* rank 1 lists rank 2; rank 2 does not list rank 1 *)
  let rel r = if r = 1 then [ 2 ] else [] in
  Alcotest.(check bool) "asymmetric relation rejected, naming both ranks" true
    (invalid_with [ "rank 1"; "rank 2" ] (fun () ->
         Apps.Mpi.create ~rank:0 ~size:4 ~base_port:6000 ~ranks_per_node:2 ~neighbors:rel ()))

let test_relation_out_of_range () =
  let rel r = if r = 3 then [ 4 ] else [] in
  Alcotest.(check bool) "out-of-range neighbour rejected" true
    (invalid_with [ "rank 3"; "neighbour 4" ] (fun () ->
         Apps.Mpi.create ~rank:0 ~size:4 ~base_port:6000 ~ranks_per_node:2 ~neighbors:rel ()))

let test_proxied_codec_roundtrip () =
  let comm =
    Apps.Mpi.create ~rank:2 ~size:8 ~base_port:6000 ~ranks_per_node:2
      ~transport:Apps.Mpi.Proxied ~neighbors:(ring 8) ()
  in
  Apps.Mpi.send comm ~dst:1 ~tag:'D' "payload-bytes";
  let comm' = Util.Codec.roundtrip Apps.Mpi.encode Apps.Mpi.decode comm in
  Alcotest.(check bool) "transport preserved" true
    (Apps.Mpi.transport comm' = Apps.Mpi.Proxied);
  check Alcotest.int "unacked bytes preserved" (Apps.Mpi.pending_out comm ~dst:1)
    (Apps.Mpi.pending_out comm' ~dst:1)

(* seeded fuzz: a mutated communicator record (rank 1 of 4, two queued
   sends) either raises Corrupt or decodes into one every accessor can
   index *)
let fuzz_comm ~name transport =
  Decode_fuzz.property ~name ~seed:21
    (lazy
      (let comm =
         Apps.Mpi.create ~rank:1 ~size:4 ~base_port:6000 ~ranks_per_node:2 ~transport
           ~neighbors:(ring 4) ()
       in
       Apps.Mpi.send comm ~dst:0 ~tag:'D' "to-rank-0";
       Apps.Mpi.send comm ~dst:2 ~tag:'h' "to-rank-2";
       let w = Util.Codec.Writer.create () in
       Apps.Mpi.encode w comm;
       Util.Codec.Writer.contents w))
    (fun bytes ->
      let comm = Apps.Mpi.decode (Util.Codec.Reader.of_string bytes) in
      for r = 0 to Apps.Mpi.size comm - 1 do
        ignore (Apps.Mpi.pending_out comm ~dst:r);
        ignore (Apps.Mpi.recv comm ~src:r ~tag:'D')
      done;
      ignore (Apps.Mpi.recv_any comm ~tag:'h');
      ignore (Apps.Mpi.quiesced comm))

(* A direct record of rank 1 of 2, never connected, written field by
   field as [Mpi.encode] writes it, with the given pending accepts and
   in-buffers. *)
let direct_record ~pending_accept ~in_bufs =
  let module W = Util.Codec.Writer in
  let w = W.create () in
  List.iter (W.uvarint w) [ 1; 2; 6000; 1 ];
  W.list W.uvarint w [ 0 ];
  W.u8 w 0;
  W.varint w (-1);
  W.array W.varint w [| -1; -1 |];
  W.list (W.pair W.uvarint W.varint) w [];
  W.list (W.pair W.varint W.string) w pending_accept;
  W.array W.string w [| ""; "" |];
  W.array W.string w in_bufs;
  W.array (W.list (fun _ () -> ())) w [| []; [] |];
  W.contents w

(* The direct backend's framing state restores only in a shape its
   parser accepts: an in-buffer opens with a frame length of at least 1
   (the tag), and a pending rank header is shorter than 4 bytes. *)
let test_direct_framing_decode () =
  let decodes bytes =
    match Apps.Mpi.decode (Util.Codec.Reader.of_string bytes) with
    | _ -> true
    | exception Util.Codec.Reader.Corrupt _ -> false
  in
  let fresh =
    Apps.Mpi.create ~rank:1 ~size:2 ~base_port:6000 ~ranks_per_node:1 ~neighbors:(ring 2) ()
  in
  let w = Util.Codec.Writer.create () in
  Apps.Mpi.encode w fresh;
  check Alcotest.string "the hand-written record is what encode writes"
    (Util.Codec.Writer.contents w)
    (direct_record ~pending_accept:[] ~in_bufs:[| ""; "" |]);
  let case name expect ~pending_accept ~in_bufs =
    check Alcotest.bool name expect (decodes (direct_record ~pending_accept ~in_bufs))
  in
  case "a partial frame and a partial header decode" true
    ~pending_accept:[ (5, "\001\000") ]
    ~in_bufs:[| "\005\000\000\000ab"; "" |];
  case "frame length 0 is corrupt" false ~pending_accept:[]
    ~in_bufs:[| "\000\000\000\000"; "" |];
  case "a negative frame length is corrupt" false ~pending_accept:[]
    ~in_bufs:[| ""; "\255\255\255\255\001" |];
  case "a whole pending rank header is corrupt" false
    ~pending_accept:[ (5, "\000\000\000\000") ]
    ~in_bufs:[| ""; "" |]

(* A raw TCP client: connects to [port] on node [host], writes its
   bytes, then holds the connection until the other end closes it. *)
module Raw_client = struct
  type state = Boot of int * int * string | Connecting of int * string | Holding of int

  let name = "test:raw-client"

  (* never checkpointed *)
  let encode w _ = Util.Codec.Writer.u8 w 0
  let decode _ = Boot (0, 0, "")

  let init ~argv =
    match argv with
    | [ host; port; bytes ] -> Boot (int_of_string host, int_of_string port, bytes)
    | _ -> Boot (0, 0, "")

  let step (ctx : Simos.Program.ctx) = function
    | Boot (host, port, bytes) ->
      let fd = ctx.socket () in
      ignore (ctx.connect fd (Simnet.Addr.Inet { host; port }));
      Simos.Program.Continue (Connecting (fd, bytes))
    | Connecting (fd, bytes) as st -> (
      match ctx.sock_state fd with
      | Some Simnet.Fabric.Established ->
        ignore (ctx.write_fd fd bytes);
        Simos.Program.Continue (Holding fd)
      | Some Simnet.Fabric.Connecting ->
        Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
      | _ -> Simos.Program.Exit 1)
    | Holding fd as st -> (
      match ctx.read_fd fd ~max:4096 with
      | `Would_block -> Simos.Program.Block (st, Simos.Program.Readable fd)
      | `Data _ | `Eof | `Err _ -> Simos.Program.Exit 0)
end

(* A rank header outside the job, sent to a direct-backend rank during
   init, ends that rank with exit 72; the simulation runs on, and a
   process on another node still finishes. *)
let test_corrupt_rank_header_ends_only_that_rank () =
  Simos.Program.register (module Raw_client : Simos.Program.S);
  let cl = Simos.Cluster.create ~nodes:2 () in
  let k0 = Simos.Cluster.kernel cl 0 and k1 = Simos.Cluster.kernel cl 1 in
  let col = Trace.collector () in
  let rank =
    Trace.with_sink (Trace.collector_sink col) (fun () ->
        (* rank 1 of a two-rank job listens on base_port + 1 and keeps
           dialling rank 0, which never starts *)
        let rank =
          Simos.Kernel.spawn k0 ~prog:Apps.Stencil.stencil_prog
            ~argv:[ "1"; "2"; string_of_int base_port; "2"; "0"; "0"; "direct"; "96"; "4"; "6"; "0.08" ]
            ()
        in
        ignore (Simos.Kernel.spawn k1 ~prog:"p:counter" ~argv:[ "200"; "/tmp/alive" ] ());
        Sim.Engine.run ~until:0.01 (Simos.Cluster.engine cl);
        let header = Bytes.create 4 in
        Bytes.set_int32_le header 0 99l;
        ignore
          (Simos.Kernel.spawn k1 ~prog:Raw_client.name
             ~argv:[ "0"; string_of_int (base_port + 1); Bytes.to_string header ]
             ());
        Sim.Engine.run (Simos.Cluster.engine cl);
        rank)
  in
  let exit_of pid =
    List.find_map
      (fun (e : Trace.event) ->
        if e.Trace.name = "proc/exit" && e.Trace.node = 0 && e.Trace.pid = pid then
          List.assoc_opt "code" e.Trace.args
        else None)
      (Trace.events col)
  in
  check Alcotest.(option string) "the rank exits 72" (Some "72") (exit_of rank.Simos.Kernel.pid);
  check Alcotest.(option string) "the other node's process finishes" (Some "done:200")
    (Option.map Simos.Vfs.read_all
       (Simos.Vfs.lookup (Simos.Kernel.vfs k1) "/tmp/alive"))

let test_transport_of_string () =
  Alcotest.(check bool) "direct" true (Apps.Mpi.transport_of_string "direct" = Apps.Mpi.Direct);
  Alcotest.(check bool) "proxy" true (Apps.Mpi.transport_of_string "proxy" = Apps.Mpi.Proxied);
  Alcotest.(check bool) "garbage rejected" true
    (try
       ignore (Apps.Mpi.transport_of_string "smoke-signals");
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* end-to-end cycles *)

let proxy_options = Common.options_for Common.Proxy

let workload ~kind ~prog ~nprocs ~rpn ~extra =
  {
    Common.w_name = prog;
    w_kind = kind;
    w_prog = prog;
    w_nprocs = nprocs;
    w_rpn = rpn;
    w_extra = extra;
    w_warmup = 0.05;
  }

let result path env = Common.read_file env ~node:0 path

(* run a workload to completion with no checkpoint; the reference
   bytes *)
let plain_run ~kind ~prog ~short ~nprocs ~rpn ~extra =
  let env = Common.setup ~nodes:4 ~cores_per_node:2 ~options:proxy_options () in
  Common.start_workload env (workload ~kind ~prog ~nprocs ~rpn ~extra);
  let path = Printf.sprintf "/result/%s-%d" short base_port in
  Common.run_until ~every:0.05 env ~timeout:120. (fun () -> result path env <> None);
  let out = result path env in
  Common.teardown env;
  out

(* same workload, but checkpoint mid-run ([at] seconds after warmup),
   kill everything hijacked, restart from the images, and run out *)
let cycle_run ~kind ~prog ~short ~nprocs ~rpn ~extra ~at =
  let env = Common.setup ~nodes:4 ~cores_per_node:2 ~options:proxy_options () in
  Common.start_workload env (workload ~kind ~prog ~nprocs ~rpn ~extra);
  Common.run_for env at;
  Dmtcp.Api.checkpoint_now env.Common.rt;
  let script = Dmtcp.Api.restart_script env.Common.rt in
  Dmtcp.Api.kill_computation env.Common.rt;
  Dmtcp.Api.restart env.Common.rt script;
  Dmtcp.Api.await_restart env.Common.rt;
  let path = Printf.sprintf "/result/%s-%d" short base_port in
  Common.run_until ~every:0.05 env ~timeout:120. (fun () -> result path env <> None);
  let out = result path env in
  let images = Common.socket_stats env script.Dmtcp.Restart_script.entries in
  Common.teardown env;
  (out, images)

(* one straggling phase, 0.6 s long: a checkpoint 0.2 s in lands while
   the straggler computes and every other rank sits inside the
   allreduce with its gather message already in flight *)
let bsp_extra = [ "1"; "512"; "1"; "0.6" ]

(* the mpi.mli claim, on the direct backend: a checkpoint between
   [progress] steps of an in-flight [allreduce_sum] restores and
   completes with the right value *)
let test_direct_mid_allreduce_restart () =
  let reference =
    plain_run ~kind:Common.Direct ~prog:Apps.Stencil.bsp_prog ~short:"bsp" ~nprocs:8 ~rpn:2
      ~extra:("direct" :: bsp_extra)
  in
  let restarted, _ =
    cycle_run ~kind:Common.Direct ~prog:Apps.Stencil.bsp_prog ~short:"bsp" ~nprocs:8 ~rpn:2
      ~extra:("direct" :: bsp_extra) ~at:0.2
  in
  Alcotest.(check bool) "reference run completed" true (reference <> None);
  (match reference with
  | Some r -> Alcotest.(check bool) "reference verified" true (contains r "VERIFIED")
  | None -> ());
  Alcotest.(check bool) "collective completes with the right value after restart" true
    (restarted = reference)

(* the same claim on the proxy backend, plus the image-shape payoff:
   rank images carry no live socket and no drained bytes *)
let test_proxy_mid_allreduce_restart () =
  let reference =
    plain_run ~kind:Common.Proxy ~prog:Apps.Stencil.bsp_prog ~short:"bsp" ~nprocs:8 ~rpn:2
      ~extra:bsp_extra
  in
  let restarted, (estab, drained) =
    cycle_run ~kind:Common.Proxy ~prog:Apps.Stencil.bsp_prog ~short:"bsp" ~nprocs:8 ~rpn:2
      ~extra:bsp_extra ~at:0.2
  in
  Alcotest.(check bool) "proxy restart reproduces the reference" true (restarted = reference);
  check Alcotest.int "no established sockets in rank images" 0 estab;
  check Alcotest.int "no drained bytes in rank images" 0 drained

(* the tentpole acceptance check: identical numerical results on direct
   and proxy transports, compared as raw result-file bytes *)
let stencil_extra = [ "96"; "4"; "6"; "0.08" ]

let test_stencil_direct_vs_proxy () =
  let run ~kind extra =
    plain_run ~kind ~prog:Apps.Stencil.stencil_prog ~short:"stencil" ~nprocs:8 ~rpn:2 ~extra
  in
  let direct = run ~kind:Common.Direct ("direct" :: stencil_extra) in
  let proxied = run ~kind:Common.Proxy stencil_extra in
  Alcotest.(check bool) "direct run completed" true (direct <> None);
  Alcotest.(check bool) "stencil bit-identical across transports" true (direct = proxied);
  Alcotest.(check bool) "no transport word means direct" true
    (run ~kind:Common.Direct stencil_extra = direct)

(* every rank program takes either transport: NAS kernels, whose extras
   are numbers, write the same verified bytes over proxies as over the
   socket mesh *)
let test_nas_direct_vs_proxy () =
  List.iter
    (fun (prog, short, extra) ->
      let direct = plain_run ~kind:Common.Direct ~prog ~short ~nprocs:8 ~rpn:2 ~extra in
      let proxied = plain_run ~kind:Common.Proxy ~prog ~short ~nprocs:8 ~rpn:2 ~extra in
      match direct with
      | None -> Alcotest.failf "%s: the direct run wrote no result" prog
      | Some r ->
        Alcotest.(check bool) (prog ^ " verified (" ^ r ^ ")") true (contains r "VERIFIED");
        Alcotest.(check (option string)) (prog ^ " identical on both transports") direct proxied)
    [ ("nas:cg", "cg", [ "400"; "20" ]); ("nas:mg", "mg", [ "400" ]) ]

(* A poke skips a blocked thread while its wait record is current, so a
   skip must never hide a ready thread; and it walks each kernel's
   array of live threads, which must agree with the process table.
   Step a direct-backend stencil checkpoint -> kill -> restart cycle
   one event at a time, ask every node after every event, and judge
   the result against an uninterrupted run. *)
let test_skip_never_hides_ready () =
  let extra = "direct" :: stencil_extra in
  let reference =
    plain_run ~kind:Common.Direct ~prog:Apps.Stencil.stencil_prog ~short:"stencil" ~nprocs:8 ~rpn:2
      ~extra
  in
  let env = Common.setup ~nodes:4 ~cores_per_node:2 ~options:proxy_options () in
  let cl = env.Common.cl and rt = env.Common.rt in
  let port = (Dmtcp.Runtime.options rt).Dmtcp.Options.coord_port in
  let events = ref 0 in
  let step_until pred =
    while not (pred ()) do
      if not (Sim.Engine.step (Simos.Cluster.engine cl)) then
        Alcotest.failf "the engine drained after %d events" !events;
      incr events;
      for node = 0 to Simos.Cluster.nodes cl - 1 do
        let k = Simos.Cluster.kernel cl node in
        let skipped = Simos.Kernel.skipped_ready k in
        if skipped > 0 then
          Alcotest.failf "event %d: a poke on node %d would skip %d ready thread(s)" !events node
            skipped;
        if not (Simos.Kernel.live_threads_agree k) then
          Alcotest.failf "event %d: node %d's live threads disagree with its process table" !events
            node
      done
    done
  in
  (* launch the ranks as [Common.start_workload] does, but step from
     the first event *)
  for rank = 0 to 7 do
    ignore
      (Dmtcp.Api.launch rt ~node:(rank / 2) ~prog:Apps.Stencil.stencil_prog
         ~argv:([ string_of_int rank; "8"; string_of_int base_port; "2"; "0"; "0" ] @ extra))
  done;
  step_until (fun () -> List.length (Dmtcp.Runtime.hijacked_processes rt) = 8);
  let at = Simos.Cluster.now cl +. 0.15 in
  step_until (fun () -> Simos.Cluster.now cl >= at);
  Dmtcp.Api.checkpoint rt;
  step_until (fun () ->
      match Dmtcp.Runtime.last_completed_ckpt ~port rt with
      | Some info -> info.Dmtcp.Runtime.started >= at && info.Dmtcp.Runtime.nprocs > 0
      | None -> false);
  let script = Dmtcp.Api.restart_script rt in
  Dmtcp.Api.kill_computation rt;
  Dmtcp.Api.restart rt script;
  let path = Printf.sprintf "/result/stencil-%d" base_port in
  step_until (fun () -> result path env <> None);
  Common.teardown env;
  check Alcotest.int "every restart process resumed" (Dmtcp.Runtime.restart_expected ~port rt)
    (Dmtcp.Runtime.restart_info ~port rt).Dmtcp.Runtime.nprocs;
  Alcotest.(check bool) "the restarted stencil matches the uninterrupted run" true
    (result path env = reference)

(* ------------------------------------------------------------------ *)
(* drain-accounting conservation (QCheck) *)

(* At any sampled instant: a destination cannot have accepted more than
   its sources sent, and every byte sent-but-not-yet-accepted is
   retained in some sender's resend buffer (proxy custody and wire
   bytes are disposable copies).  At quiesce every directed pair has
   sent = delivered: exactly-once delivery across the cycle. *)
let conservation_cycle (size, rpn, bytes, at_ticks) =
  (* QCheck shrinking walks int_range values toward 0, below the
     generator's lower bound — clamp so a shrink step cannot crash the
     harness (rpn = 0 divides) instead of refuting the property *)
  let size = max 2 size and rpn = max 1 rpn in
  let bytes = max 1 bytes and at_ticks = max 1 at_ticks in
  let env = Common.setup ~nodes:6 ~cores_per_node:2 ~options:proxy_options () in
  let violations = ref [] in
  let sample tag =
    let s, d, r = Proxy.Accounting.totals env.Common.cl ~base_port in
    if d > s then violations := Printf.sprintf "%s: delivered %d > sent %d" tag d s :: !violations;
    if s - d > r then
      violations :=
        Printf.sprintf "%s: %d bytes in flight but only %d retained" tag (s - d) r :: !violations
  in
  Common.start_workload env
    (workload ~kind:Common.Proxy ~prog:Apps.Stencil.bsp_prog ~nprocs:size ~rpn
       ~extra:[ "4"; string_of_int bytes; "2"; "0.4" ]);
  for _ = 1 to at_ticks do
    Common.run_for env 0.05;
    sample "pre-ckpt"
  done;
  Dmtcp.Api.checkpoint_now env.Common.rt;
  let script = Dmtcp.Api.restart_script env.Common.rt in
  Dmtcp.Api.kill_computation env.Common.rt;
  Dmtcp.Api.restart env.Common.rt script;
  Dmtcp.Api.await_restart env.Common.rt;
  (* let every restored rank publish a fresh gauge before sampling: the
     rewind leaves receiver gauges ahead of sender gauges until both
     sides have stepped once *)
  Common.run_for env 0.05;
  let deadline = Simos.Cluster.now env.Common.cl +. 120. in
  while
    Dmtcp.Runtime.hijacked_processes env.Common.rt <> []
    && Simos.Cluster.now env.Common.cl < deadline
  do
    sample "post-restart";
    Common.run_for env 0.05
  done;
  (* quiesce: every rank exited; final gauges must balance per pair *)
  for src = 0 to size - 1 do
    for dst = 0 to size - 1 do
      let s, d, _ = Proxy.Accounting.pair env.Common.cl ~base_port ~src ~dst in
      if s <> d then
        violations :=
          Printf.sprintf "quiesce: pair %d->%d sent %d delivered %d" src dst s d :: !violations
    done
  done;
  Common.teardown env;
  match !violations with
  | [] -> true
  | vs -> QCheck.Test.fail_reportf "conservation violated:@.%s" (String.concat "\n" vs)

let conservation_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:4
       ~name:"rank+proxy byte accounting conserved across a ckpt/restart cycle"
       QCheck.(quad (int_range 2 5) (int_range 1 2) (int_range 16 512) (int_range 1 6))
       conservation_cycle)

(* ------------------------------------------------------------------ *)
(* chaos: node crash mid-collective, bit-identical verdict *)

let chaos_case title name =
  Alcotest.test_case title `Slow (fun () ->
      check
        Alcotest.(list string)
        (name ^ " scenario clean") []
        ((List.assoc name Chaos.Fixture.scenarios) ()))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "proxy"
    [
      ( "wire",
        [
          Alcotest.test_case "frame codec round-trips" `Quick test_wire_roundtrip;
          Alcotest.test_case "partial frames stay buffered" `Quick test_wire_partial;
          fuzz_wire;
          Alcotest.test_case "proxy drops a garbage connection" `Quick test_daemon_drops_garbage;
        ] );
      ( "relation",
        [
          Alcotest.test_case "asymmetric relation rejected eagerly" `Quick
            test_relation_asymmetric;
          Alcotest.test_case "out-of-range neighbour rejected" `Quick test_relation_out_of_range;
          Alcotest.test_case "proxied communicator codec round-trips" `Quick
            test_proxied_codec_roundtrip;
          Alcotest.test_case "transport_of_string" `Quick test_transport_of_string;
          Alcotest.test_case "direct framing state decodes cleanly" `Quick
            test_direct_framing_decode;
          Alcotest.test_case "a corrupt rank header ends only that rank" `Quick
            test_corrupt_rank_header_ends_only_that_rank;
          fuzz_comm ~name:"fuzz: direct comm record" Apps.Mpi.Direct;
          fuzz_comm ~name:"fuzz: proxied comm record" Apps.Mpi.Proxied;
        ] );
      ( "collective-restart",
        [
          Alcotest.test_case "direct: ckpt mid-allreduce completes right" `Quick
            test_direct_mid_allreduce_restart;
          Alcotest.test_case "proxy: ckpt mid-allreduce, empty rank images" `Quick
            test_proxy_mid_allreduce_restart;
        ] );
      ( "transport-identity",
        [
          Alcotest.test_case "stencil identical on direct and proxy" `Quick
            test_stencil_direct_vs_proxy;
          Alcotest.test_case "CG and MG identical on direct and proxy" `Quick
            test_nas_direct_vs_proxy;
        ] );
      ( "wake-ups",
        [
          Alcotest.test_case "a skip never hides a ready thread" `Quick
            test_skip_never_hides_ready;
        ] );
      ("conservation", [ conservation_prop ]);
      ( "chaos",
        [
          chaos_case "node crash mid-allreduce" "mid-allreduce";
          chaos_case "node crash mid-halo-exchange" "mid-halo";
        ] );
    ]
