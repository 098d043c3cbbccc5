(* Use case 8 from the paper's introduction: "upon detecting distributed
   deadlock or race, automatically revert to an earlier checkpoint image
   and restart in slower, 'safe mode', until beyond the danger point."

   Two processes exchange values in rounds.  In fast mode they use an
   unsafe send-send/recv-recv order that deadlocks at a known round (both
   ends blocked on read, classic head-of-line deadlock).  A watchdog takes
   periodic checkpoints; when it sees no progress, it kills the wedged
   computation, drops a "safe mode" flag file, and restarts from the last
   good image — the restarted processes see the flag and proceed in the
   safe order past the danger point.

   Run with:  dune exec examples/safe_mode.exe *)

module W = Util.Codec.Writer
module R = Util.Codec.Reader

let danger_round = 40
let total_rounds = 80

module Peer = struct
  type state =
    | Boot of { me : int; other_host : int }
    | Connecting of { fd : int }
    | Run of { fd : int; round : int; sent : bool; buf : string }

  let name = "example:peer"

  let encode w = function
    | Boot { me; other_host } ->
      W.u8 w 0;
      W.uvarint w me;
      W.uvarint w other_host
    | Connecting { fd } ->
      W.u8 w 1;
      W.varint w fd
    | Run { fd; round; sent; buf } ->
      W.u8 w 2;
      W.varint w fd;
      W.uvarint w round;
      W.bool w sent;
      W.string w buf

  let decode r =
    match R.u8 r with
    | 0 ->
      let me = R.uvarint r in
      let other_host = R.uvarint r in
      Boot { me; other_host }
    | 1 -> Connecting { fd = R.varint r }
    | _ ->
      let fd = R.varint r in
      let round = R.uvarint r in
      let sent = R.bool r in
      let buf = R.string r in
      Run { fd; round; sent; buf }

  let init ~argv =
    match argv with
    | [ me; other ] -> Boot { me = int_of_string me; other_host = int_of_string other }
    | _ -> Boot { me = 0; other_host = 1 }

  let safe_mode (ctx : Simos.Program.ctx) = ctx.file_exists "/etc/safe-mode"

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Boot { me; other_host } ->
      if me = 0 then begin
        (* peer 0 listens; peer 1 connects *)
        let lfd = ctx.socket () in
        ignore (ctx.bind lfd ~port:7600);
        ignore (ctx.listen lfd ~backlog:1);
        Simos.Program.Block (Connecting { fd = -lfd - 10 }, Simos.Program.Readable lfd)
      end
      else begin
        let fd = ctx.socket () in
        ignore (ctx.connect fd (Simnet.Addr.Inet { host = other_host; port = 7600 }));
        Simos.Program.Block (Connecting { fd }, Simos.Program.Sleep_until (ctx.now () +. 2e-3))
      end
    | Connecting { fd } when fd < -1 -> (
      let lfd = -fd - 10 in
      match ctx.accept lfd with
      | Some conn ->
        ctx.close_fd lfd;
        Simos.Program.Continue (Run { fd = conn; round = 0; sent = false; buf = "" })
      | None -> Simos.Program.Block (st, Simos.Program.Readable lfd))
    | Connecting { fd } -> (
      match ctx.sock_state fd with
      | Some Simnet.Fabric.Established ->
        Simos.Program.Continue (Run { fd; round = 0; sent = false; buf = "" })
      | Some Simnet.Fabric.Connecting ->
        Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 2e-3))
      | _ -> Simos.Program.Exit 2)
    | Run { fd; round; sent; buf } ->
      if round >= total_rounds then begin
        (match ctx.open_file "/tmp/safe-result" with
        | Ok ofd ->
          ignore (ctx.write_fd ofd (Printf.sprintf "COMPLETED %d rounds" round));
          ctx.close_fd ofd
        | Error _ -> ());
        Simos.Program.Exit 0
      end
      else begin
        (* The race: in fast mode, at the danger round both peers try to
           receive before sending — mutual wait, distributed deadlock.
           Safe mode always sends first. *)
        let recv_first = round = danger_round && not (safe_mode ctx) in
        if (not sent) && not recv_first then begin
          ignore (ctx.write_fd fd (Printf.sprintf "%08d" round));
          Simos.Program.Compute (Run { fd; round; sent = true; buf }, 1e-3)
        end
        else begin
          match ctx.read_fd fd ~max:8 with
          | `Data d ->
            let buf = buf ^ d in
            if String.length buf >= 8 then begin
              if recv_first then
                (* never reached in fast mode: the peer is also waiting *)
                ignore (ctx.write_fd fd (Printf.sprintf "%08d" round));
              Simos.Program.Compute
                (Run { fd; round = round + 1; sent = false; buf = "" }, 5e-3)
            end
            else Simos.Program.Block (Run { fd; round; sent; buf }, Simos.Program.Readable fd)
          | `Would_block -> Simos.Program.Block (Run { fd; round; sent; buf }, Simos.Program.Readable fd)
          | `Eof | `Err _ -> Simos.Program.Exit 3
        end
      end
end

let () =
  Simos.Program.register (module Peer);
  let cluster = Simos.Cluster.create ~nodes:2 () in
  let rt = Dmtcp.Api.install cluster () in
  let engine = Simos.Cluster.engine cluster in

  ignore (Dmtcp.Api.launch rt ~node:0 ~prog:"example:peer" ~argv:[ "0"; "1" ]);
  ignore (Dmtcp.Api.launch rt ~node:1 ~prog:"example:peer" ~argv:[ "1"; "0" ]);

  (* checkpoint while the computation is still healthy: this image set is
     the archived "known good" state we can always revert to (in
     production this would be the N-1th interval checkpoint) *)
  Sim.Engine.run ~until:0.1 engine;
  Dmtcp.Api.checkpoint_now rt;
  let known_good = Dmtcp.Api.restart_script rt in
  Printf.printf "archived a healthy checkpoint at t=%.2f\n" (Simos.Cluster.now cluster);

  (* watchdog: deadlock = processes alive but the simulation quiescent *)
  let deadlocked = ref false in
  (let rec watch () =
     let t = Simos.Cluster.now cluster in
     Sim.Engine.run ~until:(t +. 0.5) engine;
     let alive = List.length (Dmtcp.Runtime.hijacked_processes rt) in
     if alive = 0 then () (* finished *)
     else if Simos.Cluster.now cluster > 5.0 then deadlocked := true
     else watch ()
   in
   watch ());

  if !deadlocked then begin
    Printf.printf "deadlock detected at t=%.1f (both peers blocked in round %d)\n"
      (Simos.Cluster.now cluster) danger_round;
    let script = known_good in
    Dmtcp.Api.kill_computation rt;
    (* drop the safe-mode flag where the restarted processes will look *)
    List.iter
      (fun (host, _) ->
        ignore
          (Simos.Vfs.open_or_create (Simos.Kernel.vfs (Simos.Cluster.kernel cluster host))
             "/etc/safe-mode"))
      script.Dmtcp.Restart_script.entries;
    Printf.printf "reverting to the archived checkpoint, restarting in safe mode...\n";
    Dmtcp.Api.restart rt script;
    Dmtcp.Api.await_restart rt;
    Sim.Engine.run ~until:(Simos.Cluster.now cluster +. 20.) engine
  end;

  match
    Simos.Vfs.lookup (Simos.Kernel.vfs (Simos.Cluster.kernel cluster 0)) "/tmp/safe-result"
  with
  | Some f -> Printf.printf "outcome: %s (past the danger point)\n" (Simos.Vfs.read_all f)
  | None -> print_endline "ERROR: computation did not complete"
