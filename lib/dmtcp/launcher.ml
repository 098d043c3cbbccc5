let checkpoint_name = "dmtcp:checkpoint"
let command_name = "dmtcp:command"

let options (ctx : Simos.Program.ctx) =
  Options.of_getenv ~base:(Runtime.options (Runtime.active ())) ctx.getenv

(* the coordinator this process's environment names *)
let coordinator_addr ctx =
  let opts = options ctx in
  Simnet.Addr.Inet { host = opts.Options.coord_host; port = opts.Options.coord_port }

(* ------------------------------------------------------------------ *)
(* dmtcp_checkpoint *)

module Checkpoint = struct
  type state =
    | L_boot
    | L_probe of { fd : int; spawned : bool; retries : int }
    | L_exec of int  (* exec attempts so far *)

  let name = checkpoint_name

  let encode _ _ = failwith "dmtcp:checkpoint is not checkpointable"
  let decode _ = failwith "dmtcp:checkpoint is not checkpointable"
  let init ~argv:_ = L_boot

  let probe (ctx : Simos.Program.ctx) =
    let fd = ctx.socket () in
    ignore (ctx.connect fd (coordinator_addr ctx));
    fd

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | L_boot ->
      Simos.Program.Block
        ( L_probe { fd = probe ctx; spawned = false; retries = 200 },
          Simos.Program.Sleep_until (ctx.now () +. 1e-3) )
    | L_probe { fd; spawned; retries } -> (
      match ctx.sock_state fd with
      | Some Simnet.Fabric.Established ->
        (* coordinator is up; release the probe and exec the target *)
        ctx.close_fd fd;
        Simos.Program.Continue (L_exec 0)
      | Some Simnet.Fabric.Connecting ->
        Simos.Program.Block
          (L_probe { fd; spawned; retries }, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
      | _ when retries > 0 ->
        ctx.close_fd fd;
        (* The first dmtcp_checkpoint spawns the coordinator (paper §3).
           Races between concurrent launchers are benign: losers exit on
           EADDRINUSE. *)
        if not spawned then
          ignore (ctx.ssh ~host:(options ctx).Options.coord_host ~prog:Coordinator.name ~argv:[]);
        Simos.Program.Block
          ( L_probe { fd = probe ctx; spawned = true; retries = retries - 1 },
            Simos.Program.Sleep_until (ctx.now () +. 5e-3) )
      | _ -> Simos.Program.Exit 1)
    | L_exec attempts -> (
      (* if a previous Exec outcome brought us back here, the target
         program does not exist: fail like a shell would *)
      if attempts > 0 then Simos.Program.Exit 127
      else begin
        (* the target inherits DMTCP_HIJACK through the environment, so
           the exec'd image is under checkpoint control *)
        ctx.setenv Options.hijack_key "dmtcphijack.so";
        match ctx.argv with
        | _ :: prog :: argv -> Simos.Program.Exec { st = L_exec (attempts + 1); prog; argv }
        | _ -> Simos.Program.Exit 64
      end)
end

(* ------------------------------------------------------------------ *)
(* dmtcp_command *)

module Command = struct
  type state =
    | C_boot
    | C_connecting of int
    | C_sent of { fd : int; expect_reply : bool; buf : string }

  let name = command_name

  let encode _ _ = failwith "dmtcp:command is not checkpointable"
  let decode _ = failwith "dmtcp:command is not checkpointable"
  let init ~argv:_ = C_boot

  (* stdout of the status command, for tests *)
  let last_status : int option ref = ref None

  let request ctx =
    match (ctx : Simos.Program.ctx).argv with
    | _ :: "--checkpoint" :: _ | _ :: "-c" :: _ -> Some (Proto.cmd_checkpoint, false)
    | _ :: "--status" :: _ | _ :: "-s" :: _ -> Some (Proto.cmd_status, true)
    | _ :: "--quit" :: _ | _ :: "-q" :: _ -> Some (Proto.cmd_quit, false)
    | _ -> None

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | C_boot ->
      let fd = ctx.socket () in
      ignore (ctx.connect fd (coordinator_addr ctx));
      Simos.Program.Block (C_connecting fd, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
    | C_connecting fd -> (
      match ctx.sock_state fd with
      | Some Simnet.Fabric.Established -> (
        match request ctx with
        | None -> Simos.Program.Exit 64
        | Some (line, expect_reply) ->
          ignore (ctx.write_fd fd line);
          if expect_reply then
            Simos.Program.Block
              (C_sent { fd; expect_reply; buf = "" }, Simos.Program.Readable fd)
          else begin
            ctx.close_fd fd;
            Simos.Program.Exit 0
          end)
      | Some Simnet.Fabric.Connecting ->
        Simos.Program.Block (C_connecting fd, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
      | _ -> Simos.Program.Exit 1)
    | C_sent { fd; expect_reply; buf } -> (
      match ctx.read_fd fd ~max:4096 with
      | `Data d -> (
        let buf = buf ^ d in
        let lines, rest = Proto.split_lines buf in
        match List.find_map (fun l -> match Proto.parse l with Proto.Status_reply n -> Some n | _ -> None) lines with
        | Some n ->
          last_status := Some n;
          ctx.close_fd fd;
          Simos.Program.Exit 0
        | None ->
          Simos.Program.Block (C_sent { fd; expect_reply; buf = rest }, Simos.Program.Readable fd))
      | `Would_block -> Simos.Program.Block (C_sent { fd; expect_reply; buf }, Simos.Program.Readable fd)
      | `Eof | `Err _ -> Simos.Program.Exit 1)
end

let checkpoint_program = (module Checkpoint : Simos.Program.S)
let command_program = (module Command : Simos.Program.S)

let last_status = Command.last_status
