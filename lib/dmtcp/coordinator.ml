let name = "dmtcp:coordinator"

(* per-message handling cost of the centralized coordinator *)
let msg_cost = 20e-6

type client = {
  c_fd : int;
  mutable c_buf : string;
  mutable c_manager : bool;
  mutable c_upid : string;  (* from HELLO; labels per-client barrier traces *)
}

type state = {
  mutable phase : [ `Boot | `Run ];
  mutable listen_fd : int;
  mutable clients : client list;
  mutable counts : int array;          (* barrier arrival counts, 1-based *)
  mutable released : bool array;       (* barriers already released, 1-based *)
  mutable expected : int;              (* managers participating in this ckpt *)
  mutable in_ckpt : bool;
  mutable next_interval : float;
  mutable work : int;                  (* messages handled since last block *)
  mutable last_barrier_time : float;
  mutable port : int;                  (* bound port = this coordinator's domain *)
  mutable barrier_dirty : bool;
      (* barrier arrivals buffered since the last release scan: one
         engine wakeup drains every ready barrier instead of re-running
         the release scan per message *)
  mutable opts : Options.t;
      (* parsed from the environment once at boot: the env cannot change
         underneath a running process, and of_getenv on every tick was
         measurable overhead for interval-polling coordinators *)
}

module P = struct
  type nonrec state = state

  let name = name
  let encode _ _ = failwith "dmtcp:coordinator is not checkpointable"
  let decode _ = failwith "dmtcp:coordinator is not checkpointable"

  let init ~argv:_ =
    {
      phase = `Boot;
      listen_fd = -1;
      clients = [];
      counts = Array.make (Faults.nbarriers + 1) 0;
      released = Array.make (Faults.nbarriers + 1) false;
      expected = 0;
      in_ckpt = false;
      next_interval = infinity;
      work = 0;
      last_barrier_time = 0.;
      port = Options.default.Options.coord_port;
      barrier_dirty = false;
      opts = Options.default;
    }

  let send_line (ctx : Simos.Program.ctx) fd line =
    (* coordinator messages are short; buffer exhaustion is not expected *)
    match ctx.write_fd fd line with
    | Ok _ -> ()
    | Error _ -> ()

  let managers st = List.filter (fun c -> c.c_manager) st.clients

  let broadcast ctx st line = List.iter (fun c -> send_line ctx c.c_fd line) (managers st)

  let trace_coord (ctx : Simos.Program.ctx) name args =
    if Trace.on () then
      Trace.instant ~node:ctx.Simos.Program.node_id ~pid:ctx.Simos.Program.pid ~cat:"dmtcp"
        ~name ~args ~time:(ctx.now ()) ()

  let start_checkpoint (ctx : Simos.Program.ctx) st =
    if not st.in_ckpt then begin
      let rt = Runtime.of_ctx ctx in
      Runtime.note_ckpt_start ~port:st.port rt;
      st.in_ckpt <- true;
      Array.fill st.counts 0 (Array.length st.counts) 0;
      Array.fill st.released 0 (Array.length st.released) false;
      st.expected <- List.length (managers st);
      if st.expected = 0 then begin
        (* nothing to checkpoint *)
        st.in_ckpt <- false;
        Runtime.note_ckpt_end ~port:st.port rt
      end
      else begin
        trace_coord ctx "coord/ckpt-start" [ ("participants", string_of_int st.expected) ];
        st.work <- st.work + st.expected;
        st.last_barrier_time <- ctx.now ();
        broadcast ctx st Proto.do_checkpoint
      end
    end

  (* Release every barrier whose arrivals cover the surviving
     participants, in protocol order.  Re-run whenever an arrival lands
     or a participant dies: a death can retroactively satisfy the
     barrier the victim never reached. *)
  let try_release_barriers (ctx : Simos.Program.ctx) st =
    let continue = ref st.in_ckpt in
    let k = ref 1 in
    while !continue && !k <= Faults.nbarriers do
      let b = !k in
      if st.released.(b) then incr k
      else if st.counts.(b) >= st.expected then begin
        let rt = Runtime.of_ctx ctx in
        (* Table 1: stage durations are the times between the global
           barriers, measured here at the coordinator. *)
        let stage_name = Faults.span_name (Faults.closed_by b) in
        Faults.span ~node:ctx.node_id ~pid:ctx.pid stage_name ~since:st.last_barrier_time
          ~until:(ctx.now ());
        st.last_barrier_time <- ctx.now ();
        trace_coord ctx "coord/barrier-release"
          [ ("k", string_of_int b); ("stage", stage_name) ];
        broadcast ctx st (Proto.release b);
        st.released.(b) <- true;
        st.work <- st.work + st.expected;
        if b = Faults.nbarriers then begin
          st.in_ckpt <- false;
          trace_coord ctx "coord/ckpt-end" [];
          Runtime.note_ckpt_end ~port:st.port rt;
          continue := false
        end
        else incr k
      end
      else continue := false
    done;
    st.barrier_dirty <- false

  (* Flush buffered barrier arrivals before acting on anything that
     reads checkpoint-round state: a DO_CKPT command arriving in the
     same wakeup as the round's final barrier-5 must see that round
     released (in_ckpt = false), or the new round is silently lost. *)
  let flush_barriers ctx st = if st.barrier_dirty then try_release_barriers ctx st

  (* A manager died mid-checkpoint: shrink the participant set so the
     survivors are not wedged on barriers the victim will never reach.
     With nobody left, abort the round without declaring it complete —
     whatever images were recorded are a partial set. *)
  let drop_participant (ctx : Simos.Program.ctx) st =
    if st.in_ckpt then begin
      st.expected <- List.length (managers st);
      trace_coord ctx "coord/participant-lost" [ ("remaining", string_of_int st.expected) ];
      if st.expected = 0 then st.in_ckpt <- false else try_release_barriers ctx st
    end

  (* Returns true if any input was consumed. *)
  let pump_client (ctx : Simos.Program.ctx) st client =
    let progressed = ref false in
    let continue = ref true in
    while !continue do
      match ctx.read_fd client.c_fd ~max:4096 with
      | `Data d ->
        client.c_buf <- client.c_buf ^ d;
        progressed := true
      | `Eof ->
        (* manager's process died or command client closed *)
        ctx.close_fd client.c_fd;
        st.clients <- List.filter (fun c -> c.c_fd <> client.c_fd) st.clients;
        if client.c_manager then drop_participant ctx st;
        continue := false
      | `Would_block | `Err _ -> continue := false
    done;
    let lines, rest = Proto.split_lines client.c_buf in
    client.c_buf <- rest;
    List.iter
      (fun line ->
        st.work <- st.work + 1;
        match Proto.parse line with
        | Proto.Hello upid ->
          client.c_manager <- true;
          client.c_upid <- upid
        | Proto.Cmd_checkpoint ->
          flush_barriers ctx st;
          start_checkpoint ctx st
        | Proto.Cmd_status -> send_line ctx client.c_fd (Proto.status_reply (List.length (managers st)))
        | Proto.Cmd_quit -> raise Exit
        | Proto.Barrier k when k >= 1 && k <= Faults.nbarriers ->
          (* batched: only count the arrival here; the release scan runs
             once per wakeup (flush_barriers), not once per message *)
          st.counts.(k) <- st.counts.(k) + 1;
          st.barrier_dirty <- true;
          trace_coord ctx "coord/barrier-arrive"
            [
              ("k", string_of_int k);
              ("upid", client.c_upid);
              ("count", Printf.sprintf "%d/%d" st.counts.(k) st.expected);
            ]
        | Proto.Barrier _ | Proto.Do_checkpoint | Proto.Release _ | Proto.Status_reply _
        | Proto.Unknown _ ->
          ())
      lines;
    !progressed || lines <> []

  let step (ctx : Simos.Program.ctx) st =
    match st.phase with
    | `Boot ->
      st.opts <- Options.of_getenv ~base:(Runtime.options (Runtime.of_ctx ctx)) ctx.getenv;
      let port =
        match ctx.argv with
        | [ _; p ] -> ( try int_of_string p with _ -> Options.default.Options.coord_port)
        | _ -> st.opts.Options.coord_port
      in
      let fd = ctx.socket () in
      (match ctx.bind fd ~port with
      | Ok _ -> (
        match ctx.listen fd ~backlog:512 with
        | Ok () ->
          st.listen_fd <- fd;
          st.port <- port;
          st.phase <- `Run;
          (match st.opts.Options.interval with
          | Some i -> st.next_interval <- ctx.now () +. i
          | None -> ());
          Simos.Program.Continue st
        | Error _ -> Simos.Program.Exit 1)
      | Error Simos.Errno.EADDRINUSE ->
        (* another coordinator won the race; quietly defer to it *)
        Simos.Program.Exit 0
      | Error _ -> Simos.Program.Exit 1)
    | `Run -> (
      st.work <- 0;
      (* accept new clients *)
      let rec accept_all () =
        match ctx.accept st.listen_fd with
        | Some fd ->
          st.clients <- { c_fd = fd; c_buf = ""; c_manager = false; c_upid = "" } :: st.clients;
          st.work <- st.work + 1;
          accept_all ()
        | None -> ()
      in
      accept_all ();
      let progressed = List.exists Fun.id (List.map (pump_client ctx st) st.clients) in
      (* one release scan drains every barrier made ready this wakeup *)
      flush_barriers ctx st;
      (* interval checkpointing *)
      (match st.opts.Options.interval with
      | Some i when ctx.now () >= st.next_interval ->
        st.next_interval <- ctx.now () +. i;
        start_checkpoint ctx st
      | _ -> ());
      ignore progressed;
      let cost = float_of_int st.work *. msg_cost in
      if st.work > 0 then Simos.Program.Compute (st, cost)
      else begin
        let fds = st.listen_fd :: List.map (fun c -> c.c_fd) st.clients in
        match st.opts.Options.interval with
        | Some _ ->
          (* poll so interval checkpoints fire even when sockets are idle *)
          Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 0.05))
        | None -> Simos.Program.Block (st, Simos.Program.Readable_any fds)
      end)

  let step ctx st = try step ctx st with Exit -> Simos.Program.Exit 0
end

let () = Simos.Program.register (module P : Simos.Program.S)
