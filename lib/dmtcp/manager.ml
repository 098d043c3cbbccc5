let name = "dmtcp:mgr"

type drain_item = {
  d_fd : int;
  d_entry : Conn_table.entry;
  mutable d_stash : string;     (* received bytes, token included at end *)
  mutable d_token_sent : int;   (* bytes of the flush token already sent *)
  mutable d_done : bool;
}

type phase =
  | P_boot
  | P_connecting of int  (* connect retries left *)
  | P_idle
  | P_stage of Faults.stage  (* enter the stage, then run it *)
  | P_barrier of int  (* awaiting RELEASE k *)
  | P_drain  (* stage 4: awaiting the peers' flush tokens *)
  | P_write_durable of (unit -> float * (unit -> unit))
      (* image compressed: book its durable write, block until it lands *)
  | P_finish of Faults.stage * (unit -> unit)
      (* the stage's last delay has passed: commit, then exit the stage *)

type state = {
  mutable coord_fd : int;
  mutable buf : string;
  mutable phase : phase;
  mutable drains : drain_item list;
  mutable coord_eof : bool;  (* coordinator hung up on us *)
  mutable opts : Options.t;  (* parsed from the environment once, at boot *)
}

module P = struct
  type nonrec state = state

  let name = name
  let encode _ _ = failwith "dmtcp:mgr is not checkpointable (recreated at restart)"
  let decode _ = failwith "dmtcp:mgr is not checkpointable (recreated at restart)"

  let init ~argv:_ =
    {
      coord_fd = -1;
      buf = "";
      phase = P_boot;
      drains = [];
      coord_eof = false;
      opts = Options.default;
    }

  (* -------------------------------------------------------------- *)
  (* helpers *)

  let rt = Runtime.of_ctx

  let m_drained = Trace.Metrics.counter "dmtcp.drained_bytes"

  (* one instant per protocol phase entry, next to the fault hook *)
  let trace_phase (ctx : Simos.Program.ctx) name args =
    if Trace.on () then
      Trace.instant ~node:ctx.Simos.Program.node_id ~pid:ctx.Simos.Program.pid ~cat:"dmtcp"
        ~name:("mgr/" ^ name) ~args ~time:(ctx.now ()) ()

  (* plugin dispatch, co-located with the fault/trace instrumentation:
     [dispatch ctx Plugins.<site> args] runs one site over the enabled
     plugins at this process's node, pid and time *)
  let dispatch (ctx : Simos.Program.ctx) (site : _ Plugins.dispatcher) =
    site (Runtime.plugins (rt ctx)) ~node:ctx.node_id ~pid:ctx.pid ~now:(ctx.now ())

  (* Stage entry, in one place: the fault hook, the mgr/<stage> instant
     and the pre- plugin hook. *)
  let enter_stage (ctx : Simos.Program.ctx) stage =
    Runtime.notify (rt ctx) ~node:ctx.node_id ~pid:ctx.pid stage;
    (match stage with
    | Faults.Barrier k -> trace_phase ctx "barrier" [ ("k", string_of_int k) ]
    | _ -> trace_phase ctx (Faults.stage_name stage) []);
    dispatch ctx Plugins.stage `Pre stage

  (* Stage exit, in one place: the post- plugin hook, then what the
     protocol order puts next — the barrier after a stage, the stage a
     barrier releases into, idle after the last stage. *)
  let exit_stage ctx st stage =
    dispatch ctx Plugins.stage `Post stage;
    st.phase <- (match Faults.next stage with Some next -> P_stage next | None -> P_idle);
    st

  let my_kernel (ctx : Simos.Program.ctx) = Runtime.kernel_of (rt ctx) ~node:ctx.node_id

  let my_proc (ctx : Simos.Program.ctx) =
    match Runtime.proc_of (rt ctx) ~node:ctx.node_id ~pid:ctx.pid with
    | Some p -> p
    | None -> failwith "dmtcp:mgr: own process not found"

  let my_pstate (ctx : Simos.Program.ctx) =
    match Runtime.pstate_of (rt ctx) ~node:ctx.node_id ~pid:ctx.pid with
    | Some ps -> ps
    | None -> failwith "dmtcp:mgr: own pstate not found"

  let desc_socket (ctx : Simos.Program.ctx) fd =
    match Simos.Kernel.fd_desc (my_proc ctx) fd with
    | Some { Simos.Fdesc.kind = Simos.Fdesc.Sock s; _ } -> Some s
    | _ -> None

  (* read whatever the coordinator sent and return complete lines *)
  let pump_coord (ctx : Simos.Program.ctx) st =
    let continue = ref true in
    while !continue do
      match ctx.read_fd st.coord_fd ~max:4096 with
      | `Data d -> st.buf <- st.buf ^ d
      | `Eof ->
        st.coord_eof <- true;
        continue := false
      | `Err _ | `Would_block -> continue := false
    done;
    let lines, rest = Proto.split_lines st.buf in
    st.buf <- rest;
    lines

  let send_coord (ctx : Simos.Program.ctx) st line = ignore (ctx.write_fd st.coord_fd line)

  let coord_addr st =
    Simnet.Addr.Inet { host = st.opts.Options.coord_host; port = st.opts.Options.coord_port }

  (* A stage may have to wait before it starts: suspend while the
     application holds a dmtcpaware critical section; write while the
     previous forked child's image is still in flight (at most one
     outstanding child, so a delta's base is durable before anything
     references it). *)
  let stage_ready ctx = function
    | Faults.Suspend -> (my_pstate ctx).Runtime.critical = 0
    | Faults.Write -> not (my_pstate ctx).Runtime.forked_pending
    | _ -> true

  (* Established sockets with a connection-table entry whose leader we
     are.  Peers under checkpoint control drain with the flush-token
     handshake; a socket whose peer already closed (process exited or fd
     closed — the FIN is delivered or still in flight) is an "orphan":
     it is drained to EOF without a token, and the EOF itself is
     recorded so the restarted stream ends where the real one did. *)
  let leader_fds (ctx : Simos.Program.ctx) =
    let ps = my_pstate ctx in
    Conn_table.unique_descs ps.Runtime.conns
    |> List.filter_map (fun (fd, entry) ->
           match desc_socket ctx fd with
           | Some s
             when Simnet.Fabric.state s = Simnet.Fabric.Established
                  && ctx.get_fd_owner fd = ctx.pid ->
             if Runtime.peer_entry (rt ctx) s <> None then Some (fd, entry, `Peer)
             else if Simnet.Fabric.peer_gone s then Some (fd, entry, `Orphan)
             else None
           | _ -> None)

  let token = Proto.drain_token
  let token_len = String.length token

  let ends_with_token s =
    String.length s >= token_len && String.sub s (String.length s - token_len) token_len = token

  (* -------------------------------------------------------------- *)
  (* checkpoint image construction *)

  (* incremental mode: the deepest delta chain before the next
     checkpoint is written as a full image again, bounding restart's
     chain-resolution work *)
  let delta_chain = 8

  let build_image (ctx : Simos.Program.ctx) st =
    let proc = my_proc ctx in
    let ps = my_pstate ctx in
    let opts = st.opts in
    let mtcp_image = Mtcp.Image.capture proc in
    (* image-write hook: runs on the captured snapshot before sizing and
       encoding, so whatever plugins mutate is exactly what lands on
       disk (ext-shm zeroes external-service shared segments here) *)
    dispatch ctx Plugins.image_write mtcp_image;
    (* chain this checkpoint onto the previous image when incremental
       deltas are enabled and the chain is still short enough; a reset
       (None) writes a self-contained full image *)
    let delta_base =
      if opts.Options.incremental then
        match ps.Runtime.delta_prev with
        | Some (base, depth) when depth < delta_chain -> Some base
        | _ -> None
      else None
    in
    let price, encode =
      match delta_base with
      | Some _ -> (Mtcp.Image.delta_sizes, Mtcp.Image.encode_delta)
      | None -> (Mtcp.Image.sizes, Mtcp.Image.encode)
    in
    let sizes = price opts.Options.algo mtcp_image in
    let mtcp_blob = encode ~algo:opts.Options.algo mtcp_image in
    if opts.Options.incremental then
      (* the capture snapshot above kept the pre-clear bits (that is what
         the delta encoder read); from here on the live space accumulates
         dirt relative to THIS checkpoint *)
      Mem.Address_space.clear_dirty proc.Simos.Kernel.space;
    let pty_records = Hashtbl.create 4 in
    let classify fd (desc : Simos.Fdesc.t) entry =
      match desc.Simos.Fdesc.kind with
      | Simos.Fdesc.File { file; offset } ->
        Some (Ckpt_image.FFile { path = Simos.Vfs.path_of file; offset })
      | Simos.Fdesc.Sock s -> (
        match entry with
        | None -> None (* DMTCP-internal socket (coordinator link) *)
        | Some entry ->
          let state =
            match Simnet.Fabric.state s with
            | Simnet.Fabric.Established -> Ckpt_image.S_established
            | Simnet.Fabric.Listening ->
              let port, unix_path =
                match Simnet.Fabric.local_addr s with
                | Some (Simnet.Addr.Inet { port; _ }) -> (Some port, None)
                | Some (Simnet.Addr.Unix { path; _ }) -> (None, Some path)
                | None -> (None, None)
              in
              (* capture the real backlog so restart's re-listen
                 restores it faithfully *)
              Ckpt_image.S_listening { port; unix_path; backlog = Simnet.Fabric.backlog s }
            | _ -> Ckpt_image.S_other
          in
          Some
            (Ckpt_image.FSock
               {
                 state;
                 kind = entry.Conn_table.kind;
                 role = entry.Conn_table.role;
                 conn_id = entry.Conn_table.conn_id;
                 drained = entry.Conn_table.drained;
                 eof = entry.Conn_table.eof;
               }))
      | Simos.Fdesc.Pty_m p | Simos.Fdesc.Pty_s p ->
        let master =
          match desc.Simos.Fdesc.kind with Simos.Fdesc.Pty_m _ -> true | _ -> false
        in
        let pty_key = Simos.Pty.id p in
        if not (Hashtbl.mem pty_records pty_key) then begin
          let tio = Simos.Pty.termios p in
          let to_slave, to_master =
            Option.value ~default:("", "") (Hashtbl.find_opt ps.Runtime.pty_drains pty_key)
          in
          Hashtbl.replace pty_records pty_key
            {
              Ckpt_image.pty_key;
              pr_name = Simos.Pty.ptsname p;
              icanon = tio.Simos.Pty.icanon;
              echo = tio.Simos.Pty.echo;
              isig = tio.Simos.Pty.isig;
              baud = tio.Simos.Pty.baud;
              drained_to_slave = to_slave;
              drained_to_master = to_master;
            }
        end;
        ignore fd;
        Some (Ckpt_image.FPty { master; pty_key })
      | Simos.Fdesc.Pipe_r _ | Simos.Fdesc.Pipe_w _ ->
        (* pipes are promoted to socketpairs under DMTCP; a raw
           pipe here predates hijacking and is dropped *)
        None
    in
    let fds =
      ctx.fds ()
      |> List.filter_map (fun fd ->
             match Simos.Kernel.fd_desc proc fd with
             | None -> None
             | Some desc ->
               let key = desc.Simos.Fdesc.desc_id in
               let entry =
                 match desc.Simos.Fdesc.kind with
                 | Simos.Fdesc.Sock _ -> Conn_table.find ps.Runtime.conns ~fd
                 | _ -> None
               in
               (* fd-capture hook: plugins may rewrite the classification
                  about to enter the image (blacklist-ports demotes
                  established service connections to S_other) or drop
                  the fd entirely *)
               dispatch ctx Plugins.fd_capture desc (classify fd desc entry)
               |> Option.map (fun info -> (fd, key, info)))
    in
    let parent_vpid =
      match Runtime.pstate_of (rt ctx) ~node:ctx.node_id ~pid:(ctx.ppid ()) with
      | Some parent_ps -> parent_ps.Runtime.vpid
      | None -> 0
    in
    let image =
      {
        Ckpt_image.upid = ps.Runtime.upid;
        vpid = ps.Runtime.vpid;
        parent_vpid;
        program = (match proc.Simos.Kernel.cmdline with p :: _ -> p | [] -> "a.out");
        fds;
        ptys = Hashtbl.fold (fun _ p acc -> p :: acc) pty_records [];
        algo = opts.Options.algo;
        sizes;
        delta_base;
        mtcp_blob;
      }
    in
    (* Incremental checkpoints get a unique per-checkpoint filename: an
       interval checkpoint overwriting its predecessor in place would
       destroy the base a live delta chain still resolves through. *)
    let fname =
      if opts.Options.incremental then begin
        let seq = ps.Runtime.ckpt_seq in
        ps.Runtime.ckpt_seq <- seq + 1;
        Ckpt_image.filename ~seq image
      end
      else Ckpt_image.filename image
    in
    if opts.Options.incremental then begin
      let depth =
        match (delta_base, ps.Runtime.delta_prev) with
        | Some _, Some (_, d) -> d + 1
        | _ -> 0
      in
      ps.Runtime.delta_prev <- Some (fname, depth)
    end;
    (image, fname)

  (* The one durable write: books the image's write now and returns the
     delay until it is durable and the commit to run when it lands.  A
     store put (chunked at DMZ2 frame boundaries, deduped, replicated) is
     durable at its write quorum — replication is the durability, so no
     flat file and no sync.  A flat file is durable once the target write
     and, inline, DMTCP_SYNC's sync complete.  Inline checkpoints jitter
     the write's delay; a forked child's write takes it as booked.  The
     commit ages out generations beyond retention: catalog manifests
     under the store, flat image files without it. *)
  let durable_write (ctx : Simos.Program.ctx) st ~inline ~path ~bytes (image : Ckpt_image.t) =
    let settle dt = if inline then Mtcp.Cost.jitter ctx.rng dt else dt in
    let sim = image.Ckpt_image.sizes.Mtcp.Image.compressed in
    let upid = image.Ckpt_image.upid in
    match Runtime.store (rt ctx) with
    | Some store ->
      let lineage = Upid.lineage upid in
      let delay =
        Store.put store ?base:image.Ckpt_image.delta_base ~node:ctx.node_id ~lineage
          ~generation:upid.Upid.generation ~name:(Filename.basename path)
          ~program:image.Ckpt_image.program ~sim_bytes:sim ~chunks:(Ckpt_image.chunk bytes)
      in
      (settle delay, fun () -> ignore (Store.gc_lineage store ~lineage))
    | None ->
      let storage = Simos.Kernel.storage (my_kernel ctx) in
      let delay = settle (Storage.Target.write storage ~bytes:sim) in
      let sync = if inline && st.opts.Options.sync_after then Storage.Target.sync storage else 0. in
      ( delay +. sync,
        fun () ->
          let f = Simos.Vfs.open_or_create (Simos.Kernel.vfs (my_kernel ctx)) path in
          Simos.Vfs.truncate f;
          Simos.Vfs.append f bytes;
          Simos.Vfs.set_sim_size f sim;
          Runtime.prune_images (rt ctx) ~node:ctx.node_id ~path ~upid )

  (* -------------------------------------------------------------- *)
  (* the state machine: the stages in Faults' protocol order, each
     entered and exited through enter_stage / exit_stage *)

  let rec step (ctx : Simos.Program.ctx) st =
    match st.phase with
    | P_boot -> (
      st.coord_fd <- ctx.socket ();
      st.opts <- Options.of_getenv ~base:(Runtime.options (rt ctx)) ctx.getenv;
      match ctx.connect st.coord_fd (coord_addr st) with
      | Ok () ->
        st.phase <- P_connecting 100;
        Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
      | Error _ -> Simos.Program.Exit 1)
    | P_connecting retries -> (
      match ctx.sock_state st.coord_fd with
      | Some Simnet.Fabric.Established ->
        let ps = my_pstate ctx in
        send_coord ctx st (Proto.hello ps.Runtime.upid);
        st.phase <- P_idle;
        Simos.Program.Continue st
      | Some Simnet.Fabric.Connecting ->
        Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
      | _ when retries > 0 ->
        (* coordinator not up yet: retry *)
        ctx.close_fd st.coord_fd;
        st.coord_fd <- ctx.socket ();
        ignore (ctx.connect st.coord_fd (coord_addr st));
        st.phase <- P_connecting (retries - 1);
        Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 10e-3))
      | _ -> Simos.Program.Exit 1)
    | P_idle -> (
      let lines = pump_coord ctx st in
      let ckpt_requested = List.exists (fun l -> Proto.parse l = Proto.Do_checkpoint) lines in
      if ckpt_requested then begin
        st.phase <- P_stage (List.hd Faults.stages);
        Simos.Program.Continue st
      end
      else if st.coord_eof then
        (* The coordinator hung up.  Without it the computation can be
           neither checkpointed nor coherently restarted: fail stop (the
           harness restarts from the last completed images).  Exiting
           also avoids a same-instant wake loop — a peer-closed socket
           stays readable forever. *)
        Simos.Program.Exit 0
      else
        match ctx.sock_state st.coord_fd with
        | Some Simnet.Fabric.Established ->
          Simos.Program.Block (st, Simos.Program.Readable st.coord_fd)
        | _ -> Simos.Program.Exit 0)
    | P_stage stage when not (stage_ready ctx stage) ->
      Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
    | P_stage stage ->
      enter_stage ctx stage;
      run_stage ctx st stage
    | P_barrier k -> (
      let lines = pump_coord ctx st in
      if List.exists (fun l -> Proto.parse l = Proto.Release k) lines then
        Simos.Program.Continue (exit_stage ctx st (Faults.Barrier k))
      else if st.coord_eof then
        (* coordinator died mid-checkpoint: the barrier will never be
           released; fail stop with user threads still suspended *)
        Simos.Program.Exit Exit_code.manager_failed
      else
        match ctx.sock_state st.coord_fd with
        | Some Simnet.Fabric.Established ->
          Simos.Program.Block (st, Simos.Program.Readable st.coord_fd)
        | _ -> Simos.Program.Exit 0)
    | P_drain -> drain_work ctx st
    | P_write_durable write ->
      let delay, commit = write () in
      st.phase <- P_finish (Faults.Write, commit);
      Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. delay))
    | P_finish (stage, commit) ->
      commit ();
      Simos.Program.Continue (exit_stage ctx st stage)

  (* One stage's work, right after its entry.  It ends in exit_stage,
     at once or after the stage's last delay (P_finish). *)
  and run_stage (ctx : Simos.Program.ctx) st = function
    | Faults.Suspend ->
      (* stage 2: suspend user threads *)
      let proc = my_proc ctx in
      (match proc.Simos.Kernel.cmdline with
      | prog :: _ -> Dmtcpaware.run_pre_ckpt (rt ctx) ~prog
      | [] -> ());
      Simos.Kernel.suspend_user_threads (my_kernel ctx) proc;
      let st = exit_stage ctx st Faults.Suspend in
      let nthreads = List.length proc.Simos.Kernel.threads in
      Simos.Program.Compute (st, Mtcp.Cost.suspend_seconds ~nthreads)
    | Faults.Barrier k ->
      send_coord ctx st (Proto.barrier k);
      st.phase <- P_barrier k;
      Simos.Program.Continue st
    | Faults.Elect ->
      (* stage 3: elect shared-FD leaders by misusing F_SETOWN — every
         process sharing the description sets the owner; the last one
         wins *)
      let ps = my_pstate ctx in
      let entries = Conn_table.entries ps.Runtime.conns in
      List.iter
        (fun (fd, (entry : Conn_table.entry)) ->
          entry.Conn_table.saved_owner <- ctx.get_fd_owner fd;
          ctx.set_fd_owner fd ctx.pid)
        entries;
      let st = exit_stage ctx st Faults.Elect in
      Simos.Program.Compute (st, Mtcp.Cost.elect_seconds ~nfds:(List.length entries))
    | Faults.Drain ->
      (* stage 4: pick the sockets we lead.  The drain-select hook lets
         plugins exclude connections whose peer is outside checkpoint
         control (blacklisted service ports): a skipped connection sends
         no flush token and stashes nothing.  The injected skip-drain bug
         picks none, leaving whatever the kernel buffers held out of the
         image and still in the buffers at write time. *)
      let leaders =
        if !Faults.bug_skip_drain then []
        else
          leader_fds ctx
          |> List.filter (fun (fd, _, _) ->
                 match desc_socket ctx fd with
                 | Some sock -> not (dispatch ctx Plugins.drain_select sock)
                 | None -> true)
      in
      st.drains <-
        List.map
          (fun (fd, entry, mode) ->
            {
              d_fd = fd;
              d_entry = entry;
              d_stash = "";
              (* no flush token for an orphan: nobody will read it *)
              d_token_sent = (match mode with `Orphan -> token_len | `Peer -> 0);
              d_done = false;
            })
          leaders;
      drain_work ctx st
    | Faults.Write -> write_stage ctx st
    | Faults.Refill ->
      (* stage 6: re-inject drained socket data and pty buffers, restore
         the original F_SETOWN owners *)
      let ps = my_pstate ctx in
      List.iter
        (fun d ->
          (match desc_socket ctx d.d_fd with
          | Some s ->
            if d.d_entry.Conn_table.drained <> "" && not !Faults.bug_drop_refill then
              Simnet.Fabric.inject_recv s d.d_entry.Conn_table.drained
          | None -> ());
          ctx.set_fd_owner d.d_fd d.d_entry.Conn_table.saved_owner)
        st.drains;
      let proc = my_proc ctx in
      Hashtbl.iter
        (fun pty_key (to_slave, to_master) ->
          Simos.Kernel.Fdtbl.iter
            (fun _ (desc : Simos.Fdesc.t) ->
              match desc.Simos.Fdesc.kind with
              | Simos.Fdesc.Pty_m p when Simos.Pty.id p = pty_key ->
                Simos.Pty.refill p ~to_slave ~to_master
              | _ -> ())
            proc.Simos.Kernel.fdtable)
        ps.Runtime.pty_drains;
      st.phase <- P_finish (Faults.Refill, ignore);
      (* retransmission cost of sending drained data back (about one RTT) *)
      Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 3e-4))
    | Faults.Resume ->
      (* stage 7: resume user threads and return to normal execution *)
      let ps = my_pstate ctx in
      Hashtbl.reset ps.Runtime.pty_drains;
      st.drains <- [];
      let proc = my_proc ctx in
      Simos.Kernel.resume_user_threads (my_kernel ctx) proc;
      (match proc.Simos.Kernel.cmdline with
      | prog :: _ -> Dmtcpaware.run_post_ckpt (rt ctx) ~prog
      | [] -> ());
      Simos.Program.Continue (exit_stage ctx st Faults.Resume)
    | Faults.(Files | Reconnect | Mem | Restart _) as stage ->
      invalid_arg ("dmtcp:mgr: not a checkpoint stage: " ^ Faults.stage_name stage)

  (* stage 5: write the checkpoint image.  Inline, the manager pays the
     compression, then blocks until the durable write lands.  Forked
     (paper §5.3), it pays only the copy-on-write snapshot: a background
     "child" compresses and writes while the computation resumes, and
     the image lands later. *)
  and write_stage (ctx : Simos.Program.ctx) st =
    let opts = st.opts in
    let image, fname = build_image ctx st in
    let bytes = Ckpt_image.encode image in
    let sizes = image.Ckpt_image.sizes in
    let path = Printf.sprintf "%s/%s" opts.Options.ckpt_dir fname in
    let compress_cost =
      Mtcp.Cost.jitter ctx.rng
        (Compress.Model.compress_seconds ~algo:opts.Options.algo
           ~bytes:sizes.Mtcp.Image.uncompressed ~zero_bytes:sizes.Mtcp.Image.zero_bytes)
    in
    Runtime.record_image ~port:opts.Options.coord_port (rt ctx) ~node:ctx.node_id ~path ~sizes;
    (match image.Ckpt_image.delta_base with
    | Some base ->
      (* delta checkpoint: a span over the compression that starts now,
         inline or in the forked child, plus frame/byte counters so
         traces show what the fast path shipped *)
      let frames =
        match Compress.Container.frame_bounds image.Ckpt_image.mtcp_blob with
        | Some bounds -> List.length bounds
        | None -> 1
      in
      if Trace.on () then begin
        Trace.span ~node:ctx.node_id ~pid:ctx.pid ~cat:"dmtcp" ~name:"ckpt/delta"
          ~time:(ctx.now ()) ~dur:compress_cost ();
        Trace.instant ~node:ctx.node_id ~pid:ctx.pid ~cat:"dmtcp" ~name:"ckpt/delta-base"
          ~args:[ ("base", base) ] ~time:(ctx.now ()) ();
        Trace.counter ~node:ctx.node_id ~pid:ctx.pid ~cat:"dmtcp" ~name:"ckpt/delta-frames"
          ~time:(ctx.now ())
          (float_of_int frames);
        Trace.counter ~node:ctx.node_id ~pid:ctx.pid ~cat:"dmtcp" ~name:"ckpt/delta-bytes"
          ~time:(ctx.now ())
          (float_of_int (String.length bytes))
      end;
      Trace.Metrics.incr (Trace.Metrics.counter "dmtcp.delta_ckpts");
      Trace.Metrics.add
        (Trace.Metrics.counter "dmtcp.delta_bytes")
        (float_of_int (String.length bytes))
    | None -> ());
    let write ~inline () = durable_write ctx st ~inline ~path ~bytes image in
    if opts.Options.forked then begin
      let pages =
        Mem.Address_space.total_bytes (my_proc ctx).Simos.Kernel.space / Mem.Page.size
      in
      let eng = Simos.Kernel.engine (my_kernel ctx) in
      let ps = my_pstate ctx in
      ps.Runtime.forked_pending <- true;
      ignore
        (Sim.Engine.schedule eng ~delay:compress_cost (fun () ->
             let delay, commit = write ~inline:false () in
             ignore
               (Sim.Engine.schedule eng ~delay (fun () ->
                    commit ();
                    ps.Runtime.forked_pending <- false))));
      let st = exit_stage ctx st Faults.Write in
      Simos.Program.Compute (st, Mtcp.Cost.snapshot_seconds ~pages)
    end
    else begin
      st.phase <- P_write_durable (write ~inline:true);
      Simos.Program.Compute (st, compress_cost)
    end

  (* stage 4 inner loop: push flush tokens out, then receive until each
     socket's stash ends with the peer's token *)
  and drain_work (ctx : Simos.Program.ctx) st =
    List.iter
      (fun d ->
        if not d.d_done then begin
          (* finish sending our flush token *)
          if d.d_token_sent < token_len then begin
            let rest = String.sub token d.d_token_sent (token_len - d.d_token_sent) in
            match ctx.write_fd d.d_fd rest with
            | Ok n -> d.d_token_sent <- d.d_token_sent + n
            | Error _ -> d.d_token_sent <- token_len
          end;
          (* drain incoming data until the peer's token appears *)
          let reading = ref true in
          while !reading do
            match ctx.read_fd d.d_fd ~max:65536 with
            | `Data data ->
              d.d_stash <- d.d_stash ^ data;
              if ends_with_token d.d_stash then begin
                d.d_entry.Conn_table.drained <-
                  String.sub d.d_stash 0 (String.length d.d_stash - token_len);
                d.d_done <- true;
                reading := false
              end
            | `Eof ->
              (* peer closed: whatever we got is the drained data, and
                 the restored stream must end in EOF right after it *)
              d.d_entry.Conn_table.drained <- d.d_stash;
              d.d_entry.Conn_table.eof <- true;
              d.d_done <- true;
              reading := false
            | `Would_block | `Err _ -> reading := false
          done
        end)
      st.drains;
    if List.for_all (fun d -> d.d_done) st.drains then begin
      drain_finished ctx st;
      Simos.Program.Continue (exit_stage ctx st Faults.Drain)
    end
    else begin
      let pending = List.filter (fun d -> not d.d_done) st.drains in
      st.phase <- P_drain;
      Simos.Program.Block (st, Simos.Program.Readable_any (List.map (fun d -> d.d_fd) pending))
    end

  (* pty draining and peer handshakes at the end of stage 4 *)
  and drain_finished (ctx : Simos.Program.ctx) st =
    let drained_bytes =
      List.fold_left
        (fun acc d -> acc + String.length d.d_entry.Conn_table.drained)
        0 st.drains
    in
    if drained_bytes > 0 then Trace.Metrics.add m_drained (float_of_int drained_bytes);
    if Trace.on () then
      Trace.counter ~node:ctx.Simos.Program.node_id ~pid:ctx.Simos.Program.pid ~cat:"dmtcp"
        ~name:"mgr/drained-bytes" ~time:(ctx.now ())
        (float_of_int drained_bytes);
    let ps = my_pstate ctx in
    let proc = my_proc ctx in
    (* drain ptys we hold the master side of *)
    Simos.Kernel.Fdtbl.iter
      (fun _ (desc : Simos.Fdesc.t) ->
        match desc.Simos.Fdesc.kind with
        | Simos.Fdesc.Pty_m p ->
          let key = Simos.Pty.id p in
          if not (Hashtbl.mem ps.Runtime.pty_drains key) then begin
            let to_slave, to_master = Simos.Pty.drain p in
            Hashtbl.replace ps.Runtime.pty_drains key (to_slave, to_master)
          end
        | _ -> ())
      proc.Simos.Kernel.fdtable;
    (* peer handshake: both ends agree on the connector's globally unique
       ID (paper §4.3 step 4 / §4.4 step 2) *)
    List.iter
      (fun (fd, (entry : Conn_table.entry)) ->
        match desc_socket ctx fd with
        | Some s when entry.Conn_table.role = Conn_table.Acceptor -> (
          match Runtime.peer_entry (rt ctx) s with
          | Some (_, peer) -> entry.Conn_table.conn_id <- peer.Conn_table.conn_id
          | None -> ())
        | _ -> ())
      (Conn_table.entries ps.Runtime.conns)

  let step ctx st =
    try step ctx st
    with e ->
      ctx.log (Printf.sprintf "dmtcp:mgr crashed: %s" (Printexc.to_string e));
      Simos.Program.Exit Exit_code.manager_failed
end

let () = Simos.Program.register (module P : Simos.Program.S)
