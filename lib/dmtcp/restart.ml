let name = "dmtcp:restart"

let m_parallel = Trace.Metrics.gauge "rst.parallel"
let m_lazy_absent = Trace.Metrics.counter "rst.lazy_absent_pages"
let m_prefetched = Trace.Metrics.counter "rst.prefetch_pages"

(* A connection endpoint to restore, deduplicated by (image, desc_key). *)
type conn_spec = {
  cs_key : string;            (* discovery key: the connection's unique id *)
  cs_desc_key : int;          (* original description id, scoped per image *)
  cs_acceptor : bool;         (* Acceptor / Pair_a side advertises *)
  mutable cs_desc : Simos.Fdesc.t option;  (* restored socket description *)
  cs_drained : string;
  cs_eof : bool;  (* peer closed pre-checkpoint; no peer will reconnect *)
}

type pending_accept = { pa_fd : int; mutable pa_buf : string }

type connecting = {
  co_fd : int;
  co_key : string;
  co_spec : conn_spec;
  mutable co_sent : bool;
}

(* Where the restarter is in Faults.restart_stages. *)
type phase =
  | Boot
  | Enter of Faults.stage  (* enter the stage, then run its work *)
  | Wait of Faults.stage  (* poll the stage's wait *)
  | Finish of Faults.stage  (* the stage's last delay has passed: exit it *)

type state = {
  mutable phase : phase;
  (* images to restore; a delta image carries its chain-resolved mtcp
     body (reconstructed against its bases at boot), a full image is
     decoded lazily at materialize so per-block CRC damage is still
     caught by the fork stage *)
  mutable images : (Ckpt_image.t * Mtcp.Image.t option) list;
  mutable chain_bases : Ckpt_image.t list;
      (* base images read while resolving delta chains, for restore-cost
         accounting *)
  mutable specs : conn_spec list;
  (* desc_key -> restored description (description ids are cluster-unique) *)
  desc_map : (int, Simos.Fdesc.t) Hashtbl.t;
  pty_map : (int, Simos.Pty.t) Hashtbl.t;
  mutable listen_fd : int;
  mutable pending_accepts : pending_accept list;
  mutable connectors : connecting list;
  mutable restored : (Ckpt_image.t * Simos.Kernel.process) list;
  mutable since : float;  (* the last stage's exit (boot for the first): the span start *)
  mutable local_read_bytes : int;  (* modeled bytes of images read from local files *)
  mutable store_read_delay : float;  (* booked catalog/replica read time (store mode) *)
  mutable lazy_page_cost : float;
      (* lazy restore: modeled seconds to fault in one absent page;
         0. = eager restore (no pager, no prefetcher) *)
  mutable opts : Options.t;  (* parsed from the environment once, at boot *)
}

module P = struct
  type nonrec state = state

  let name = name
  let encode _ _ = failwith "dmtcp:restart is not checkpointable"
  let decode _ = failwith "dmtcp:restart is not checkpointable"

  let init ~argv:_ =
    {
      phase = Boot;
      images = [];
      chain_bases = [];
      specs = [];
      desc_map = Hashtbl.create 16;
      pty_map = Hashtbl.create 4;
      listen_fd = -1;
      pending_accepts = [];
      connectors = [];
      restored = [];
      since = 0.;
      local_read_bytes = 0;
      store_read_delay = 0.;
      lazy_page_cost = 0.;
      opts = Options.default;
    }

  let rt = Runtime.of_ctx
  let my_kernel (ctx : Simos.Program.ctx) = Runtime.kernel_of (rt ctx) ~node:ctx.node_id

  (* The restart wave's coordinator domain: every per-wave record (op
     info, refill barrier, shm registry, discovery keys) is scoped to
     this port so concurrent waves of different jobs never interfere. *)
  let my_port st = st.opts.Options.coord_port

  let trace_rst (ctx : Simos.Program.ctx) name args =
    if Trace.on () then
      Trace.instant ~node:ctx.Simos.Program.node_id ~pid:ctx.Simos.Program.pid ~cat:"dmtcp"
        ~name:("rst/" ^ name) ~args ~time:(ctx.now ()) ()

  let fd_sock (ctx : Simos.Program.ctx) fd =
    match Simos.Kernel.fd_desc (Option.get (Runtime.proc_of (rt ctx) ~node:ctx.node_id ~pid:ctx.pid)) fd with
    | Some ({ Simos.Fdesc.kind = Simos.Fdesc.Sock s; _ } as desc) -> Some (s, desc)
    | _ -> None

  (* ---------------------------------------------------------------- *)
  (* step 1: files and ptys *)

  let restore_files_and_ptys (ctx : Simos.Program.ctx) st =
    let k = my_kernel ctx in
    List.iter
      (fun ((img : Ckpt_image.t), _) ->
        (* ptys first so slave/master fds can reference them *)
        List.iter
          (fun (p : Ckpt_image.pty_record) ->
            if not (Hashtbl.mem st.pty_map p.Ckpt_image.pty_key) then begin
              let pty = Simos.Kernel.make_pty k in
              Simos.Pty.set_termios pty
                {
                  Simos.Pty.icanon = p.Ckpt_image.icanon;
                  echo = p.Ckpt_image.echo;
                  isig = p.Ckpt_image.isig;
                  baud = p.Ckpt_image.baud;
                };
              Simos.Pty.refill pty ~to_slave:p.Ckpt_image.drained_to_slave
                ~to_master:p.Ckpt_image.drained_to_master;
              Hashtbl.replace st.pty_map p.Ckpt_image.pty_key pty
            end)
          img.Ckpt_image.ptys;
        List.iter
          (fun (_, desc_key, info) ->
            if not (Hashtbl.mem st.desc_map desc_key) then
              match info with
              | Ckpt_image.FFile { path; offset } ->
                (* regular files are reopened by path; on a migration
                   target the file may be absent and is created empty, as
                   with a fresh NFS mount *)
                let file = Simos.Vfs.open_or_create (Simos.Kernel.vfs k) path in
                let offset = min offset (Simos.Vfs.length file) in
                Hashtbl.replace st.desc_map desc_key
                  (Simos.Kernel.make_desc k (Simos.Fdesc.File { file; offset }))
              | Ckpt_image.FPty { master; pty_key } ->
                let pty = Hashtbl.find st.pty_map pty_key in
                let kind = if master then Simos.Fdesc.Pty_m pty else Simos.Fdesc.Pty_s pty in
                Hashtbl.replace st.desc_map desc_key (Simos.Kernel.make_desc k kind)
              | Ckpt_image.FSock { state = Ckpt_image.S_listening { port; unix_path; backlog }; _ }
                ->
                (* listen sockets are rebound directly; if the original
                   port is taken on the new host, fall back to ephemeral *)
                let fab = Simos.Kernel.fabric k in
                let s =
                  match unix_path with
                  | Some path ->
                    let s = Simnet.Fabric.socket_unix fab ~host:ctx.node_id in
                    (match Simnet.Fabric.bind_unix s ~path with
                    | Ok () -> ()
                    | Error _ -> ());
                    s
                  | None ->
                    let s = Simnet.Fabric.socket fab ~host:ctx.node_id in
                    (match Simnet.Fabric.bind s ~port:(Option.value ~default:0 port) with
                    | Ok _ -> ()
                    | Error _ -> ignore (Simnet.Fabric.bind s ~port:0));
                    s
                in
                ignore (Simnet.Fabric.listen s ~backlog);
                Hashtbl.replace st.desc_map desc_key (Simos.Kernel.make_desc k (Simos.Fdesc.Sock s))
              | Ckpt_image.FSock { state = Ckpt_image.S_other; eof; _ } ->
                let fab = Simos.Kernel.fabric k in
                let s = Simnet.Fabric.socket fab ~host:ctx.node_id in
                (* a recorded EOF survives onto the fresh dead socket so
                   a reader blocked on it wakes instead of hanging *)
                if eof then Simnet.Fabric.inject_eof s;
                Hashtbl.replace st.desc_map desc_key (Simos.Kernel.make_desc k (Simos.Fdesc.Sock s))
              | Ckpt_image.FSock { state = Ckpt_image.S_established; _ } ->
                (* handled by the reconnect stage *)
                ())
          img.Ckpt_image.fds)
      st.images

  (* ---------------------------------------------------------------- *)
  (* step 2: sockets via the discovery service *)

  (* One spec per shared description: processes that shared a socket
     (fork/dup) are reassembled around a single restored endpoint, so the
     dedup key is the cluster-unique desc_key.  The drained stash lives in
     the drain leader's image; keep the longest. *)
  let build_conn_specs ~prefix st =
    let by_desc : (int, conn_spec) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun ((img : Ckpt_image.t), _) ->
        List.iter
          (fun (_, desc_key, info) ->
            match info with
            | Ckpt_image.FSock { state = Ckpt_image.S_established; role; conn_id; drained; eof; _ }
              -> (
              let acceptor =
                match role with
                | Conn_table.Acceptor | Conn_table.Pair_a -> true
                | Conn_table.Connector | Conn_table.Pair_b -> false
              in
              match Hashtbl.find_opt by_desc desc_key with
              | Some existing ->
                let longest =
                  if String.length drained > String.length existing.cs_drained then drained
                  else existing.cs_drained
                in
                Hashtbl.replace by_desc desc_key
                  { existing with cs_drained = longest; cs_eof = existing.cs_eof || eof }
              | None ->
                Hashtbl.replace by_desc desc_key
                  {
                    cs_key = prefix ^ Conn_id.to_key conn_id;
                    cs_desc_key = desc_key;
                    cs_acceptor = acceptor;
                    cs_desc = None;
                    cs_drained = drained;
                    cs_eof = eof;
                  })
            | _ -> ())
          img.Ckpt_image.fds)
      st.images;
    Hashtbl.fold (fun _ spec acc -> spec :: acc) by_desc []
    |> List.sort (fun a b -> compare a.cs_desc_key b.cs_desc_key)

  (* restart-discovery hook: a connection whose peer cannot be
     rediscovered (outside the checkpointed set, or already drained to
     EOF) is offered to plugins; a plugin resolves the spec by filling
     in a descriptor (ext-sock answers with a fresh dead socket, with
     the recorded EOF injected).  With no plugin claiming it, the spec
     stays unresolved and the fd is simply absent after restart. *)
  let discover_external (ctx : Simos.Program.ctx) spec =
    if spec.cs_desc = None then
      spec.cs_desc <-
        Plugins.restart_discovery (Runtime.plugins (rt ctx)) ~node:ctx.node_id ~pid:ctx.pid
          ~now:(ctx.now ()) (my_kernel ctx) ~eof:spec.cs_eof

  let start_socket_restore (ctx : Simos.Program.ctx) st =
    (* namespace discovery keys by coordinator port: each job's restart
       wave advertises and looks up only within its own domain *)
    st.specs <- build_conn_specs ~prefix:(Printf.sprintf "%d/" (my_port st)) st;
    (* a drained-to-EOF connection has no peer to rediscover: offer it
       to the restart-discovery hook now instead of waiting out the
       discovery deadline (the ext-sock plugin answers with a dead
       socket carrying the recorded EOF) *)
    List.iter
      (fun spec -> if spec.cs_eof then discover_external ctx spec)
      st.specs;
    if List.for_all (fun spec -> spec.cs_desc <> None) st.specs then ()
    else begin
      st.listen_fd <- ctx.socket ();
      (match ctx.bind st.listen_fd ~port:0 with
      | Ok _ -> ()
      | Error _ -> failwith "dmtcp:restart: cannot bind restart listener");
      ignore (ctx.listen st.listen_fd ~backlog:256);
      let addr =
        match ctx.sock_local_addr st.listen_fd with
        | Some a -> a
        | None -> failwith "dmtcp:restart: listener has no address"
      in
      let disc = Simos.Cluster.discovery (Runtime.cluster (rt ctx)) in
      List.iter
        (fun spec ->
          if spec.cs_acceptor then begin
            Simnet.Discovery.advertise disc ~key:spec.cs_key addr;
            trace_rst ctx "advertise" [ ("key", spec.cs_key) ]
          end)
        st.specs
    end

  (* Drive accepts/connects until every spec has a socket or the deadline
     passes (external peers never reconnect). *)
  let socket_restore_tick (ctx : Simos.Program.ctx) st =
    let disc = Simos.Cluster.discovery (Runtime.cluster (rt ctx)) in
    (* accept side *)
    (if st.listen_fd >= 0 then
       let rec accept_all () =
         match ctx.accept st.listen_fd with
         | Some fd ->
           st.pending_accepts <- { pa_fd = fd; pa_buf = "" } :: st.pending_accepts;
           accept_all ()
         | None -> ()
       in
       accept_all ());
    st.pending_accepts <-
      List.filter
        (fun pa ->
          let keep = ref true in
          (match ctx.read_fd pa.pa_fd ~max:(Proto.handshake_len - String.length pa.pa_buf) with
          | `Data d -> pa.pa_buf <- pa.pa_buf ^ d
          | `Eof -> keep := false
          | `Would_block | `Err _ -> ());
          if !keep && String.length pa.pa_buf >= Proto.handshake_len then begin
            let key = Proto.parse_handshake pa.pa_buf in
            (match
               List.find_opt (fun s -> s.cs_acceptor && s.cs_desc = None && s.cs_key = key) st.specs
             with
            | Some spec -> (
              match fd_sock ctx pa.pa_fd with
              | Some (_, desc) ->
                spec.cs_desc <- Some desc;
                trace_rst ctx "reconnect" [ ("key", spec.cs_key); ("side", "acceptor") ]
              | None -> ())
            | None -> ctx.close_fd pa.pa_fd);
            keep := false
          end;
          !keep)
        st.pending_accepts;
    (* connector side: initiate connects as advertisements appear *)
    List.iter
      (fun spec ->
        if (not spec.cs_acceptor) && spec.cs_desc = None
           && not (List.exists (fun c -> c.co_spec == spec) st.connectors)
        then
          match Simnet.Discovery.lookup disc ~key:spec.cs_key with
          | Some addr ->
            let fd = ctx.socket () in
            ignore (ctx.connect fd addr);
            st.connectors <- { co_fd = fd; co_key = spec.cs_key; co_spec = spec; co_sent = false } :: st.connectors
          | None -> ())
      st.specs;
    st.connectors <-
      List.filter
        (fun co ->
          match ctx.sock_state co.co_fd with
          | Some Simnet.Fabric.Established ->
            if not co.co_sent then begin
              ignore (ctx.write_fd co.co_fd (Proto.handshake_frame co.co_key));
              co.co_sent <- true
            end;
            (match fd_sock ctx co.co_fd with
            | Some (_, desc) ->
              co.co_spec.cs_desc <- Some desc;
              trace_rst ctx "reconnect" [ ("key", co.co_key); ("side", "connector") ]
            | None -> ());
            false
          | Some Simnet.Fabric.Connecting -> true
          | _ -> false)
        st.connectors;
    List.for_all (fun s -> s.cs_desc <> None) st.specs

  (* ---------------------------------------------------------------- *)
  (* steps 3–4: fork into user processes, rearrange fds *)

  let materialize (ctx : Simos.Program.ctx) st =
    let k = my_kernel ctx in
    let run = rt ctx in
    let port = my_port st in
    Runtime.shm_reset ~port run;
    st.restored <-
      List.map
        (fun ((img : Ckpt_image.t), resolved) ->
          let pid = Simos.Kernel.fresh_pid k in
          let mtcp_img =
            match resolved with Some m -> m | None -> Ckpt_image.mtcp img
          in
          let proc =
            Simos.Kernel.create_raw_process k ~pid ~ppid:0 ~env:mtcp_img.Mtcp.Image.env
              ~hijacked:true
          in
          (* fd table: original numbers, shared descriptions preserved *)
          List.iter
            (fun (fd, desc_key, info) ->
              let desc =
                match info with
                | Ckpt_image.FSock { state = Ckpt_image.S_established; _ } ->
                  List.find_opt (fun s -> s.cs_desc_key = desc_key && s.cs_desc <> None) st.specs
                  |> Option.map (fun s -> Option.get s.cs_desc)
                | _ -> Hashtbl.find_opt st.desc_map desc_key
              in
              match desc with
              | Some desc ->
                Simos.Fdesc.incr_ref desc;
                Simos.Kernel.install_fd k proc ~fd desc
              | None -> ())
            img.Ckpt_image.fds;
          (* memory and threads (suspended until refill completes) *)
          Mtcp.Image.restore_threads k proc mtcp_img;
          (* the coordinator may have moved: point the restored process's
             environment at the current one *)
          List.iter
            (fun key ->
              match ctx.getenv key with
              | Some v -> proc.Simos.Kernel.env <- (key, v) :: List.remove_assoc key proc.Simos.Kernel.env
              | None -> ())
            [ "DMTCP_COORD_HOST"; "DMTCP_COORD_PORT" ];
          Simos.Kernel.suspend_user_threads k proc;
          (* re-share mmap-shared segments across restored processes *)
          List.iter
            (fun (r : Mem.Region.t) ->
              match r.Mem.Region.kind with
              | Mem.Region.Mmap_shared { backing_path } -> (
                match Runtime.shm_lookup ~port run backing_path with
                | Some pages ->
                  Mem.Address_space.substitute_pages proc.Simos.Kernel.space
                    ~region_id:r.Mem.Region.id pages
                | None ->
                  (* the paper's strategy: recreate the backing file if it
                     is missing and the directory is writable *)
                  let file = Simos.Vfs.open_or_create (Simos.Kernel.vfs k) backing_path in
                  ignore file;
                  Runtime.shm_register ~port run backing_path r.Mem.Region.pages)
              | _ -> ())
            (Mem.Address_space.regions proc.Simos.Kernel.space);
          (* DMTCP per-process state: virtual pid preserved, generation
             bumped *)
          let ps : Runtime.pstate =
            {
              Runtime.upid = Upid.next_generation img.Ckpt_image.upid;
              vpid = img.Ckpt_image.vpid;
              conns = Conn_table.create ();
              conn_seq = 1000;
              critical = 0;
              pty_drains = Hashtbl.create 4;
              delta_prev = None;
              ckpt_seq = 0;
              forked_pending = false;
            }
          in
          List.iter
            (fun (fd, desc_key, info) ->
              match info with
              | Ckpt_image.FSock { kind; role; conn_id; _ } -> (
                let desc = Simos.Kernel.fd_desc proc fd in
                match desc with
                | Some desc ->
                  Conn_table.add ps.Runtime.conns ~fd
                    (Conn_table.entry ~conn_id ~role ~kind ~desc_id:desc.Simos.Fdesc.desc_id);
                  (match desc.Simos.Fdesc.kind with
                  | Simos.Fdesc.Sock s ->
                    Runtime.register_sock_owner run ~sock_id:(Simnet.Fabric.id s)
                      ~node:ctx.node_id ~pid ~fd
                  | _ -> ());
                  ignore desc_key
                | None -> ())
              | Ckpt_image.FFile _ | Ckpt_image.FPty _ -> ())
            img.Ckpt_image.fds;
          Runtime.register_pstate run ~node:ctx.node_id ~pid ps;
          Runtime.claim_vpid run ~vpid:ps.Runtime.vpid ~node:ctx.node_id ~pid;
          (* restart-rearrange hook: the process exists with its fds
             installed but threads still suspended — the point where
             plugins fix up resources whose names broke across the
             restart (proc-fd re-points /proc/<old pid>/* here) *)
          Plugins.restart_rearrange (Runtime.plugins run) ~node:ctx.node_id ~pid:ctx.pid
            ~now:(ctx.now ()) k img proc;
          (img, proc))
        st.images;
    (* second pass: parent/child relationships via virtual pids *)
    List.iter
      (fun ((img : Ckpt_image.t), (proc : Simos.Kernel.process)) ->
        if img.Ckpt_image.parent_vpid <> 0 then
          match Runtime.resolve_vpid run img.Ckpt_image.parent_vpid with
          | Some (pnode, ppid) when pnode = ctx.node_id -> proc.Simos.Kernel.ppid <- ppid
          | _ -> ())
      st.restored;
    (* release the restart process's own references to the reconnected
       sockets: the user processes now hold them *)
    List.iter (fun fd -> ctx.close_fd fd) (ctx.fds ())

  (* memory restore cost: storage read plus decompression, restored in
     parallel by the forked children across the node's cores *)
  let memory_restore_delay (ctx : Simos.Program.ctx) st =
    let k = my_kernel ctx in
    let storage = Simos.Kernel.storage k in
    let cores = Simos.Kernel.cores k in
    let decompress_total = ref 0. in
    List.iter
      (fun (img : Ckpt_image.t) ->
        let sizes = img.Ckpt_image.sizes in
        decompress_total :=
          !decompress_total
          +. Compress.Model.decompress_seconds ~algo:img.Ckpt_image.algo
               ~bytes:sizes.Mtcp.Image.uncompressed ~zero_bytes:sizes.Mtcp.Image.zero_bytes)
      (List.map fst st.images @ st.chain_bases);
    (* one booking for this host's whole image set: the restart process
       reads the local files serially from its disk.  Images pulled from
       the store were already booked on their replicas' targets at fetch
       time; their (overlapped) read time is [store_read_delay]. *)
    let read_total =
      (if st.local_read_bytes > 0 then Storage.Target.read storage ~bytes:st.local_read_bytes
       else 0.)
      +. st.store_read_delay
    in
    (* decompress parallelism: one image per core *)
    let parallel = float_of_int (max 1 (min cores (List.length st.images))) in
    Trace.Metrics.set m_parallel parallel;
    (* run-to-run I/O variation, as for checkpoint writes *)
    Mtcp.Cost.jitter ctx.rng (read_total +. (!decompress_total /. parallel))

  (* Demand-paged lazy restore (option [lazy_restart]).  Only the hot
     set — text, stacks and shared segments, the pages a thread needs to
     take its first steps — is charged to the restart blackout; private
     data/heap/anon pages are marked absent and their share of the
     restore cost is deferred: the kernel pager charges it per page on
     first touch, and a background prefetcher drains the remainder.
     Page *contents* are fully materialized either way (restores stay
     bit-identical); residency only moves modeled time off the critical
     path, so blackout is O(hot set) instead of O(image). *)
  let lazy_restore_setup (ctx : Simos.Program.ctx) st ~dt =
    let total = ref 0 and absent = ref 0 in
    let cold (r : Mem.Region.t) =
      match r.Mem.Region.kind with
      | Mem.Region.Heap | Mem.Region.Data | Mem.Region.Mmap_anon -> true
      | Mem.Region.Text | Mem.Region.Stack | Mem.Region.Mmap_shared _ -> false
    in
    List.iter
      (fun ((_ : Ckpt_image.t), (proc : Simos.Kernel.process)) ->
        List.iter
          (fun (r : Mem.Region.t) ->
            total := !total + Mem.Region.npages r;
            if cold r then begin
              Mem.Region.mark_all_absent r;
              absent := !absent + Mem.Region.npages r
            end)
          (Mem.Address_space.regions proc.Simos.Kernel.space))
      st.restored;
    if !absent = 0 then dt
    else begin
      let hot_frac = float_of_int (!total - !absent) /. float_of_int (max 1 !total) in
      let blackout = dt *. hot_frac in
      st.lazy_page_cost <- dt *. (1. -. hot_frac) /. float_of_int !absent;
      Trace.Metrics.add m_lazy_absent (float_of_int !absent);
      List.iter
        (fun ((_ : Ckpt_image.t), (proc : Simos.Kernel.process)) ->
          let cost = st.lazy_page_cost in
          proc.Simos.Kernel.pager <- Some (fun _ _ -> cost))
        st.restored;
      trace_rst ctx "lazy"
        [
          ("pages", string_of_int !total);
          ("absent", string_of_int !absent);
          ("blackout", Printf.sprintf "%.6f" blackout);
        ];
      blackout
    end

  (* Background prefetcher: from resume onward, page in a batch of
     still-absent pages per step, booking each batch's share of the
     deferred restore time; stops when every page is resident (pagers
     uninstalled) or the restored processes died under it. *)
  let prefetch_batch = 64

  let start_prefetcher (ctx : Simos.Program.ctx) st =
    let eng = Simos.Kernel.engine (my_kernel ctx) in
    let page_cost = st.lazy_page_cost in
    let procs = List.map snd st.restored in
    let rec tick () =
      let live =
        List.filter
          (fun (p : Simos.Kernel.process) -> p.Simos.Kernel.pstate = Simos.Kernel.Running)
          procs
      in
      if live <> [] then begin
        let marked = ref 0 in
        List.iter
          (fun (p : Simos.Kernel.process) ->
            List.iter
              (fun (r : Mem.Region.t) ->
                let n = Mem.Region.npages r in
                for i = 0 to n - 1 do
                  if !marked < prefetch_batch && not (Mem.Region.is_resident r i) then begin
                    Mem.Region.set_resident r i;
                    incr marked;
                    Trace.Metrics.incr m_prefetched
                  end
                done)
              (Mem.Address_space.regions p.Simos.Kernel.space))
          live;
        if !marked = 0 then begin
          List.iter (fun (p : Simos.Kernel.process) -> p.Simos.Kernel.pager <- None) procs;
          trace_rst ctx "prefetch-done" []
        end
        else
          ignore
            (Sim.Engine.schedule eng ~delay:(float_of_int !marked *. page_cost) (fun () ->
                 tick ()))
      end
    in
    ignore (Sim.Engine.schedule eng ~delay:(Float.max page_cost 1e-4) (fun () -> tick ()))

  let refill (ctx : Simos.Program.ctx) st =
    ignore ctx;
    List.iter
      (fun spec ->
        if spec.cs_drained <> "" then
          match spec.cs_desc with
          | Some { Simos.Fdesc.kind = Simos.Fdesc.Sock s; _ } ->
            Simnet.Fabric.inject_recv s spec.cs_drained
          | _ -> ())
      st.specs

  let resume (ctx : Simos.Program.ctx) st =
    let k = my_kernel ctx in
    List.iter
      (fun ((_ : Ckpt_image.t), (proc : Simos.Kernel.process)) ->
        let inst = Simos.Program.instantiate ~name:Manager.name ~argv:[] in
        ignore (Simos.Kernel.add_thread k proc ~inst ~manager:true ());
        Simos.Kernel.resume_user_threads k proc;
        match proc.Simos.Kernel.cmdline with
        | prog :: _ -> Dmtcpaware.run_post_ckpt (rt ctx) ~prog
        | [] -> ())
      st.restored;
    if st.lazy_page_cost > 0. then start_prefetcher ctx st;
    Runtime.note_restart_end ~port:(my_port st) (rt ctx)

  (* ---------------------------------------------------------------- *)
  (* boot: load the images named on the command line *)

  (* The one image loader — argv images, delta bases and fallback
     candidates alike.  It reads through Image_chain's lookup order from
     this node; a store pull books its replica read (concurrent pulls
     overlap, so the slowest one is charged) and a file read counts
     toward this host's disk booking.  [Error] says why there is no
     image: [`Lost blocks] (never catalogued, with the image's own name
     as [blocks], or blocks lost on every replica) or
     [`Corrupt (source, msg)]. *)
  let load_image (ctx : Simos.Program.ctx) st path =
    let fetch store name =
      Store.fetch store ~node:ctx.node_id ~name
      |> Option.map (fun (bytes, delay) ->
             st.store_read_delay <- Float.max st.store_read_delay delay;
             trace_rst ctx "store-fetch" [ ("name", name); ("delay", Printf.sprintf "%.6f" delay) ];
             bytes)
    in
    match Image_chain.read ~prefer:ctx.node_id ~from_store:fetch (rt ctx) path with
    | exception Store.Missing_blocks blocks -> Error (`Lost blocks)
    | None -> Error (`Lost [ Filename.basename path ])
    | Some (bytes, source) -> (
      match Ckpt_image.decode bytes with
      | exception Util.Codec.Reader.Corrupt msg ->
        Error (`Corrupt (Image_chain.source_name source, msg))
      | img ->
        if source <> Image_chain.Store then
          st.local_read_bytes <- st.local_read_bytes + img.Ckpt_image.sizes.Mtcp.Image.compressed;
        Ok (img, source))

  (* Reconstruct a delta image's full mtcp body by walking the
     [delta_base] links back to a full image and replaying each delta on
     the way up; [Error base] names a base that is gone.  A damaged base
     or delta raises [Util.Codec.Reader.Corrupt]. *)
  let resolve_mtcp (ctx : Simos.Program.ctx) st path img =
    let load base =
      match load_image ctx st (Filename.concat (Filename.dirname path) base) with
      | Ok ((base_img, _) as link) ->
        st.chain_bases <- base_img :: st.chain_bases;
        Some link
      | Error (`Lost _) -> None
      | Error (`Corrupt (_, msg)) -> raise (Util.Codec.Reader.Corrupt msg)
    in
    let chain = Image_chain.images img ~load in
    match chain.Util.Chain.missing with
    | Some base -> Error base
    | None ->
      Ok
        (Image_chain.mtcp img chain ~name:(Filename.basename path)
           ~on_delta:(fun ~image (base, (_, source)) ->
             trace_rst ctx "delta-resolve"
               [ ("image", image); ("base", base); ("source", Image_chain.source_name source) ]))

  (* The lineage encoded in an image filename
     (ckpt_<prog>_<hostid>-<pid>-g<gen>[.d<k>].dmtcp) — needed when the
     image itself is gone and there is no decoded upid to ask. *)
  let lineage_of_name name =
    match String.rindex_opt name '_' with
    | None -> None
    | Some i -> (
      let upid_part = String.sub name (i + 1) (String.length name - i - 1) in
      match String.split_on_char '-' upid_part with
      | hostid :: pid :: _ -> Some (hostid ^ "-" ^ pid)
      | _ -> None)

  (* An image that cannot be produced — its delta base is gone
     everywhere, or the image itself never landed (a node killed
     mid-forked-checkpoint dies with the background write still in
     flight): fall back to the newest catalogued generation of the same
     lineage that still resolves, so the failure degrades to an older
     checkpoint instead of losing the computation. *)
  let fallback (ctx : Simos.Program.ctx) st ~lineage path =
    match Runtime.store (rt ctx) with
    | None -> None
    | Some store ->
      let failed = Filename.basename path in
      Store.manifests store
      |> List.filter (fun (m : Store.manifest) ->
             m.Store.m_lineage = lineage && m.Store.m_name <> failed)
      |> List.find_map (fun (m : Store.manifest) ->
             let cpath = Filename.concat (Filename.dirname path) m.Store.m_name in
             match load_image ctx st cpath with
             | Error _ -> None
             | Ok (cimg, _) -> (
               match resolve_mtcp ctx st cpath cimg with
               | Error _ -> None
               | exception Util.Codec.Reader.Corrupt _ -> None
               | Ok mtcp ->
                 ctx.log
                   (Printf.sprintf "image %s unresolvable: falling back to %s (generation %d)"
                      failed m.Store.m_name m.Store.m_generation);
                 trace_rst ctx "delta-fallback"
                   [
                     ("failed", failed);
                     ("image", m.Store.m_name);
                     ("generation", string_of_int m.Store.m_generation);
                   ];
                 Some (cimg, Some mtcp)))

  (* One argv image, restored as far as it goes: [Ok (Some image)] with
     its chain-resolved body, [Ok None] when flat mode has no copy of it
     (the restart restores what it can), or [Error] — a corrupt image,
     reported here, or an image lost beyond fallback with the blocks that
     are gone. *)
  let restore_image (ctx : Simos.Program.ctx) st path =
    let lost ~lineage blocks =
      match Option.bind lineage (fun lineage -> fallback ctx st ~lineage path) with
      | Some image -> Ok (Some image)
      | None -> Error (`Missing blocks)
    in
    let restored =
      match load_image ctx st path with
      | Error (`Corrupt c) -> Error (`Corrupt c)
      | Error (`Lost _) when Runtime.store (rt ctx) = None -> Ok None
      | Error (`Lost blocks) -> lost ~lineage:(lineage_of_name (Filename.basename path)) blocks
      | Ok (img, _) when img.Ckpt_image.delta_base = None -> Ok (Some (img, None))
      | Ok (img, _) -> (
        match resolve_mtcp ctx st path img with
        | Ok mtcp -> Ok (Some (img, Some mtcp))
        | Error base -> lost ~lineage:(Some (Upid.lineage img.Ckpt_image.upid)) [ base ]
        | exception Util.Codec.Reader.Corrupt msg -> Error (`Corrupt ("delta chain", msg)))
    in
    (match restored with
    | Error (`Corrupt (source, msg)) ->
      (* a damaged image must not yield a half-restored computation:
         report it, and the whole restart fails *)
      ctx.log (Printf.sprintf "corrupt checkpoint image %s (%s): %s" path source msg);
      trace_rst ctx "corrupt-image" [ ("path", path); ("source", source); ("error", msg) ]
    | _ -> ());
    restored

  (* Restore every argv image.  A corrupt image fails the whole restart
     (exit 72); an image lost beyond fallback fails it cleanly, naming
     the lost blocks (exit 73); with nothing to restore, exit 1. *)
  let boot (ctx : Simos.Program.ctx) st =
    st.since <- ctx.now ();
    st.opts <- Options.of_getenv ~base:(Runtime.options (rt ctx)) ctx.getenv;
    let paths = match ctx.argv with _ :: paths -> paths | [] -> [] in
    let outcomes = List.map (fun path -> (path, restore_image ctx st path)) paths in
    st.images <- List.filter_map (function _, Ok image -> image | _, Error _ -> None) outcomes;
    let missing =
      List.filter_map
        (function path, Error (`Missing blocks) -> Some (path, blocks) | _ -> None)
        outcomes
    in
    if List.exists (function _, Error (`Corrupt _) -> true | _ -> false) outcomes then
      Simos.Program.Exit Exit_code.corrupt_image
    else if missing <> [] then begin
      (* every replica of at least one block is gone: fail the restart
         cleanly and name the unrecoverable blocks *)
      List.iter
        (fun (path, blocks) ->
          ctx.log
            (Printf.sprintf "unrecoverable image %s: store blocks lost on all replicas: %s" path
               (String.concat ", " blocks));
          trace_rst ctx "missing-blocks" [ ("path", path); ("blocks", String.concat "," blocks) ])
        missing;
      Simos.Program.Exit Exit_code.blocks_lost
    end
    else if st.images = [] then Simos.Program.Exit Exit_code.no_images
    else begin
      trace_rst ctx "boot" [ ("images", string_of_int (List.length st.images)) ];
      st.phase <- Enter (List.hd Faults.restart_stages);
      Simos.Program.Continue st
    end

  (* ---------------------------------------------------------------- *)
  (* the state machine: the stages in Faults' restart order, each
     entered and exited through enter_stage / exit_stage *)

  (* drained data re-traverses the network once *)
  let resend = 3e-4

  (* Stage entry: the stage's kill point. *)
  let enter_stage (ctx : Simos.Program.ctx) = Runtime.notify (rt ctx) ~node:ctx.node_id ~pid:ctx.pid

  (* Stage exit: the stage's span, from the last stage's exit (boot for
     the first) to now, then whatever Faults.next names.  Refill's span
     ends with the re-send; the barrier wait after it gets a span of its
     own.  Resume, the last stage, ends the restarter instead. *)
  let exit_stage (ctx : Simos.Program.ctx) st stage =
    let now = ctx.now () in
    let span = Faults.span ~node:ctx.node_id ~pid:ctx.pid in
    let name = Faults.span_name stage in
    (match stage with
    | Faults.Restart Faults.Refill ->
      let resent = st.since +. resend in
      span name ~since:st.since ~until:resent;
      span (name ^ "-barrier") ~since:resent ~until:now
    | _ -> span name ~since:st.since ~until:now);
    st.since <- now;
    Option.iter (fun next -> st.phase <- Enter next) (Faults.next stage);
    st

  let rec step (ctx : Simos.Program.ctx) st =
    match st.phase with
    | Boot -> boot ctx st
    | Enter stage ->
      enter_stage ctx stage;
      run_stage ctx st stage
    | Wait stage -> wait_stage ctx st stage
    | Finish stage -> step ctx (exit_stage ctx st stage)

  (* One stage's work, right after its entry.  Reconnect and refill are
     entered in the step their predecessor exits: [st.since] is their
     entry time too. *)
  and run_stage (ctx : Simos.Program.ctx) st = function
    | Faults.Restart Faults.Files as stage ->
      trace_rst ctx "files" [];
      restore_files_and_ptys ctx st;
      let nfds =
        List.fold_left
          (fun acc ((img : Ckpt_image.t), _) -> acc + List.length img.Ckpt_image.fds)
          0 st.images
      in
      st.phase <- Finish stage;
      Simos.Program.Compute (st, Mtcp.Cost.reopen_seconds ~nfds)
    | Faults.Restart Faults.Reconnect as stage ->
      start_socket_restore ctx st;
      trace_rst ctx "sockets" [ ("specs", string_of_int (List.length st.specs)) ];
      st.phase <- Wait stage;
      Simos.Program.Continue st
    | Faults.Restart Faults.Mem as stage -> (
      trace_rst ctx "fork" [ ("procs", string_of_int (List.length st.images)) ];
      (* decoding the mtcp body happens here, after reconnect: damage that
         only per-block CRCs catch must still abort the whole restart
         cleanly rather than yield a half-restored computation *)
      match materialize ctx st with
      | () ->
        st.phase <- Wait stage;
        Simos.Program.Continue st
      | exception Util.Codec.Reader.Corrupt msg ->
        ctx.log (Printf.sprintf "corrupt checkpoint image at materialize: %s" msg);
        trace_rst ctx "corrupt-image" [ ("error", msg) ];
        Simos.Program.Exit Exit_code.corrupt_image)
    | Faults.Restart Faults.Refill as stage ->
      trace_rst ctx "refill" [];
      refill ctx st;
      Runtime.arrive_refill_barrier ~port:(my_port st) (rt ctx);
      st.phase <- Wait stage;
      Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. resend))
    | Faults.Restart Faults.Resume ->
      trace_rst ctx "resume" [ ("procs", string_of_int (List.length st.restored)) ];
      resume ctx st;
      Simos.Program.Exit 0
    | stage -> invalid_arg ("dmtcp:restart: not a restart stage: " ^ Faults.stage_name stage)

  (* A stage's wait, after its work: reconnect's discovery of its peers,
     mem's modeled restore time, refill's barrier. *)
  and wait_stage (ctx : Simos.Program.ctx) st = function
    | Faults.Restart Faults.Reconnect as stage ->
      (* external peers never reconnect: give up on them 5 s after entry *)
      let deadline = st.since +. 5.0 in
      let all_done = socket_restore_tick ctx st in
      (* [>=], not [>]: a wakeup scheduled exactly at the deadline must
         give up on external peers then, not at some later event *)
      if all_done || ctx.now () >= deadline then begin
        (* specs still unresolved belong to connections whose peer is
           outside the checkpointed set; offer each to the
           restart-discovery hook (ext-sock gives them dead sockets) *)
        let dead = ref 0 in
        List.iter
          (fun spec ->
            if spec.cs_desc = None then begin
              discover_external ctx spec;
              if spec.cs_desc <> None then incr dead
            end)
          st.specs;
        trace_rst ctx "sockets-done"
          [ ("external", string_of_int !dead); ("timed_out", string_of_bool (not all_done)) ];
        Simos.Program.Continue (exit_stage ctx st stage)
      end
      else
        (* poll the discovery service; also woken by socket activity.
           Clamp the poll to the deadline so the final wakeup lands
           exactly on it. *)
        Simos.Program.Block
          (st, Simos.Program.Sleep_until (Float.min (ctx.now () +. 1e-3) deadline))
    | Faults.Restart Faults.Mem as stage ->
      let delay = memory_restore_delay ctx st in
      let delay =
        if st.opts.Options.lazy_restart then lazy_restore_setup ctx st ~dt:delay else delay
      in
      st.phase <- Finish stage;
      Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. delay))
    | Faults.Restart Faults.Refill as stage ->
      if Runtime.refill_barrier_passed ~port:(my_port st) (rt ctx) then begin
        st.phase <- Finish stage;
        Simos.Program.Continue st
      end
      else Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
    | stage -> invalid_arg ("dmtcp:restart: no wait in stage " ^ Faults.stage_name stage)

  let step ctx st =
    try step ctx st
    with e ->
      ctx.log (Printf.sprintf "dmtcp:restart crashed: %s" (Printexc.to_string e));
      Simos.Program.Exit Exit_code.restarter_crashed
end

let () = Simos.Program.register (module P : Simos.Program.S)
