(* Built-in plugins: the paper's "open world" heuristics as first-class
   plugins on the {!Plugin} event API (SNIPPETS.md §2; real DMTCP grew
   the same heuristics into its plugin event model).

   - [ext-sock]        dead sockets for connections whose peer is gone
                       (migrated from the old inline special case in
                       restart.ml's discovery deadline path)
   - [blacklist-ports] connections to well-known service ports (DNS 53,
                       LDAP 389/636) are never drained and come back as
                       dead sockets, so the app's resolver library
                       reconnects instead of the checkpointer hanging on
                       an uncontrolled peer
   - [proc-fd]         open fds on /proc/<pid>/* re-pointed at the
                       restarted pid via the VFS path-rewrite hook
   - [ext-shm]         shared memory backed by an external service's
                       file (NSCD-style) is zeroed in the written image;
                       the app detects the zeroed region and degrades

   Registration order here is the dispatch order everywhere. *)

let dead_socket kernel =
  Simnet.Fabric.socket (Simos.Kernel.fabric kernel) ~host:(Simos.Kernel.node_id kernel)

(* Connections [outside] picks out have a peer beyond checkpoint
   control: they are never drained, and the image demotes them from
   established to S_other with nothing drained and [eof = true].
   Restart then recreates each as a fresh dead socket carrying an
   injected EOF and skips peer discovery for it, so a reader blocked on
   the old connection wakes with EOF and reconnects instead of hanging
   on a socket that will never become readable. *)
let dead_socket_hooks outside =
  [
    ( Events.site_drain_select,
      fun payload ->
        match payload with
        | Events.Drain_select p when outside p.sock -> p.skip <- true
        | _ -> () );
    ( Events.site_fd_capture,
      fun payload ->
        match payload with
        | Events.Fd_capture p -> (
          match (p.desc.Simos.Fdesc.kind, p.info) with
          | ( Simos.Fdesc.Sock s,
              Some (Ckpt_image.FSock ({ state = Ckpt_image.S_established; _ } as fs)) )
            when outside s ->
            p.info <-
              Some (Ckpt_image.FSock { fs with state = Ckpt_image.S_other; drained = ""; eof = true })
          | _ -> ())
        | _ -> () );
  ]

(* ------------------------------------------------------------------ *)
(* ext-sock: unresolved connections get a fresh dead socket so reads
   return EOF/ECONNRESET instead of blocking forever (paper §4.4's
   answer to peers outside the checkpointed world). *)

let ext_sock =
  {
    Plugin.p_name = "ext-sock";
    p_doc = "dead sockets for connections whose peer was not checkpointed";
    p_hooks =
      [
        ( Events.site_restart_discovery,
          fun payload ->
            match payload with
            | Events.Restart_discovery p when p.desc = None ->
              let s = dead_socket p.kernel in
              (* a stream that had already ended keeps its EOF *)
              if p.eof then Simnet.Fabric.inject_eof s;
              p.desc <- Some (Simos.Fdesc.make (Simos.Fdesc.Sock s))
            | _ -> () );
      ];
  }

(* ------------------------------------------------------------------ *)
(* blacklist-ports *)

(* the service ports real DMTCP blacklists: DNS, LDAP and LDAPS *)
let service_ports = [ 53; 389; 636 ]

(* a connection is blacklisted if *either* endpoint sits on a listed
   port: the client names the service port as its peer, the accepted
   server socket as its local address *)
let blacklisted s =
  let listed = function
    | Some (Simnet.Addr.Inet { port; _ }) -> List.mem port service_ports
    | _ -> false
  in
  listed (Simnet.Fabric.peer_addr s) || listed (Simnet.Fabric.local_addr s)

let blacklist_ports =
  {
    Plugin.p_name = "blacklist-ports";
    p_doc = "skip draining service ports (DNS/LDAP); dead sockets on restart";
    p_hooks = dead_socket_hooks blacklisted;
  }

(* ------------------------------------------------------------------ *)
(* proc-fd: /proc/<old pid>/... re-pointed at the restarted pid.  The
   VFS path-rewrite hook keeps the pid-naming convention out of the
   checkpoint core: the plugin rewrites the prefix, the core never
   learns what /proc paths mean. *)

let proc_fd =
  {
    Plugin.p_name = "proc-fd";
    p_doc = "re-point /proc/<pid>/* fds at the restarted pid";
    p_hooks =
      [
        ( Events.site_restart_rearrange,
          fun payload ->
            match payload with
            | Events.Restart_rearrange p ->
              let old_prefix =
                Printf.sprintf "/proc/%d/" p.image.Ckpt_image.upid.Upid.pid
              in
              let new_prefix =
                Printf.sprintf "/proc/%d/" p.proc.Simos.Kernel.pid
              in
              let vfs = Simos.Kernel.vfs p.kernel in
              List.iter
                (fun (fd, _, info) ->
                  match info with
                  | Ckpt_image.FFile { path; _ }
                    when String.starts_with ~prefix:old_prefix path ->
                    Simos.Vfs.with_rewrite vfs
                      (fun pth ->
                        if String.starts_with ~prefix:old_prefix pth then
                          new_prefix
                          ^ String.sub pth (String.length old_prefix)
                              (String.length pth - String.length old_prefix)
                        else pth)
                      (fun () ->
                        let file = Simos.Vfs.open_or_create vfs path in
                        let desc =
                          Simos.Fdesc.make (Simos.Fdesc.File { file; offset = 0 })
                        in
                        Simos.Kernel.remove_fd p.kernel p.proc ~fd;
                        Simos.Fdesc.incr_ref desc;
                        Simos.Kernel.install_fd p.kernel p.proc ~fd desc)
                  | _ -> ())
                p.image.Ckpt_image.fds
            | _ -> () );
      ];
  }

(* ------------------------------------------------------------------ *)
(* ext-shm: zero external-service shared segments in the written image.
   The captured space aliases the live pages for shared mappings, so the
   zeroing must substitute a fresh page array into the snapshot — never
   write through the alias into the running service's memory. *)

(* where NSCD keeps the cache databases it shares with clients *)
let external_shm_prefix = "/var/db/nscd"

let ext_shm =
  {
    Plugin.p_name = "ext-shm";
    p_doc = "zero external-service shared memory in the image (NSCD-style)";
    p_hooks =
      [
        ( Events.site_image_write,
          fun payload ->
            match payload with
            | Events.Image_write p ->
              let space = p.image.Mtcp.Image.space in
              List.iter
                (fun (r : Mem.Region.t) ->
                  match r.Mem.Region.kind with
                  | Mem.Region.Mmap_shared { backing_path }
                    when String.starts_with ~prefix:external_shm_prefix backing_path ->
                    Mem.Address_space.substitute_pages space
                      ~region_id:r.Mem.Region.id
                      (Array.make (Mem.Region.npages r) Mem.Page.Zero)
                  | _ -> ())
                (Mem.Address_space.regions space)
            | _ -> () );
      ];
  }

(* ------------------------------------------------------------------ *)
(* mpi-proxy: the checkpoint side of the rank/proxy split.  A rank's
   only transport fd is its unix connection to the node's proxy daemon
   (path under [Proxy.Wire.path_prefix]); the daemon is un-hijacked, so the
   connection must not be drained (the peer would never cooperate) and
   cannot be restored as live.  Instead it is captured as an
   immediately-dead socket — the rank's protocol treats EOF as "proxy
   gone, reconnect and resend unacked" — and restart relaunches the
   node's proxy, keyed off the MPI_PROXY environment marker the rank
   left behind, before the rank resumes. *)

let proxy_socket s =
  let under = function
    | Some (Simnet.Addr.Unix { path; _ }) ->
      String.starts_with ~prefix:Proxy.Wire.path_prefix path
    | _ -> false
  in
  under (Simnet.Fabric.peer_addr s) || under (Simnet.Fabric.local_addr s)

let mpi_proxy =
  {
    Plugin.p_name = "mpi-proxy";
    p_doc = "rank/proxy split: skip proxy sockets, relaunch proxies on restart";
    p_hooks =
      dead_socket_hooks proxy_socket
      @ [
          ( Events.site_restart_rearrange,
            fun payload ->
              match payload with
              | Events.Restart_rearrange p -> (
                match List.assoc_opt "MPI_PROXY" p.proc.Simos.Kernel.env with
                | Some marker -> (
                  match String.split_on_char ':' marker with
                  | [ bp; rpn ] -> (
                    match (int_of_string_opt bp, int_of_string_opt rpn) with
                    | Some base_port, Some rpn -> Proxy.Daemon.ensure p.kernel ~base_port ~rpn
                    | _ -> ())
                  | _ -> ())
                | None -> ())
              | _ -> () );
        ];
  }

(* ------------------------------------------------------------------ *)

let ensure_registered () =
  (* fixed program-text order = dispatch order; re-registration is
     positionally stable, so calling this per install is safe *)
  Plugin.register ext_sock;
  Plugin.register blacklist_ports;
  Plugin.register proc_fd;
  Plugin.register ext_shm;
  Plugin.register mpi_proxy

(* every built-in on — what the heuristic scenarios and the trace
   --plugins harness enable *)
let all_names = [ "ext-sock"; "blacklist-ports"; "proc-fd"; "ext-shm"; "mpi-proxy" ]
