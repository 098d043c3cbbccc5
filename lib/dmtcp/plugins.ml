(* Built-in plugins: the paper's "open world" heuristics as plugins
   (SNIPPETS.md §2; real DMTCP grew the same heuristics into its plugin
   event model), and the table and dispatchers they run through.

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
   - [mpi-proxy]       the rank/proxy split's checkpoint side

   The order of [builtins] below is the dispatch order everywhere. *)

type t = {
  name : string;
  doc : string;
  stage : ([ `Pre | `Post ] -> Faults.stage -> unit) option;
  drain_select : (Simnet.Fabric.socket -> bool) option;
  fd_capture :
    (Simos.Fdesc.t -> Ckpt_image.fd_info option -> Ckpt_image.fd_info option) option;
  image_write : (Mtcp.Image.t -> unit) option;
  restart_discovery :
    (Simos.Kernel.t -> eof:bool -> Simos.Fdesc.t option -> Simos.Fdesc.t option) option;
  restart_rearrange : (Simos.Kernel.t -> Ckpt_image.t -> Simos.Kernel.process -> unit) option;
}

(* a plugin that hooks nothing: each built-in fills in its sites *)
let plugin name doc =
  {
    name;
    doc;
    stage = None;
    drain_select = None;
    fd_capture = None;
    image_write = None;
    restart_discovery = None;
    restart_rearrange = None;
  }

let dead_socket kernel =
  Simnet.Fabric.socket (Simos.Kernel.fabric kernel) ~host:(Simos.Kernel.node_id kernel)

(* Connections [outside] picks out have a peer beyond checkpoint
   control: they are never drained, and the image demotes them from
   established to S_other with nothing drained and [eof = true].
   Restart then recreates each as a fresh dead socket carrying an
   injected EOF and skips peer discovery for it, so a reader blocked on
   the old connection wakes with EOF and reconnects instead of hanging
   on a socket that will never become readable. *)
let dead_sockets outside p =
  {
    p with
    drain_select = Some outside;
    fd_capture =
      Some
        (fun desc info ->
          match (desc.Simos.Fdesc.kind, info) with
          | ( Simos.Fdesc.Sock s,
              Some (Ckpt_image.FSock ({ state = Ckpt_image.S_established; _ } as fs)) )
            when outside s ->
            Some (Ckpt_image.FSock { fs with state = Ckpt_image.S_other; drained = ""; eof = true })
          | _ -> info);
  }

(* ------------------------------------------------------------------ *)
(* ext-sock: unresolved connections get a fresh dead socket so reads
   return EOF/ECONNRESET instead of blocking forever (paper §4.4's
   answer to peers outside the checkpointed world). *)

let ext_sock =
  {
    (plugin "ext-sock" "dead sockets for connections whose peer was not checkpointed") with
    restart_discovery =
      Some
        (fun kernel ~eof desc ->
          match desc with
          | Some _ -> desc
          | None ->
            let s = dead_socket kernel in
            (* a stream that had already ended keeps its EOF *)
            if eof then Simnet.Fabric.inject_eof s;
            Some (Simos.Kernel.make_desc kernel (Simos.Fdesc.Sock s)));
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
  dead_sockets blacklisted
    (plugin "blacklist-ports" "skip draining service ports (DNS/LDAP); dead sockets on restart")

(* ------------------------------------------------------------------ *)
(* proc-fd: /proc/<old pid>/... re-pointed at the restarted pid.  The
   VFS path-rewrite hook keeps the pid-naming convention out of the
   checkpoint core: the plugin rewrites the prefix, the core never
   learns what /proc paths mean. *)

let proc_fd =
  {
    (plugin "proc-fd" "re-point /proc/<pid>/* fds at the restarted pid") with
    restart_rearrange =
      Some
        (fun kernel image proc ->
          let old_prefix = Printf.sprintf "/proc/%d/" image.Ckpt_image.upid.Upid.pid in
          let new_prefix = Printf.sprintf "/proc/%d/" proc.Simos.Kernel.pid in
          let vfs = Simos.Kernel.vfs kernel in
          List.iter
            (fun (fd, _, info) ->
              match info with
              | Ckpt_image.FFile { path; _ } when String.starts_with ~prefix:old_prefix path ->
                Simos.Vfs.with_rewrite vfs
                  (fun pth ->
                    if String.starts_with ~prefix:old_prefix pth then
                      new_prefix
                      ^ String.sub pth (String.length old_prefix)
                          (String.length pth - String.length old_prefix)
                    else pth)
                  (fun () ->
                    let file = Simos.Vfs.open_or_create vfs path in
                    let desc = Simos.Kernel.make_desc kernel (Simos.Fdesc.File { file; offset = 0 }) in
                    Simos.Kernel.remove_fd kernel proc ~fd;
                    Simos.Fdesc.incr_ref desc;
                    Simos.Kernel.install_fd kernel proc ~fd desc)
              | _ -> ())
            image.Ckpt_image.fds);
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
    (plugin "ext-shm" "zero external-service shared memory in the image (NSCD-style)") with
    image_write =
      Some
        (fun image ->
          let space = image.Mtcp.Image.space in
          List.iter
            (fun (r : Mem.Region.t) ->
              match r.Mem.Region.kind with
              | Mem.Region.Mmap_shared { backing_path }
                when String.starts_with ~prefix:external_shm_prefix backing_path ->
                Mem.Address_space.substitute_pages space ~region_id:r.Mem.Region.id
                  (Array.make (Mem.Region.npages r) Mem.Page.Zero)
              | _ -> ())
            (Mem.Address_space.regions space));
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
    (dead_sockets proxy_socket
       (plugin "mpi-proxy" "rank/proxy split: skip proxy sockets, relaunch proxies on restart"))
    with
    restart_rearrange =
      Some
        (fun kernel _ proc ->
          match List.assoc_opt "MPI_PROXY" proc.Simos.Kernel.env with
          | Some marker -> (
            match String.split_on_char ':' marker with
            | [ bp; rpn ] -> (
              match (int_of_string_opt bp, int_of_string_opt rpn) with
              | Some base_port, Some rpn -> Proxy.Daemon.ensure kernel ~base_port ~rpn
              | _ -> ())
            | _ -> ())
          | None -> ());
  }

(* ------------------------------------------------------------------ *)
(* the table *)

let builtins = [ ext_sock; blacklist_ports; proc_fd; ext_shm; mpi_proxy ]
let all_names = List.map (fun p -> p.name) builtins
let table = ref builtins
let registered () = !table

let register p =
  if List.exists (fun q -> q.name = p.name) !table then
    table := List.map (fun q -> if q.name = p.name then p else q) !table
  else table := !table @ [ p ]

let resolve names =
  List.iter
    (fun n ->
      if not (List.exists (fun p -> p.name = n) !table) then
        invalid_arg
          (Printf.sprintf "unknown plugin %S (registered: %s)" n
             (String.concat ", " (List.map (fun p -> p.name) !table))))
    names;
  List.filter (fun p -> List.mem p.name names) !table

let sites p =
  List.filter_map
    (fun (site, hooked) -> if hooked then Some site else None)
    [
      ("stage", Option.is_some p.stage);
      ("drain-select", Option.is_some p.drain_select);
      ("fd-capture", Option.is_some p.fd_capture);
      ("image-write", Option.is_some p.image_write);
      ("restart-discovery", Option.is_some p.restart_discovery);
      ("restart-rearrange", Option.is_some p.restart_rearrange);
    ]

(* ------------------------------------------------------------------ *)
(* dispatch *)

type 'site dispatcher = t list -> node:int -> pid:int -> now:float -> 'site

(* Run [hook]'s handler of each enabled plugin that has one, in table
   order, threading [init] through [run]; one span after each. *)
let fold enabled ~node ~pid ~now ~site hook init run =
  List.fold_left
    (fun acc p ->
      match hook p with
      | None -> acc
      | Some h ->
        let acc = run h acc in
        if Trace.on () then
          Trace.span ~node ~pid ~cat:"plugin"
            ~name:(Printf.sprintf "plugin/%s/%s" p.name site)
            ~time:now ~dur:0. ();
        acc)
    init enabled

let stage enabled ~node ~pid ~now phase stg =
  let site = (match phase with `Pre -> "pre-" | `Post -> "post-") ^ Faults.stage_name stg in
  fold enabled ~node ~pid ~now ~site (fun p -> p.stage) () (fun h () -> h phase stg)

let drain_select enabled ~node ~pid ~now sock =
  fold enabled ~node ~pid ~now ~site:"drain-select" (fun p -> p.drain_select) false
    (fun h skip -> h sock || skip)

let fd_capture enabled ~node ~pid ~now desc info =
  fold enabled ~node ~pid ~now ~site:"fd-capture" (fun p -> p.fd_capture) info (fun h info ->
      h desc info)

let image_write enabled ~node ~pid ~now image =
  fold enabled ~node ~pid ~now ~site:"image-write" (fun p -> p.image_write) () (fun h () -> h image)

let restart_discovery enabled ~node ~pid ~now kernel ~eof =
  fold enabled ~node ~pid ~now ~site:"restart-discovery" (fun p -> p.restart_discovery) None
    (fun h desc -> h kernel ~eof desc)

let restart_rearrange enabled ~node ~pid ~now kernel image proc =
  fold enabled ~node ~pid ~now ~site:"restart-rearrange" (fun p -> p.restart_rearrange) ()
    (fun h () -> h kernel image proc)
