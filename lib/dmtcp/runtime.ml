type pstate = {
  mutable upid : Upid.t;
  mutable vpid : int;
  mutable conns : Conn_table.t;
  mutable conn_seq : int;
  mutable critical : int;
  pty_drains : (int, string * string) Hashtbl.t;
  mutable delta_prev : (string * int) option;
      (** previous checkpoint's image name and chain depth (0 = full):
          the base the next incremental checkpoint deltas against *)
  mutable ckpt_seq : int;
      (** per-process checkpoint counter; incremental mode suffixes the
          image filename with it so a delta's base is never overwritten *)
  mutable forked_pending : bool;
      (** a forked background write is still in flight; the next
          checkpoint's fork waits for it (one outstanding child) *)
}

type op_info = {
  mutable started : float;
  mutable finished : float;
  mutable images : (int * string) list;
  mutable total_compressed : int;
  mutable total_uncompressed : int;
  mutable nprocs : int;
}

let fresh_op () =
  { started = 0.; finished = 0.; images = []; total_compressed = 0; total_uncompressed = 0; nprocs = 0 }

(* One committed flat image file per (lineage, generation): what the
   flat-file reaper unlinks once the generation ages out of retention. *)
type image_record = {
  ir_generation : int;
  ir_node : int;
  ir_path : string;
}

(* Per-coordinator-domain operation records.  Each job-scoped
   coordinator (one per scheduler job, at its own port) tracks its own
   checkpoint/restart rounds so concurrent ops on disjoint jobs never
   clobber each other's since-guards.  Keyed by coordinator *port*
   alone: a restart may migrate the coordinator to a new host, but the
   port is stable per computation. *)
type domain = {
  mutable d_ckpt : op_info;
  mutable d_last : op_info option;
  mutable d_restart : op_info;
  mutable d_expected : int;
  mutable d_refill : int;
  mutable d_rounds : int;  (* checkpoint rounds started, ever *)
}

type t = {
  cl : Simos.Cluster.t;
  opts : Options.t;
  plugins : Plugins.t list;  (* [opts.plugins], resolved once at install *)
  procs : (int * int, pstate) Hashtbl.t;
  sock_owner : (int, (int * int) * int) Hashtbl.t;
  vpids : (int, int * int) Hashtbl.t;
  domains : (int, domain) Hashtbl.t;  (* coordinator port -> records *)
  mutable gen : int;
  store : Store.t option;
  lineage_images : (string, image_record list) Hashtbl.t;  (* flat mode only *)
  pinned : (string, int) Hashtbl.t;  (* flat mode: lineage -> generation the reaper must keep *)
  mutable observer : node:int -> pid:int -> Faults.stage -> unit;
  mutable last_status : int option;  (* the last dmtcp_command --status reply *)
  aware_hooks : (string, (unit -> unit) option * (unit -> unit) option) Hashtbl.t;
      (* program name -> dmtcpaware pre- and post-checkpoint hooks *)
}

(* The runtime installed on a cluster lives in its run store, where the
   DMTCP programs find it through their ctx. *)
let installed : t option Simos.Local.key = Simos.Local.key (fun () -> None)

let find (ctx : Simos.Program.ctx) = Simos.Local.get ctx.local installed

let of_ctx ctx =
  match find ctx with
  | Some t -> t
  | None -> failwith "Dmtcp.Runtime.of_ctx: no runtime installed on this cluster"

let no_observer ~node:_ ~pid:_ (_ : Faults.stage) = ()
let notify t ~node ~pid stage = t.observer ~node ~pid stage

let with_observer t observer f =
  let previous = t.observer in
  t.observer <- observer;
  Fun.protect ~finally:(fun () -> t.observer <- previous) f

let last_status t = t.last_status
let note_status t n = t.last_status <- Some n
let aware_hooks t = t.aware_hooks

let cluster t = t.cl
let options t = t.opts
let plugins t = t.plugins
let kernel_of t ~node = Simos.Cluster.kernel t.cl node
let proc_of t ~node ~pid = Simos.Kernel.find_process (kernel_of t ~node) ~pid
let pstate_of t ~node ~pid = Hashtbl.find_opt t.procs (node, pid)

let hijacked_processes t =
  Hashtbl.fold
    (fun (node, pid) ps acc ->
      match proc_of t ~node ~pid with
      | Some p when p.Simos.Kernel.pstate = Simos.Kernel.Running -> (node, pid, ps) :: acc
      | _ -> acc)
    t.procs []
  |> List.sort compare

let register_sock_owner t ~sock_id ~node ~pid ~fd = Hashtbl.replace t.sock_owner sock_id ((node, pid), fd)

let peer_entry t sock =
  match Simnet.Fabric.peer_id sock with
  | None -> None
  | Some peer_sock_id -> (
    match Hashtbl.find_opt t.sock_owner peer_sock_id with
    | None -> None
    | Some ((node, pid), fd) -> (
      match pstate_of t ~node ~pid with
      | None -> None
      | Some ps -> (
        match Conn_table.find ps.conns ~fd with
        | Some e -> Some (ps, e)
        | None -> None)))

let vpid_taken t vpid = Hashtbl.mem t.vpids vpid
let claim_vpid t ~vpid ~node ~pid = Hashtbl.replace t.vpids vpid (node, pid)
let release_vpid t ~vpid = Hashtbl.remove t.vpids vpid
let resolve_vpid t vpid = Hashtbl.find_opt t.vpids vpid

let fresh_domain () =
  {
    d_ckpt = fresh_op ();
    d_last = None;
    d_restart = fresh_op ();
    d_expected = 0;
    d_refill = 0;
    d_rounds = 0;
  }

let port_of ?port t =
  match port with
  | Some p -> p
  | None -> t.opts.Options.coord_port

let dom ?port t =
  let p = port_of ?port t in
  match Hashtbl.find_opt t.domains p with
  | Some d -> d
  | None ->
    let d = fresh_domain () in
    Hashtbl.add t.domains p d;
    d

let ckpt_info ?port t = (dom ?port t).d_ckpt
let restart_info ?port t = (dom ?port t).d_restart

let note_ckpt_start ?port t =
  let d = dom ?port t in
  d.d_ckpt <- fresh_op ();
  d.d_ckpt.started <- Simos.Cluster.now t.cl;
  d.d_rounds <- d.d_rounds + 1

let note_ckpt_end ?port t =
  let d = dom ?port t in
  d.d_ckpt.finished <- Simos.Cluster.now t.cl;
  if d.d_ckpt.nprocs > 0 then d.d_last <- Some d.d_ckpt

let last_completed_ckpt ?port t = (dom ?port t).d_last
let ckpt_rounds ?port t = (dom ?port t).d_rounds

let note_restart_start ?port t =
  let d = dom ?port t in
  d.d_restart <- fresh_op ();
  d.d_refill <- 0;
  d.d_restart.started <- Simos.Cluster.now t.cl

let note_restart_end ?port t =
  let d = dom ?port t in
  d.d_restart.finished <- max d.d_restart.finished (Simos.Cluster.now t.cl);
  d.d_restart.nprocs <- d.d_restart.nprocs + 1

let set_restart_expected ?port t n = (dom ?port t).d_expected <- n
let restart_expected ?port t = (dom ?port t).d_expected

(* Restart reuses the checkpoint algorithm's global barrier between
   refill and resume (paper §4.4 step 5 resumes "at Barrier 5"): no
   restart process may resume user threads until every restart process
   has refilled its kernel buffers, or fresh traffic could overtake the
   refilled bytes.  Scoped per coordinator domain so concurrent restart
   waves of different jobs never count each other's arrivals. *)
let arrive_refill_barrier ?port t =
  let d = dom ?port t in
  d.d_refill <- d.d_refill + 1

let refill_barrier_passed ?port t =
  let d = dom ?port t in
  d.d_expected > 0 && d.d_refill >= d.d_expected

let forget_process t ~node ~pid =
  match Hashtbl.find_opt t.procs (node, pid) with
  | None -> ()
  | Some ps ->
    release_vpid t ~vpid:ps.vpid;
    Hashtbl.remove t.procs (node, pid)

let store t = t.store

let record_image ?port t ~node ~path ~sizes =
  let d = dom ?port t in
  d.d_ckpt.images <- (node, path) :: d.d_ckpt.images;
  d.d_ckpt.total_compressed <- d.d_ckpt.total_compressed + sizes.Mtcp.Image.compressed;
  d.d_ckpt.total_uncompressed <- d.d_ckpt.total_uncompressed + sizes.Mtcp.Image.uncompressed;
  d.d_ckpt.nprocs <- d.d_ckpt.nprocs + 1

(* Flat-file retention: record the committed image in its lineage's
   ledger, then unlink the image files of generations older than the
   newest [keep_generations] of that lineage.  Without this, every
   restart leaves the previous generation's files on its target forever
   and long interval-checkpointed runs grow target usage without bound.
   Under the store nothing calls this: images live in the catalog, and
   its GC applies. *)
let prune_images t ~node ~path ~upid =
  let keep = t.opts.Options.keep_generations in
  if keep > 0 then begin
    let lineage = Upid.lineage upid in
    let gen = upid.Upid.generation in
    let existing = Option.value ~default:[] (Hashtbl.find_opt t.lineage_images lineage) in
    (* same-generation interval checkpoints overwrite their file in
       place, so one record per (lineage, generation) *)
    let records =
      if List.exists (fun r -> r.ir_generation = gen && r.ir_path = path && r.ir_node = node) existing
      then existing
      else { ir_generation = gen; ir_node = node; ir_path = path } :: existing
    in
    let gens = List.map (fun r -> r.ir_generation) records |> List.sort_uniq compare |> List.rev in
    let doomed, kept =
      match List.nth_opt gens (keep - 1) with
      | None -> ([], records)
      | Some oldest_kept ->
        (* a pinned generation (scheduler holds it as a preempted job's
           only restart image) is exempt even when pid reuse has piled a
           newer job's generations onto this lineage *)
        let protected_ r =
          match Hashtbl.find_opt t.pinned lineage with
          | Some g -> r.ir_generation >= g
          | None -> false
        in
        List.partition (fun r -> r.ir_generation < oldest_kept && not (protected_ r)) records
    in
    List.iter
      (fun r -> ignore (Simos.Vfs.unlink (Simos.Kernel.vfs (kernel_of t ~node:r.ir_node)) r.ir_path))
      doomed;
    Hashtbl.replace t.lineage_images lineage kept
  end

(* Retention pins: the scheduler pins a preempted/requeued job's newest
   checkpoint so that whichever retention applies, the flat reaper above
   or the store GC, cannot collect the only image the job can restart
   from. *)
let pin_lineage t ~lineage ~generation =
  match t.store with
  | Some s -> Store.pin s ~lineage ~generation
  | None -> Hashtbl.replace t.pinned lineage generation

let unpin_lineage t ~lineage =
  match t.store with
  | Some s -> Store.unpin s ~lineage
  | None -> Hashtbl.remove t.pinned lineage

let bump_generation t = t.gen <- t.gen + 1

let with_pstate t ~node ~pid f =
  match pstate_of t ~node ~pid with
  | Some ps -> f ps
  | None -> ()

let register_pstate t ~node ~pid ps = Hashtbl.replace t.procs (node, pid) ps

let enter_critical t ~node ~pid = with_pstate t ~node ~pid (fun ps -> ps.critical <- ps.critical + 1)
let leave_critical t ~node ~pid =
  with_pstate t ~node ~pid (fun ps -> ps.critical <- max 0 (ps.critical - 1))

(* ------------------------------------------------------------------ *)
(* Wrapper (hook) implementations *)

let fresh_conn_id t ~node ~pid ps =
  let seq = ps.conn_seq in
  ps.conn_seq <- seq + 1;
  Conn_id.make ~hostid:node ~pid ~timestamp:(Simos.Cluster.now t.cl) ~seq

let make_pstate t ~node ~pid =
  {
    upid = Upid.make ~hostid:node ~pid ~generation:t.gen;
    vpid = pid;
    conns = Conn_table.create ();
    conn_seq = 0;
    critical = 0;
    pty_drains = Hashtbl.create 4;
    delta_prev = None;
    ckpt_seq = 0;
    forked_pending = false;
  }

let manager_prog = "dmtcp:mgr"

let spawn_manager k proc =
  let inst = Simos.Program.instantiate ~name:manager_prog ~argv:[] in
  ignore (Simos.Kernel.add_thread k proc ~inst ~manager:true ())

let has_live_manager (proc : Simos.Kernel.process) =
  List.exists
    (fun (th : Simos.Kernel.thread) ->
      th.Simos.Kernel.manager && th.Simos.Kernel.tstate <> Simos.Kernel.Dead)
    proc.Simos.Kernel.threads

let on_spawn t k (proc : Simos.Kernel.process) =
  let node = Simos.Kernel.node_id k in
  let pid = proc.Simos.Kernel.pid in
  (match pstate_of t ~node ~pid with
  | Some _ -> ()  (* exec of an already-tracked process *)
  | None ->
    let ps = make_pstate t ~node ~pid in
    Hashtbl.replace t.procs (node, pid) ps;
    claim_vpid t ~vpid:ps.vpid ~node ~pid);
  if not (has_live_manager proc) then spawn_manager k proc

let rec on_fork t k ~(parent : Simos.Kernel.process) ~(child : Simos.Kernel.process) =
  let node = Simos.Kernel.node_id k in
  (* Virtual-pid conflict (paper §4.5): the fresh child's virtual pid is
     its real pid; if a restored process already holds that vpid,
     terminate the child and fork again. *)
  if vpid_taken t child.Simos.Kernel.pid then begin
    let child' = Simos.Kernel.refork k ~child in
    on_fork t k ~parent ~child:child'
  end
  else begin
    let pid = child.Simos.Kernel.pid in
    let parent_ps = pstate_of t ~node ~pid:parent.Simos.Kernel.pid in
    let ps = make_pstate t ~node ~pid in
    (match parent_ps with
    | Some pps -> ps.conns <- Conn_table.clone pps.conns
    | None -> ());
    Hashtbl.replace t.procs (node, pid) ps;
    claim_vpid t ~vpid:pid ~node ~pid;
    if not (has_live_manager child) then spawn_manager k child
  end

let sock_of_desc (desc : Simos.Fdesc.t) =
  match desc.Simos.Fdesc.kind with
  | Simos.Fdesc.Sock s -> Some s
  | _ -> None

(* Socket and accept wrappers: a connection-table entry for the new
   socket, Connector until connected — the connect wrapper has nothing to
   record.  An accepted socket is the Acceptor and adopts the connector's
   globally unique ID (paper §4.4 step 2). *)
let on_socket t ~role k (proc : Simos.Kernel.process) ~fd (desc : Simos.Fdesc.t) =
  match sock_of_desc desc with
  | None -> ()
  | Some s ->
    let node = Simos.Kernel.node_id k in
    let pid = proc.Simos.Kernel.pid in
    with_pstate t ~node ~pid (fun ps ->
        let kind = if Simnet.Fabric.is_unix s then Conn_table.Unixsock else Conn_table.Tcp in
        let entry =
          Conn_table.entry ~conn_id:(fresh_conn_id t ~node ~pid ps) ~role ~kind
            ~desc_id:desc.Simos.Fdesc.desc_id
        in
        (if role = Conn_table.Acceptor then
           match peer_entry t s with
           | Some (_, peer) -> entry.Conn_table.conn_id <- peer.Conn_table.conn_id
           | None -> ());
        Conn_table.add ps.conns ~fd entry;
        register_sock_owner t ~sock_id:(Simnet.Fabric.id s) ~node ~pid ~fd)

let promote_pipe t k (proc : Simos.Kernel.process) =
  let node = Simos.Kernel.node_id k in
  let pid = proc.Simos.Kernel.pid in
  match pstate_of t ~node ~pid with
  | None -> None
  | Some ps ->
    (* The pipe wrapper promotes pipes into socketpairs (paper §4.5) so
       the drain/refill machinery and cross-host restart apply. *)
    let a, b = Simnet.Fabric.socketpair (Simos.Kernel.fabric k) ~host:node in
    let desc_a = Simos.Kernel.make_desc k (Simos.Fdesc.Sock a) in
    let desc_b = Simos.Kernel.make_desc k (Simos.Fdesc.Sock b) in
    let rfd = Simos.Kernel.alloc_fd k proc desc_a in
    let wfd = Simos.Kernel.alloc_fd k proc desc_b in
    let conn_id = fresh_conn_id t ~node ~pid ps in
    let entry role (desc : Simos.Fdesc.t) =
      Conn_table.entry ~conn_id ~role ~kind:Conn_table.Pair ~desc_id:desc.Simos.Fdesc.desc_id
    in
    Conn_table.add ps.conns ~fd:rfd (entry Conn_table.Pair_a desc_a);
    Conn_table.add ps.conns ~fd:wfd (entry Conn_table.Pair_b desc_b);
    register_sock_owner t ~sock_id:(Simnet.Fabric.id a) ~node ~pid ~fd:rfd;
    register_sock_owner t ~sock_id:(Simnet.Fabric.id b) ~node ~pid ~fd:wfd;
    Some (rfd, wfd)

let on_exit t k (proc : Simos.Kernel.process) =
  let node = Simos.Kernel.node_id k in
  let pid = proc.Simos.Kernel.pid in
  match pstate_of t ~node ~pid with
  | None -> ()
  | Some ps ->
    release_vpid t ~vpid:ps.vpid;
    Hashtbl.remove t.procs (node, pid)

(* Close wrapper: an fd-table slot with a connection entry is going
   away, so the entry must not linger (a stale entry is a dangling
   socket id in the connection table).  If the closing fd is the
   registered endpoint owner, hand ownership to another checkpointed
   process still holding the same open-file description (fork shares
   socketpair ends); drop the registration when nobody is left. *)
let on_close t k (proc : Simos.Kernel.process) ~fd (desc : Simos.Fdesc.t) =
  let node = Simos.Kernel.node_id k in
  let pid = proc.Simos.Kernel.pid in
  match pstate_of t ~node ~pid with
  | None -> ()
  | Some ps ->
    Conn_table.remove ps.conns ~fd;
    (match sock_of_desc desc with
    | None -> ()
    | Some s -> (
      let sock_id = Simnet.Fabric.id s in
      match Hashtbl.find_opt t.sock_owner sock_id with
      | Some ((onode, opid), ofd) when onode = node && opid = pid && ofd = fd -> (
        let heir =
          List.find_map
            (fun (n2, p2, ps2) ->
              if n2 = node && p2 = pid then None
              else
                match proc_of t ~node:n2 ~pid:p2 with
                | None -> None
                | Some proc2 ->
                  Simos.Kernel.Fdtbl.fold
                    (fun fd2 (desc2 : Simos.Fdesc.t) acc ->
                      match acc with
                      | Some _ -> acc
                      | None ->
                        if
                          desc2.Simos.Fdesc.desc_id = desc.Simos.Fdesc.desc_id
                          && Conn_table.find ps2.conns ~fd:fd2 <> None
                        then Some (n2, p2, fd2)
                        else None)
                    proc2.Simos.Kernel.fdtable None)
            (hijacked_processes t)
        in
        match heir with
        | Some (n2, p2, f2) -> register_sock_owner t ~sock_id ~node:n2 ~pid:p2 ~fd:f2
        | None -> Hashtbl.remove t.sock_owner sock_id)
      | _ -> ()))

let make_hooks t : Simos.Kernel.hooks =
  {
    Simos.Kernel.default_hooks with
    on_spawn = (fun k proc -> on_spawn t k proc);
    on_fork = (fun k ~parent ~child -> on_fork t k ~parent ~child);
    on_socket = on_socket t ~role:Conn_table.Connector;
    on_accept = on_socket t ~role:Conn_table.Acceptor;
    on_pipe = (fun k proc -> promote_pipe t k proc);
    on_close = (fun k proc ~fd desc -> on_close t k proc ~fd desc);
    on_exit = (fun k proc -> on_exit t k proc);
  }

let install cl ?(options = Options.default) () =
  (* unknown plugin names raise here, before the cluster is hooked *)
  let plugins = Plugins.resolve options.Options.plugins in
  let store =
    if options.Options.store then
      Some
        (Store.create ~replicas:options.Options.store_replicas
           ~keep:options.Options.keep_generations ~engine:(Simos.Cluster.engine cl)
           ~targets:(Array.init (Simos.Cluster.nodes cl) (Simos.Cluster.target cl))
           ())
    else None
  in
  let t =
    {
      cl;
      opts = options;
      plugins;
      procs = Hashtbl.create 64;
      sock_owner = Hashtbl.create 128;
      vpids = Hashtbl.create 64;
      domains = Hashtbl.create 8;
      gen = 0;
      store;
      lineage_images = Hashtbl.create 16;
      pinned = Hashtbl.create 8;
      observer = no_observer;
      last_status = None;
      aware_hooks = Hashtbl.create 8;
    }
  in
  Simos.Cluster.set_hooks cl (make_hooks t);
  Simos.Local.set (Simos.Cluster.local cl) installed (Some t);
  t
