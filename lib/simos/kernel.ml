type sigaction = Sig_default | Sig_ignore | Sig_handler of string

(* Keyed by fd, without polymorphic compare.  Iteration stays the
   generic [Hashtbl]'s order: exit and [vanish_process] close fds in
   fold order, and that order is observable.  Lookups read an
   fd-indexed slot array instead of hashing; [replace], [remove] and
   [copy] keep it in step.  An fd outside [0, slot_cap) (a corrupt
   image may name any) is looked up in the hash table, so no fd grows
   the array past the cap. *)
module Fdtbl = struct
  module H = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash = Hashtbl.hash
  end)

  type 'a t = { h : 'a H.t; mutable slots : 'a option array }

  let slot_cap = 1024
  let create n = { h = H.create n; slots = [||] }
  let copy t = { h = H.copy t.h; slots = Array.copy t.slots }
  let length t = H.length t.h
  let iter f t = H.iter f t.h
  let fold f t acc = H.fold f t.h acc

  let in_slots fd = fd >= 0 && fd < slot_cap

  let find_opt t fd =
    if not (in_slots fd) then H.find_opt t.h fd
    else if fd < Array.length t.slots then Array.unsafe_get t.slots fd
    else None

  let replace t fd v =
    H.replace t.h fd v;
    if in_slots fd then begin
      let n = Array.length t.slots in
      if fd >= n then
        t.slots <- Array.init (min slot_cap (max 16 (2 * fd))) (fun i -> if i < n then t.slots.(i) else None);
      t.slots.(fd) <- Some v
    end

  let remove t fd =
    H.remove t.h fd;
    if fd >= 0 && fd < Array.length t.slots then t.slots.(fd) <- None
end

type thread_state = Ready | Blocked of Program.wait | Dead

type thread = {
  tid : int;
  tproc : process;
  mutable inst : Program.instance;
  mutable tstate : thread_state;
  mutable suspended : bool;
  mutable step_pending : bool;
  mutable generation : int;
  mutable manager : bool;
  mutable wake_handle : Sim.Engine.handle option;
  mutable wait_key : int list;
  mutable wait_gen : int;
  mutable wait : Sim.Wake.wait;
  mutable wait_descs : Fdesc.t array;
  mutable wait_cells : Sim.Wake.cell array;
  mutable ctx : Program.ctx option;
  mutable ctx_wrapped : bool;
}

and pstate = Running | Zombie of int | Reaped

and process = {
  pid : int;
  mutable ppid : int;
  pnode : int;
  mutable threads : thread list;
  fdtable : Fdesc.t Fdtbl.t;
  mutable fd_gen : int;
  mutable next_fd : int;
  mutable space : Mem.Address_space.t;
  mutable env : (string * string) list;
  mutable pstate : pstate;
  mutable hijacked : bool;
  mutable next_tid : int;
  mutable cmdline : string list;
  sigtable : (int, sigaction) Hashtbl.t;
  mutable pending_signals : int list;
  mutable pager : (Mem.Region.t -> int -> float) option;
  mutable fault_debt : float;
}

(* One cluster's description and pty numbering, shared by its kernels
   as a fabric numbers its sockets: ids start at 1 in each cluster, and
   they are encoded into checkpoint images. *)
type ids = { mutable last_desc : int; mutable last_pty : int }

let ids () = { last_desc = 0; last_pty = 0 }

type t = {
  knode_id : int;
  eng : Sim.Engine.t;
  fab : Simnet.Fabric.t;
  klocal : Local.t;
  kids : ids;
  kvfs : Vfs.t;
  store : Storage.Target.t;
  kcores : int;
  procs : (int, process) Hashtbl.t;
  mutable live : thread array;
      (* the threads of the [Running] processes, in the order a walk of
         [procs] meets them; see [live_threads] *)
  mutable live_current : bool;
  mutable next_pid : int;
  krng : Util.Rng.t;
  mutable khooks : hooks;
  mutable peers : t array;
  mutable poke_scheduled : bool;
}

and hooks = {
  on_spawn : t -> process -> unit;
  on_fork : t -> parent:process -> child:process -> unit;
  on_exec : t -> process -> prog:string -> argv:string list -> string * string list;
  on_ssh : t -> process -> host:int -> prog:string -> argv:string list -> string * string list;
  on_socket : t -> process -> fd:int -> Fdesc.t -> unit;
  on_accept : t -> process -> fd:int -> Fdesc.t -> unit;
  on_pipe : t -> process -> (int * int) option;
  on_close : t -> process -> fd:int -> Fdesc.t -> unit;
  on_exit : t -> process -> unit;
}

let default_hooks =
  {
    on_spawn = (fun _ _ -> ());
    on_fork = (fun _ ~parent:_ ~child:_ -> ());
    on_exec = (fun _ _ ~prog ~argv -> (prog, argv));
    on_ssh = (fun _ _ ~host:_ ~prog ~argv -> (prog, argv));
    on_socket = (fun _ _ ~fd:_ _ -> ());
    on_accept = (fun _ _ ~fd:_ _ -> ());
    on_pipe = (fun _ _ -> None);
    on_close = (fun _ _ ~fd:_ _ -> ());
    on_exit = (fun _ _ -> ());
  }

let create ~node_id ~engine ~fabric ~storage ~local ~ids ?(cores = 4) ?seed () =
  let seed = Option.value seed ~default:(Int64.of_int (0x9E37 + node_id)) in
  {
    knode_id = node_id;
    eng = engine;
    fab = fabric;
    klocal = local;
    kids = ids;
    kvfs = Vfs.create ();
    store = storage;
    kcores = cores;
    procs = Hashtbl.create 32;
    live = [||];
    live_current = true;
    next_pid = 100 * (node_id + 1);
    krng = Util.Rng.create seed;
    khooks = default_hooks;
    peers = [||];
    poke_scheduled = false;
  }

let set_peers t peers = t.peers <- peers
let set_hooks t hooks = t.khooks <- hooks
let hooks t = t.khooks
let node_id t = t.knode_id
let engine t = t.eng
let fabric t = t.fab
let vfs t = t.kvfs

let make_desc t kind =
  t.kids.last_desc <- t.kids.last_desc + 1;
  Fdesc.make ~id:t.kids.last_desc kind

let make_pty t =
  t.kids.last_pty <- t.kids.last_pty + 1;
  Pty.create ~id:t.kids.last_pty

(* Every process gets a pid-derived procfs entry, the canonical example
   of a resource whose *name* breaks across restart: a checkpointed fd
   on /proc/<pid>/status names the dead pid until a restart-rearrange
   plugin re-points it.  Entries for dead pids linger, as real procfs
   readers of a cached fd would observe. *)
let write_proc_status t ~pid =
  let f = Vfs.open_or_create t.kvfs (Printf.sprintf "/proc/%d/status" pid) in
  Vfs.truncate f;
  Vfs.append f (Printf.sprintf "pid:%d\n" pid)
let storage t = t.store
let cores t = t.kcores

(* Lifecycle and fd-op accounting; the instants carry the simulated time
   so a collected trace interleaves exactly with protocol spans. *)
let m_spawns = Trace.Metrics.counter "kernel.spawns"
let m_forks = Trace.Metrics.counter "kernel.forks"
let m_execs = Trace.Metrics.counter "kernel.execs"
let m_exits = Trace.Metrics.counter "kernel.exits"
let m_fd_opens = Trace.Metrics.counter "kernel.fd_opens"
let m_fd_closes = Trace.Metrics.counter "kernel.fd_closes"
let m_read_bytes = Trace.Metrics.counter "kernel.read_bytes"
let m_write_bytes = Trace.Metrics.counter "kernel.write_bytes"
let m_page_faults = Trace.Metrics.counter "kernel.page_faults"

let trace_proc t ~pid name args =
  if Trace.on () then
    Trace.instant ~node:t.knode_id ~pid ~cat:"kernel" ~name ~args ~time:(Sim.Engine.now t.eng) ()

(* yield cost between consecutive steps of a runnable thread *)
let quantum = 2e-6

(* The live threads: those of the [Running] processes, in [procs]'s
   [Hashtbl] order and each process's list order.  A poke walks them in
   this order, which is observable (it orders same-instant events), and
   [load_factor] counts the ready ones.  [live_threads] keeps them in an
   array, rebuilt on first use after [stale].  Only this module writes a
   process's [threads] or [pstate] (bin/ci.sh checks it), and every
   change that can move the walk calls [stale]: an insert into [procs]
   (it may resize the table, which reorders it), a change to a thread
   list, and a [Running] process leaving (exit, [vanish_process];
   [refork] inserts its new process right after removing the old).
   Removing a process that is not [Running] leaves the walk as it was:
   [Hashtbl.remove] never reorders the other entries. *)
let walk_live t =
  Hashtbl.fold
    (fun _ p acc -> match p.pstate with Running -> List.rev_append p.threads acc | Zombie _ | Reaped -> acc)
    t.procs []
  |> List.rev |> Array.of_list

let stale t = t.live_current <- false

let live_threads t =
  if not t.live_current then begin
    t.live <- walk_live t;
    t.live_current <- true
  end;
  t.live

let add_proc t proc =
  Hashtbl.replace t.procs proc.pid proc;
  stale t

let runnable live =
  let n = ref 0 in
  for i = 0 to Array.length live - 1 do
    let th = Array.unsafe_get live i in
    match th.tstate with Ready when not th.suspended -> incr n | Ready | Blocked _ | Dead -> ()
  done;
  !n

let load_of t n = Float.max 1.0 (float_of_int n /. float_of_int t.kcores)
let load_factor t = load_of t (runnable (live_threads t))

(* ------------------------------------------------------------------ *)
(* Wait conditions *)

let fd_desc proc fd = Fdtbl.find_opt proc.fdtable fd

(* Every change to an fd table goes through these two and bumps
   [fd_gen]. *)
let set_fd proc fd desc =
  Fdtbl.replace proc.fdtable fd desc;
  proc.fd_gen <- proc.fd_gen + 1

let unset_fd proc fd =
  Fdtbl.remove proc.fdtable fd;
  proc.fd_gen <- proc.fd_gen + 1

let wait_satisfied t proc = function
  | Program.Readable fd -> (
    match fd_desc proc fd with
    | None -> true (* read will return EBADF; wake it *)
    | Some d -> Fdesc.readable d)
  | Program.Readable_any fds ->
    List.exists
      (fun fd ->
        match fd_desc proc fd with
        | None -> true
        | Some d -> Fdesc.readable d)
      fds
  | Program.Writable fd -> (
    match fd_desc proc fd with
    | None -> true
    | Some d -> Fdesc.writable d)
  | Program.Child ->
    (* wake if there is a zombie child to reap, or no children at all
       (the wait will return ECHILD) *)
    let has_child = ref false in
    let has_zombie = ref false in
    Hashtbl.iter
      (fun _ p ->
        if p.ppid = proc.pid && p.pstate <> Reaped then begin
          has_child := true;
          match p.pstate with
          | Zombie _ -> has_zombie := true
          | Running | Reaped -> ()
        end)
      t.procs;
    (not !has_child) || !has_zombie
  | Program.Sleep_until deadline -> Sim.Engine.now t.eng >= deadline
  | Program.Stopped -> false

(* The wait record.  A thread blocked reading sockets, pipes or ptys
   keeps the fd list its last full scan found unsatisfied
   ([wait_key]), its process's [fd_gen] then, and one wake cell per
   description the fds resolved to ([wait_descs]), armed on the object
   behind it under the description's slot ([wait_cells], all of one
   [wait]).  A description whose cell has not fired is still
   unreadable: every change that can make it readable fires its
   object's cells, and every change to the fd table bumps [fd_gen].  So
   while no cell has fired and [fd_gen] stands still the wait cannot
   have become satisfied.  A regular file is untracked (another
   description's append makes it readable unannounced), and so is every
   other kind of wait; [no_record] marks them. *)
let no_record = -1

let no_wait =
  let w = Sim.Wake.wait ~size:0 in
  Sim.Wake.kill w;
  w

let record_current th = th.wait_gen = th.tproc.fd_gen && Sim.Wake.quiet th.wait

let drop_record th =
  if th.wait_gen <> no_record then begin
    Sim.Wake.kill th.wait;
    th.wait <- no_wait;
    th.wait_key <- [];
    th.wait_descs <- [||];
    th.wait_cells <- [||];
    th.wait_gen <- no_record
  end

(* [wait_satisfied] over [fds], resolving each once.  When none is
   readable and none is a regular file, the scan arms a cell on each
   description and becomes the record: its key is set only here, once
   the scan completes. *)
let scan_wait t th fds =
  drop_record th;
  let proc = th.tproc in
  let rec scan homes = function
    | [] ->
      let homes = Array.of_list homes in
      let w = Sim.Wake.wait ~size:(Array.length homes) in
      th.wait <- w;
      th.wait_descs <- Array.map fst homes;
      th.wait_cells <- Array.mapi (fun slot (_, home) -> Sim.Wake.arm w home ~slot) homes;
      th.wait_key <- fds;
      th.wait_gen <- proc.fd_gen;
      false
    | fd :: rest -> (
      match fd_desc proc fd with
      | None -> true
      | Some d when Fdesc.readable d -> true
      | Some d -> (
        match Fdesc.wake_cells d with
        | None -> wait_satisfied t proc (Program.Readable_any rest)
        | Some home -> scan ((d, home) :: homes) rest))
  in
  scan [] fds

(* A stale record, or one a thread blocking again on the same fds with
   the same [fd_gen] finds: only the descriptions whose cells fired can
   have become readable.  If none has, re-arm just those. *)
let reread th =
  let w = th.wait in
  if Sim.Wake.quiet w then false
  else if Sim.Wake.exists_fired w th.wait_descs Fdesc.readable then true
  else begin
    Sim.Wake.rearm w th.wait_cells;
    false
  end

let same_key th = function
  | Program.Readable fd -> ( match th.wait_key with [ k ] -> k = fd | _ -> false)
  | Program.Readable_any fds -> th.wait_key == fds || List.equal Int.equal th.wait_key fds
  | Program.Writable _ | Program.Child | Program.Sleep_until _ | Program.Stopped -> false

(* [wait_satisfied], through the record when it still describes [w]. *)
let check_wait t th w =
  match w with
  | (Program.Readable _ | Program.Readable_any _)
    when th.wait_gen = th.tproc.fd_gen && same_key th w ->
    reread th
  | Program.Readable fd -> scan_wait t th [ fd ]
  | Program.Readable_any fds -> scan_wait t th fds
  | Program.Writable _ | Program.Child | Program.Sleep_until _ | Program.Stopped ->
    drop_record th;
    wait_satisfied t th.tproc w

let get_sigaction proc signal =
  Option.value ~default:Sig_default (Hashtbl.find_opt proc.sigtable signal)

let set_sigaction proc signal action = Hashtbl.replace proc.sigtable signal action

(* ------------------------------------------------------------------ *)
(* Scheduling *)

(* Demand paging for lazy restore: while a pager is installed, any
   memory access that lands on a non-resident page marks it resident and
   charges the pager's per-page cost to the process's fault debt, which
   the scheduler drains into the thread's next delay.  Page contents are
   always materially present — the pager models time, not data. *)
let page_touch proc ~addr ~len =
  match proc.pager with
  | None -> ()
  | Some pager ->
    if len > 0 then begin
      match Mem.Address_space.find_region proc.space ~addr with
      | None -> ()
      | Some r ->
        let first = (addr - r.Mem.Region.start_addr) / Mem.Page.size in
        let last =
          min
            ((addr + len - 1 - r.Mem.Region.start_addr) / Mem.Page.size)
            (Mem.Region.npages r - 1)
        in
        for i = first to last do
          if not (Mem.Region.is_resident r i) then begin
            Mem.Region.set_resident r i;
            proc.fault_debt <- proc.fault_debt +. pager r i;
            Trace.Metrics.incr m_page_faults
          end
        done
    end

(* Accumulated page-fault time, drained into the next scheduling delay
   of whichever thread of the process runs next. *)
let take_fault_debt proc =
  let d = proc.fault_debt in
  proc.fault_debt <- 0.;
  d

let fresh_pid t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  pid

(* The one process constructor: a process with no threads yet,
   registered on the node with its procfs entry.  Spawn and restart
   start from empty tables; fork passes the parent's. *)
let new_process t ~pid ~ppid ~env ~hijacked ~cmdline ?(fdtable = Fdtbl.create 8) ?(next_fd = 3)
    ?(space = Mem.Address_space.create ()) ?(sigtable = Hashtbl.create 4) ?pager () =
  let proc =
    {
      pid;
      ppid;
      pnode = t.knode_id;
      threads = [];
      fdtable;
      fd_gen = 0;
      next_fd;
      space;
      env;
      pstate = Running;
      hijacked;
      next_tid = 1;
      cmdline;
      sigtable;
      pending_signals = [];
      pager;
      fault_debt = 0.;
    }
  in
  add_proc t proc;
  write_proc_status t ~pid;
  proc

let rec schedule_step t th ~delay =
  if not th.step_pending then begin
    th.step_pending <- true;
    let gen = th.generation in
    ignore
      (Sim.Engine.schedule t.eng ~delay (fun () ->
           if th.generation = gen then begin
             th.step_pending <- false;
             run_step t th
           end))
  end

and run_step t th =
  if th.tstate = Ready && (not th.suspended) && th.tproc.pstate = Running then begin
    match Program.step_instance (ctx_of t th) th.inst with
    | Program.B_continue -> schedule_step t th ~delay:(quantum +. take_fault_debt th.tproc)
    | Program.B_compute dt ->
      schedule_step t th
        ~delay:(Float.max quantum (dt *. load_factor t) +. take_fault_debt th.tproc)
    | Program.B_block w ->
      if check_wait t th w then
        schedule_step t th ~delay:(quantum +. take_fault_debt th.tproc)
      else begin
        th.tstate <- Blocked w;
        match w with
        | Program.Sleep_until deadline ->
          let gen = th.generation in
          let delay =
            Float.max 0. (deadline -. Sim.Engine.now t.eng) +. take_fault_debt th.tproc
          in
          th.wake_handle <-
            Some
              (Sim.Engine.schedule t.eng ~delay (fun () ->
                   th.wake_handle <- None;
                   if th.generation = gen && th.tstate = Blocked w then begin
                     th.tstate <- Ready;
                     if not th.suspended then schedule_step t th ~delay:0.
                   end))
        | Program.Readable _ | Program.Readable_any _ | Program.Writable _ | Program.Child
        | Program.Stopped ->
          ()
      end
    | Program.B_fork child_inst ->
      let child = do_fork t th.tproc child_inst in
      ignore child;
      schedule_step t th ~delay:quantum
    | Program.B_exec { prog; argv } ->
      do_exec t th ~prog ~argv;
      schedule_step t th ~delay:quantum
    | Program.B_exit code -> do_exit t th.tproc code
  end

(* One ctx per thread, rebuilt when a value [make_ctx] captured moves:
   [argv] (exec replaces the command line) or [wrapped] (the spawn
   hijack and exec flip it). *)
and ctx_of t th =
  let proc = th.tproc in
  (* DMTCP's wrappers interpose on the application, not on the injected
     library itself: manager threads bypass the hook table. *)
  let wrapped = proc.hijacked && not th.manager in
  match th.ctx with
  | Some ctx when ctx.Program.argv == proc.cmdline && th.ctx_wrapped = wrapped -> ctx
  | _ ->
    let ctx = make_ctx t th ~wrapped in
    th.ctx <- Some ctx;
    th.ctx_wrapped <- wrapped;
    ctx

and make_ctx t th ~wrapped : Program.ctx =
  let proc = th.tproc in
  let check_fd fd k =
    match fd_desc proc fd with
    | None -> `Err Errno.EBADF
    | Some d -> k d
  in
  let check_fd_res fd k =
    match fd_desc proc fd with
    | None -> Error Errno.EBADF
    | Some d -> k d
  in
  let with_sock fd k =
    match fd_desc proc fd with
    | Some { Fdesc.kind = Fdesc.Sock s; _ } -> Some (k s)
    | _ -> None
  in
  let install desc =
    let fd = proc.next_fd in
    proc.next_fd <- fd + 1;
    set_fd proc fd desc;
    Trace.Metrics.incr m_fd_opens;
    trace_proc t ~pid:proc.pid "fd/open" [ ("fd", string_of_int fd) ];
    fd
  in
  let bind_wake_sock s = Simnet.Fabric.on_activity s (fun () -> poke_later t) in
  let new_socket unix =
    let s = if unix then Simnet.Fabric.socket_unix t.fab ~host:t.knode_id else Simnet.Fabric.socket t.fab ~host:t.knode_id in
    bind_wake_sock s;
    let desc = make_desc t (Fdesc.Sock s) in
    let fd = install desc in
    if wrapped then t.khooks.on_socket t proc ~fd desc;
    fd
  in
  {
    now = (fun () -> Sim.Engine.now t.eng);
    rng = t.krng;
    node_id = t.knode_id;
    pid = proc.pid;
    ppid = (fun () -> proc.ppid);
    argv = proc.cmdline;
    getenv = (fun k -> List.assoc_opt k proc.env);
    setenv =
      (fun k v ->
        proc.env <- (k, v) :: List.remove_assoc k proc.env);
    log =
      (fun msg ->
        Logs.debug (fun m -> m "[%.6f n%d p%d t%d] %s" (Sim.Engine.now t.eng) t.knode_id proc.pid th.tid msg));
    local = t.klocal;
    open_file =
      (fun ?(create = true) path ->
        match Vfs.lookup t.kvfs path with
        | Some f -> Ok (install (make_desc t (Fdesc.File { file = f; offset = 0 })))
        | None ->
          if create then Ok (install (make_desc t (Fdesc.File { file = Vfs.open_or_create t.kvfs path; offset = 0 })))
          else Error Errno.ENOENT);
    file_exists = (fun path -> Vfs.exists t.kvfs path);
    read_fd =
      (fun fd ~max ->
        let res =
          check_fd fd (fun d ->
            match d.Fdesc.kind with
            | Fdesc.File f ->
              let data = Vfs.read_at f.file ~pos:f.offset ~len:max in
              if data = "" then `Eof
              else begin
                f.offset <- f.offset + String.length data;
                `Data data
              end
            | Fdesc.Sock s -> (
              match Simnet.Fabric.recv s ~max with
              | `Data d -> `Data d
              | `Eof -> `Eof
              | `Would_block -> `Would_block
              | `Error _ -> `Err Errno.ENOTCONN)
            | Fdesc.Pipe_r p -> (Pipe.read p ~max :> [ `Data of string | `Eof | `Would_block | `Err of Errno.t ])
            | Fdesc.Pipe_w _ -> `Err Errno.EINVAL
            | Fdesc.Pty_m p -> (
              match Pty.master_read p ~max with
              | `Data d -> `Data d
              | `Would_block -> `Would_block)
            | Fdesc.Pty_s p -> (
              match Pty.slave_read p ~max with
              | `Data d -> `Data d
              | `Would_block -> `Would_block))
        in
        (match res with
        | `Data d -> Trace.Metrics.add m_read_bytes (float_of_int (String.length d))
        | _ -> ());
        res);
    write_fd =
      (fun fd data ->
        let res =
          check_fd_res fd (fun d ->
            match d.Fdesc.kind with
            | Fdesc.File f ->
              Vfs.write_at f.file ~pos:f.offset data;
              f.offset <- f.offset + String.length data;
              poke_later t;
              Ok (String.length data)
            | Fdesc.Sock s -> (
              match Simnet.Fabric.send s data with
              | Ok n -> Ok n
              | Error Simnet.Fabric.Refused -> Error Errno.ECONNREFUSED
              | Error _ -> Error Errno.ENOTCONN)
            | Fdesc.Pipe_r _ -> Error Errno.EINVAL
            | Fdesc.Pipe_w p -> Pipe.write p data
            | Fdesc.Pty_m p -> Ok (Pty.master_write p data)
            | Fdesc.Pty_s p -> Ok (Pty.slave_write p data))
        in
        (match res with
        | Ok n -> Trace.Metrics.add m_write_bytes (float_of_int n)
        | Error _ -> ());
        res);
    close_fd = (fun fd -> remove_fd t proc ~fd);
    dup2 =
      (fun ~src ~dst ->
        check_fd_res src (fun d ->
            if src <> dst then begin
              (match fd_desc proc dst with
              | Some old -> begin
                unset_fd proc dst;
                decr_desc old
              end
              | None -> ());
              incr_desc d;
              set_fd proc dst d;
              proc.next_fd <- max proc.next_fd (dst + 1)
            end;
            Ok ()));
    fds = (fun () -> Fdtbl.fold (fun fd _ acc -> fd :: acc) proc.fdtable [] |> List.sort compare);
    set_fd_owner =
      (fun fd owner -> match fd_desc proc fd with Some d -> d.Fdesc.owner <- owner | None -> ());
    get_fd_owner = (fun fd -> match fd_desc proc fd with Some d -> d.Fdesc.owner | None -> 0);
    wake_cells = (fun fd -> Option.bind (fd_desc proc fd) Fdesc.wake_cells);
    pipe =
      (fun () ->
        match (if wrapped then t.khooks.on_pipe t proc else None) with
        | Some fds -> fds
        | None ->
          let p = Pipe.create () in
          Pipe.on_activity p (fun () -> poke_later t);
          Pipe.add_reader p;
          Pipe.add_writer p;
          let rfd = install (make_desc t (Fdesc.Pipe_r p)) in
          let wfd = install (make_desc t (Fdesc.Pipe_w p)) in
          (rfd, wfd));
    open_pty =
      (fun () ->
        let p = make_pty t in
        Pty.on_activity p (fun () -> poke_later t);
        let m = install (make_desc t (Fdesc.Pty_m p)) in
        let s = install (make_desc t (Fdesc.Pty_s p)) in
        (m, s));
    socket = (fun () -> new_socket false);
    socket_unix = (fun () -> new_socket true);
    bind =
      (fun fd ~port ->
        check_fd_res fd (fun d ->
            match d.Fdesc.kind with
            | Fdesc.Sock s -> (
              match Simnet.Fabric.bind s ~port with
              | Ok p -> Ok p
              | Error Simnet.Fabric.Addr_in_use -> Error Errno.EADDRINUSE
              | Error _ -> Error Errno.EINVAL)
            | _ -> Error Errno.EINVAL));
    bind_unix =
      (fun fd ~path ->
        check_fd_res fd (fun d ->
            match d.Fdesc.kind with
            | Fdesc.Sock s -> (
              match Simnet.Fabric.bind_unix s ~path with
              | Ok () -> Ok ()
              | Error Simnet.Fabric.Addr_in_use -> Error Errno.EADDRINUSE
              | Error _ -> Error Errno.EINVAL)
            | _ -> Error Errno.EINVAL));
    listen =
      (fun fd ~backlog ->
        check_fd_res fd (fun d ->
            match d.Fdesc.kind with
            | Fdesc.Sock s -> (
              match Simnet.Fabric.listen s ~backlog with
              | Ok () -> Ok ()
              | Error Simnet.Fabric.Addr_in_use -> Error Errno.EADDRINUSE
              | Error _ -> Error Errno.EINVAL)
            | _ -> Error Errno.EINVAL));
    accept =
      (fun fd ->
        match fd_desc proc fd with
        | Some { Fdesc.kind = Fdesc.Sock s; _ } -> (
          match Simnet.Fabric.accept s with
          | None -> None
          | Some conn ->
            bind_wake_sock conn;
            let desc = make_desc t (Fdesc.Sock conn) in
            let nfd = install desc in
            if wrapped then t.khooks.on_accept t proc ~fd:nfd desc;
            Some nfd)
        | _ -> None);
    connect =
      (fun fd addr ->
        check_fd_res fd (fun d ->
            match d.Fdesc.kind with
            | Fdesc.Sock s -> (
              match Simnet.Fabric.connect s addr with
              | Ok () -> Ok ()
              | Error _ -> Error Errno.EINVAL)
            | _ -> Error Errno.EINVAL));
    sock_state = (fun fd -> with_sock fd Simnet.Fabric.state);
    sock_refused =
      (fun fd -> match with_sock fd Simnet.Fabric.connect_refused with Some b -> b | None -> false);
    sock_local_addr =
      (fun fd -> match with_sock fd Simnet.Fabric.local_addr with Some a -> a | None -> None);
    mmap = (fun ~bytes ~kind -> Mem.Address_space.map proc.space ~kind ~perms:Mem.Region.rw ~bytes ());
    mem_write =
      (fun ~addr data ->
        page_touch proc ~addr ~len:(String.length data);
        Mem.Address_space.write proc.space ~addr data);
    mem_read =
      (fun ~addr ~len ->
        page_touch proc ~addr ~len;
        Mem.Address_space.read proc.space ~addr ~len);
    sigaction_set =
      (fun signal action ->
        set_sigaction proc signal
          (match action with
          | `Default -> Sig_default
          | `Ignore -> Sig_ignore
          | `Handler name -> Sig_handler name));
    take_signal =
      (fun () ->
        match proc.pending_signals with
        | [] -> None
        | s :: rest ->
          proc.pending_signals <- rest;
          Some s);
    spawn_thread =
      (fun ~prog ~argv ->
        let inst = Program.instantiate ~name:prog ~argv in
        let nth = add_thread_internal t proc ~inst ~manager:false ~blocked:None in
        nth.tid);
    wait_child =
      (fun () ->
        let zombie = ref None in
        let has_child = ref false in
        Hashtbl.iter
          (fun _ p ->
            if p.ppid = proc.pid && p.pstate <> Reaped then begin
              has_child := true;
              match p.pstate with
              | Zombie code when !zombie = None -> zombie := Some (p, code)
              | _ -> ()
            end)
          t.procs;
        match !zombie with
        | Some (p, code) ->
          (* a zombie is not in the live walk, so reaping it leaves the
             array current *)
          p.pstate <- Reaped;
          Hashtbl.remove t.procs p.pid;
          `Child (p.pid, code)
        | None -> if !has_child then `None else `No_children);
    ssh =
      (fun ~host ~prog ~argv ->
        if host < 0 || host >= Array.length t.peers then Error Errno.EINVAL
        else begin
          let prog, argv =
            if proc.hijacked then t.khooks.on_ssh t proc ~host ~prog ~argv else (prog, argv)
          in
          let remote = t.peers.(host) in
          let env = proc.env in
          match spawn_internal remote ~prog ~argv ~env ~ppid:0 ~hijacked:false with
          | p -> Ok p.pid
          | exception Not_found -> Error Errno.ENOENT
        end);
  }

(* ------------------------------------------------------------------ *)
(* fd helpers *)

(* an fd-table slot takes ([incr_desc]) or drops ([decr_desc]) a
   reference to a description; pipe ends also count their readers and
   writers, so EOF and EPIPE follow the last close *)
and incr_desc desc =
  Fdesc.incr_ref desc;
  match desc.Fdesc.kind with
  | Fdesc.Pipe_r p -> Pipe.add_reader p
  | Fdesc.Pipe_w p -> Pipe.add_writer p
  | _ -> ()

and decr_desc desc =
  (match desc.Fdesc.kind with
  | Fdesc.Pipe_r p -> Pipe.remove_reader p
  | Fdesc.Pipe_w p -> Pipe.remove_writer p
  | _ -> ());
  Fdesc.decr_ref desc

and remove_fd t proc ~fd =
  match Fdtbl.find_opt proc.fdtable fd with
  | None -> ()
  | Some desc ->
    if proc.hijacked then t.khooks.on_close t proc ~fd desc;
    unset_fd proc fd;
    Trace.Metrics.incr m_fd_closes;
    trace_proc t ~pid:proc.pid "fd/close" [ ("fd", string_of_int fd) ];
    decr_desc desc;
    poke_later t

(* ------------------------------------------------------------------ *)
(* poke: recheck blocked threads whose wait record is not current *)

and poke_later t =
  if not t.poke_scheduled then begin
    t.poke_scheduled <- true;
    ignore
      (Sim.Engine.schedule t.eng ~delay:0. (fun () ->
           t.poke_scheduled <- false;
           poke t))
  end

and poke t =
  let live = live_threads t in
  for i = 0 to Array.length live - 1 do
    let th = Array.unsafe_get live i in
    match th.tstate with
    | Blocked w when (not th.suspended) && (not (record_current th)) && check_wait t th w ->
      th.tstate <- Ready;
      schedule_step t th ~delay:0.
    | Ready | Blocked _ | Dead -> ()
  done

and kill_thread th =
  th.tstate <- Dead;
  th.generation <- th.generation + 1;
  drop_record th;
  (match th.wake_handle with
  | Some h ->
    Sim.Engine.cancel h;
    th.wake_handle <- None
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Process lifecycle *)

and spawn_internal t ~prog ~argv ~env ~ppid ~hijacked =
  let inst = Program.instantiate ~name:prog ~argv in
  let pid = fresh_pid t in
  let proc = new_process t ~pid ~ppid ~env ~hijacked ~cmdline:(prog :: argv) () in
  Trace.Metrics.incr m_spawns;
  trace_proc t ~pid "proc/spawn" [ ("prog", prog) ];
  let th = add_thread_internal t proc ~inst ~manager:false ~blocked:None in
  ignore th;
  (* DMTCP hijack: the injected library starts the checkpoint manager
     thread at process startup (paper §4.2). *)
  let hijack_env = List.mem_assoc "DMTCP_HIJACK" env in
  if hijacked || hijack_env then begin
    proc.hijacked <- true;
    t.khooks.on_spawn t proc
  end;
  proc

and add_thread_internal t proc ~inst ~manager ~blocked =
  let tid = proc.next_tid in
  proc.next_tid <- tid + 1;
  let th =
    {
      tid;
      tproc = proc;
      inst;
      tstate = (match blocked with None -> Ready | Some w -> Blocked w);
      suspended = false;
      step_pending = false;
      generation = 0;
      manager;
      wake_handle = None;
      wait_key = [];
      wait_gen = no_record;
      wait = no_wait;
      wait_descs = [||];
      wait_cells = [||];
      ctx = None;
      ctx_wrapped = false;
    }
  in
  proc.threads <- proc.threads @ [ th ];
  stale t;
  (match blocked with
  | None -> schedule_step t th ~delay:0.
  | Some _ -> ());
  th

and do_fork t parent child_inst =
  let pid = fresh_pid t in
  let child =
    new_process t ~pid ~ppid:parent.pid ~env:parent.env ~hijacked:parent.hijacked
      ~cmdline:parent.cmdline ~fdtable:(Fdtbl.copy parent.fdtable) ~next_fd:parent.next_fd
      ~space:(Mem.Address_space.fork parent.space) ~sigtable:(Hashtbl.copy parent.sigtable)
      ?pager:parent.pager ()
  in
  (* shared open file descriptions *)
  Fdtbl.iter (fun _ desc -> incr_desc desc) child.fdtable;
  Trace.Metrics.incr m_forks;
  trace_proc t ~pid:parent.pid "proc/fork" [ ("child", string_of_int pid) ];
  ignore (add_thread_internal t child ~inst:child_inst ~manager:false ~blocked:None);
  if child.hijacked then t.khooks.on_fork t ~parent ~child;
  child

and do_exec t th ~prog ~argv =
  let proc = th.tproc in
  let prog, argv = if proc.hijacked then t.khooks.on_exec t proc ~prog ~argv else (prog, argv) in
  match Program.instantiate ~name:prog ~argv with
  | exception Not_found -> () (* exec failed; thread continues with old image *)
  | inst ->
    Trace.Metrics.incr m_execs;
    trace_proc t ~pid:proc.pid "proc/exec" [ ("prog", prog) ];
    (* exec kills all other threads and replaces the address space *)
    List.iter (fun other -> if other.tid <> th.tid then kill_thread other) proc.threads;
    proc.threads <- [ th ];
    stale t;
    th.manager <- false;
    proc.space <- Mem.Address_space.create ();
    proc.cmdline <- prog :: argv;
    th.inst <- inst;
    (* the injected DMTCP library survives exec via the environment *)
    if proc.hijacked || List.mem_assoc "DMTCP_HIJACK" proc.env then begin
      proc.hijacked <- true;
      t.khooks.on_spawn t proc
    end

and do_exit_process t proc code =
  if proc.pstate = Running then begin
    Trace.Metrics.incr m_exits;
    trace_proc t ~pid:proc.pid "proc/exit" [ ("code", string_of_int code) ];
    if proc.hijacked then t.khooks.on_exit t proc;
    List.iter kill_thread proc.threads;
    let fds = Fdtbl.fold (fun fd _ acc -> fd :: acc) proc.fdtable [] in
    List.iter (fun fd -> remove_fd t proc ~fd) fds;
    (* reparent children to "no one": they self-reap on exit *)
    Hashtbl.iter (fun _ p -> if p.ppid = proc.pid then p.ppid <- 0) t.procs;
    if proc.ppid = 0 then begin
      proc.pstate <- Reaped;
      Hashtbl.remove t.procs proc.pid
    end
    else proc.pstate <- Zombie code;
    stale t;
    poke_later t
  end

and do_exit t proc code = do_exit_process t proc code

and deliver_signal t proc ~signal =
  if signal = 9 then do_exit_process t proc (128 + signal)
  else
    match get_sigaction proc signal with
    | Sig_ignore -> ()
    | Sig_handler _ ->
      proc.pending_signals <- proc.pending_signals @ [ signal ];
      poke_later t
    | Sig_default ->
      (* fatal defaults only; others (e.g. SIGCHLD) are dropped *)
      if signal = 1 || signal = 2 || signal = 15 then do_exit_process t proc (128 + signal)

(* ------------------------------------------------------------------ *)
(* Public wrappers *)

let refork t ~child =
  let inst =
    match child.threads with
    | [ th ] -> th.inst
    | _ -> invalid_arg "Kernel.refork: child must be single-threaded"
  in
  List.iter kill_thread child.threads;
  Hashtbl.remove t.procs child.pid;
  let pid = fresh_pid t in
  (* move semantics: the new process takes over the child's fd table and
     address space, so no refcount adjustment is needed *)
  let proc = { child with pid; threads = []; next_tid = 1 } in
  add_proc t proc;
  write_proc_status t ~pid;
  ignore (add_thread_internal t proc ~inst ~manager:false ~blocked:None);
  proc

let spawn t ~prog ~argv ?(env = []) ?(ppid = 0) ?(hijacked = false) () =
  spawn_internal t ~prog ~argv ~env ~ppid ~hijacked

let create_raw_process t ~pid ~ppid ~env ~hijacked =
  new_process t ~pid ~ppid ~env ~hijacked ~cmdline:[] ()

let add_thread t proc ~inst ?(manager = false) ?blocked () =
  add_thread_internal t proc ~inst ~manager ~blocked

let find_process t ~pid = Hashtbl.find_opt t.procs pid

let processes t =
  Hashtbl.fold (fun _ p acc -> if p.pstate = Running then p :: acc else acc) t.procs []
  |> List.sort (fun a b -> compare a.pid b.pid)

let kill_process t proc = do_exit_process t proc 137

let vanish_process t proc =
  List.iter kill_thread proc.threads;
  let fds = Fdtbl.fold (fun fd _ acc -> fd :: acc) proc.fdtable [] in
  List.iter (fun fd -> remove_fd t proc ~fd) fds;
  proc.pstate <- Reaped;
  stale t;
  Hashtbl.remove t.procs proc.pid

let suspend_user_threads t proc =
  ignore t;
  List.iter (fun th -> if not th.manager then th.suspended <- true) proc.threads

let resume_user_threads t proc =
  List.iter
    (fun th ->
      if th.suspended then begin
        th.suspended <- false;
        match th.tstate with
        | Ready -> schedule_step t th ~delay:0.
        | Blocked w -> if wait_satisfied t proc w then begin
            th.tstate <- Ready;
            schedule_step t th ~delay:0.
          end
        | Dead -> ()
      end)
    proc.threads

let fd_desc proc fd = fd_desc proc fd
let install_fd t proc ~fd desc =
  set_fd proc fd desc;
  proc.next_fd <- max proc.next_fd (fd + 1);
  (* (re)bind wake-ups of the underlying object to this kernel *)
  (match desc.Fdesc.kind with
  | Fdesc.Sock s -> Simnet.Fabric.on_activity s (fun () -> poke_later t)
  | Fdesc.Pipe_r p | Fdesc.Pipe_w p -> Pipe.on_activity p (fun () -> poke_later t)
  | Fdesc.Pty_m p | Fdesc.Pty_s p -> Pty.on_activity p (fun () -> poke_later t)
  | Fdesc.File _ -> ())

let alloc_fd t proc desc =
  let fd = proc.next_fd in
  proc.next_fd <- fd + 1;
  install_fd t proc ~fd desc;
  fd

let remove_fd t proc ~fd = remove_fd t proc ~fd

let live_threads_agree t =
  let fresh = walk_live t in
  (not t.live_current)
  || Array.length t.live = Array.length fresh
     && Array.for_all2 ( == ) t.live fresh
     && load_factor t = load_of t (runnable fresh)

let skipped_ready t =
  Hashtbl.fold
    (fun _ proc n ->
      if proc.pstate <> Running then n
      else
        List.fold_left
          (fun n th ->
            match th.tstate with
            | Blocked w when (not th.suspended) && record_current th && wait_satisfied t proc w -> n + 1
            | _ -> n)
          n proc.threads)
    t.procs 0
