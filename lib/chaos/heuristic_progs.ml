(* Workloads for the open-world heuristic plugins (SNIPPETS.md §2).
   Each one talks to something the checkpointer does not control — a
   well-known service port, the kernel's /proc files, an external
   daemon's shared-memory cache — and writes a self-describing verdict,
   so the plugin scenarios can compare a restarted run against an
   unfaulted reference (bit-identical where the heuristic promises it,
   an explicit "degraded" verdict where the paper promises graceful
   degradation instead). *)

module W = Util.Codec.Writer
module R = Util.Codec.Reader

let record_bytes = Progs.record_bytes
let encode_record = Progs.encode_record
let decode_record = Progs.decode_record

(* ------------------------------------------------------------------ *)
(* p:dnssrv — a resolver-style service: accepts one client on a
   well-known port and echoes each fixed-width query record back.  Runs
   until the client goes away.  With [blacklist-ports] active its
   connection is never drained and comes back dead, so after a restart
   the first read fails and the server exits cleanly. *)

module Dns_server = struct
  type state =
    | Boot of { port : int }
    | Accepting of { lfd : int }
    | Serve of { fd : int; buf : string }

  let name = "p:dnssrv"

  let encode w = function
    | Boot { port } ->
      W.u8 w 0;
      W.uvarint w port
    | Accepting { lfd } ->
      W.u8 w 1;
      W.uvarint w lfd
    | Serve { fd; buf } ->
      W.u8 w 2;
      W.uvarint w fd;
      W.string w buf

  let decode r =
    match R.u8 r with
    | 0 -> Boot { port = R.uvarint r }
    | 1 -> Accepting { lfd = R.uvarint r }
    | _ ->
      let fd = R.uvarint r in
      let buf = R.string r in
      Serve { fd; buf }

  let init ~argv =
    match argv with
    | [ port ] -> Boot { port = int_of_string port }
    | _ -> Boot { port = 53 }

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Boot { port } -> (
      let lfd = ctx.socket () in
      match ctx.bind lfd ~port with
      | Ok _ -> (
        match ctx.listen lfd ~backlog:4 with
        | Ok () -> Simos.Program.Block (Accepting { lfd }, Simos.Program.Readable lfd)
        | Error _ -> Simos.Program.Exit 2)
      | Error _ -> Simos.Program.Exit 2)
    | Accepting { lfd } -> (
      match ctx.accept lfd with
      | Some fd ->
        ctx.close_fd lfd;
        Simos.Program.Block (Serve { fd; buf = "" }, Simos.Program.Readable fd)
      | None -> Simos.Program.Block (Accepting { lfd }, Simos.Program.Readable lfd))
    | Serve { fd; buf } -> (
      match ctx.read_fd fd ~max:65536 with
      | `Data d ->
        let buf = buf ^ d in
        let nrec = String.length buf / record_bytes in
        for i = 0 to nrec - 1 do
          ignore (ctx.write_fd fd (String.sub buf (i * record_bytes) record_bytes))
        done;
        let rest = String.sub buf (nrec * record_bytes) (String.length buf mod record_bytes) in
        Simos.Program.Compute (Serve { fd; buf = rest }, 1e-5)
      | `Would_block -> Simos.Program.Block (Serve { fd; buf }, Simos.Program.Readable fd)
      | `Eof | `Err _ ->
        (* client gone (or the restarted connection is a dead socket) *)
        ctx.close_fd fd;
        Simos.Program.Exit 0)
end

(* ------------------------------------------------------------------ *)
(* p:dnscli — a client doing [count] lookups against the service.  Each
   lookup is a write + echo round-trip; the moment the connection fails
   (EOF or a write error — exactly what a blacklisted connection shows
   after restart) it switches to direct "fallback" lookups, the way a
   resolver library falls back when its server socket dies.  The verdict
   records the mode it finished in, and the lookup count is the same in
   both, so each mode's verdict is deterministic. *)

module Dns_client = struct
  type state =
    | Boot of { host : int; port : int; count : int; out : string }
    | Connecting of { fd : int; count : int; out : string }
    | Ask of { fd : int; n : int; count : int; out : string }
    | Await of { fd : int; n : int; count : int; out : string; buf : string }
    | Fallback of { n : int; count : int; out : string }

  let name = "p:dnscli"

  let encode w = function
    | Boot { host; port; count; out } ->
      W.u8 w 0;
      W.uvarint w host;
      W.uvarint w port;
      W.uvarint w count;
      W.string w out
    | Connecting { fd; count; out } ->
      W.u8 w 1;
      W.uvarint w fd;
      W.uvarint w count;
      W.string w out
    | Ask { fd; n; count; out } ->
      W.u8 w 2;
      W.uvarint w fd;
      W.uvarint w n;
      W.uvarint w count;
      W.string w out
    | Await { fd; n; count; out; buf } ->
      W.u8 w 3;
      W.uvarint w fd;
      W.uvarint w n;
      W.uvarint w count;
      W.string w out;
      W.string w buf
    | Fallback { n; count; out } ->
      W.u8 w 4;
      W.uvarint w n;
      W.uvarint w count;
      W.string w out

  let decode r =
    match R.u8 r with
    | 0 ->
      let host = R.uvarint r in
      let port = R.uvarint r in
      let count = R.uvarint r in
      let out = R.string r in
      Boot { host; port; count; out }
    | 1 ->
      let fd = R.uvarint r in
      let count = R.uvarint r in
      let out = R.string r in
      Connecting { fd; count; out }
    | 2 ->
      let fd = R.uvarint r in
      let n = R.uvarint r in
      let count = R.uvarint r in
      let out = R.string r in
      Ask { fd; n; count; out }
    | 3 ->
      let fd = R.uvarint r in
      let n = R.uvarint r in
      let count = R.uvarint r in
      let out = R.string r in
      let buf = R.string r in
      Await { fd; n; count; out; buf }
    | _ ->
      let n = R.uvarint r in
      let count = R.uvarint r in
      let out = R.string r in
      Fallback { n; count; out }

  let init ~argv =
    match argv with
    | [ host; port; count; out ] ->
      Boot { host = int_of_string host; port = int_of_string port; count = int_of_string count; out }
    | _ -> Boot { host = 0; port = 53; count = 1000; out = "/tmp/dns" }

  let finish (ctx : Simos.Program.ctx) out msg =
    (match ctx.open_file out with
    | Ok fd ->
      ignore (ctx.write_fd fd msg);
      ctx.close_fd fd
    | Error _ -> ());
    Simos.Program.Exit 0

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Boot { host; port; count; out } -> (
      let fd = ctx.socket () in
      match ctx.connect fd (Simnet.Addr.Inet { host; port }) with
      | Ok () ->
        Simos.Program.Block
          (Connecting { fd; count; out }, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
      | Error _ -> Simos.Program.Exit 2)
    | Connecting { fd; count; out } -> (
      match ctx.sock_state fd with
      | Some Simnet.Fabric.Established ->
        Simos.Program.Continue (Ask { fd; n = 0; count; out })
      | Some Simnet.Fabric.Connecting ->
        Simos.Program.Block
          (Connecting { fd; count; out }, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
      | _ -> Simos.Program.Exit 2)
    | Ask { fd; n; count; out } ->
      if n >= count then begin
        ctx.close_fd fd;
        finish ctx out (Printf.sprintf "dns:%d live" count)
      end
      else begin
        (* records are tiny; a short write never splits one *)
        match ctx.write_fd fd (encode_record n) with
        | Ok _ ->
          Simos.Program.Block (Await { fd; n; count; out; buf = "" }, Simos.Program.Readable fd)
        | Error _ ->
          ctx.close_fd fd;
          Simos.Program.Continue (Fallback { n; count; out })
      end
    | Await { fd; n; count; out; buf } -> (
      match ctx.read_fd fd ~max:record_bytes with
      | `Data d ->
        let buf = buf ^ d in
        if String.length buf < record_bytes then
          Simos.Program.Block (Await { fd; n; count; out; buf }, Simos.Program.Readable fd)
        else if decode_record buf 0 <> n then finish ctx out (Printf.sprintf "dns FAIL at %d" n)
        else Simos.Program.Compute (Ask { fd; n = n + 1; count; out }, 1e-3)
      | `Would_block ->
        Simos.Program.Block (Await { fd; n; count; out; buf }, Simos.Program.Readable fd)
      | `Eof | `Err _ ->
        ctx.close_fd fd;
        Simos.Program.Continue (Fallback { n; count; out }))
    | Fallback { n; count; out } ->
      if n < count then
        (* direct lookup, no cache/service: same answer, more work *)
        Simos.Program.Compute (Fallback { n = n + 1; count; out }, 1e-3)
      else finish ctx out (Printf.sprintf "dns:%d degraded" count)
end

(* ------------------------------------------------------------------ *)
(* p:procfd — a monitoring-style program that opens its own
   /proc/<pid>/status at startup, holds the fd across a long compute
   phase, and reads it at the end to report on itself.  Restarted under
   a new pid, the held fd names the dead pid's file — unless [proc-fd]
   re-pointed it, the final read sees a stale identity. *)

module Proc_fd = struct
  type state = {
    phase : int;  (* 0 = open, 1 = compute, 2 = report *)
    fd : int;
    iters : int;
    done_ : int;
    out : string;
  }

  let name = "p:procfd"

  let encode w st =
    W.uvarint w st.phase;
    W.uvarint w st.fd;
    W.uvarint w st.iters;
    W.uvarint w st.done_;
    W.string w st.out

  let decode r =
    let phase = R.uvarint r in
    let fd = R.uvarint r in
    let iters = R.uvarint r in
    let done_ = R.uvarint r in
    let out = R.string r in
    { phase; fd; iters; done_; out }

  let init ~argv =
    match argv with
    | [ iters; out ] -> { phase = 0; fd = -1; iters = int_of_string iters; done_ = 0; out }
    | _ -> { phase = 0; fd = -1; iters = 1000; done_ = 0; out = "/tmp/procfd" }

  let status_path pid = Printf.sprintf "/proc/%d/status" pid

  let finish (ctx : Simos.Program.ctx) st msg =
    (match ctx.open_file st.out with
    | Ok fd ->
      ignore (ctx.write_fd fd msg);
      ctx.close_fd fd
    | Error _ -> ());
    ctx.close_fd st.fd;
    Simos.Program.Exit 0

  let step (ctx : Simos.Program.ctx) st =
    if st.phase = 0 then begin
      match ctx.open_file (status_path ctx.pid) with
      | Ok fd -> Simos.Program.Continue { st with phase = 1; fd }
      | Error _ -> Simos.Program.Exit 2
    end
    else if st.phase = 1 then
      if st.done_ < st.iters then
        Simos.Program.Compute ({ st with done_ = st.done_ + 1 }, 1e-3)
      else Simos.Program.Continue { st with phase = 2 }
    else begin
      (* the fd was opened under whatever pid we had at startup; after a
         restart only the [proc-fd] plugin makes this read our own file *)
      match ctx.read_fd st.fd ~max:4096 with
      | `Data d ->
        let want = Printf.sprintf "pid:%d\n" ctx.pid in
        if d = want then finish ctx st (Printf.sprintf "PROC OK %d" st.done_)
        else finish ctx st (Printf.sprintf "PROC STALE %d" st.done_)
      | `Eof | `Would_block | `Err _ -> finish ctx st (Printf.sprintf "PROC EOF %d" st.done_)
    end
end

(* ------------------------------------------------------------------ *)
(* p:nscdapp — lookups through an NSCD-style shared-memory cache: an
   mmap of the daemon's database file, validated by a magic header on
   every lookup.  [ext-shm] zeroes the segment in the checkpoint image,
   so a restarted run finds the header gone and degrades to direct
   lookups — the paper's deliberate trade: a slower correct run instead
   of a cache belonging to a daemon that was never checkpointed. *)

module Nscd_app = struct
  (* arbitrary non-zero marker the daemon would have written *)
  let magic = 0x05CD_CAFE

  type state = {
    phase : int;  (* 0 = map, 1 = lookups *)
    addr : int;
    lookups : int;
    done_ : int;
    degraded : bool;
    out : string;
  }

  let name = "p:nscdapp"

  let encode w st =
    W.uvarint w st.phase;
    W.uvarint w st.addr;
    W.uvarint w st.lookups;
    W.uvarint w st.done_;
    W.bool w st.degraded;
    W.string w st.out

  let decode r =
    let phase = R.uvarint r in
    let addr = R.uvarint r in
    let lookups = R.uvarint r in
    let done_ = R.uvarint r in
    let degraded = R.bool r in
    let out = R.string r in
    { phase; addr; lookups; done_; degraded; out }

  let init ~argv =
    match argv with
    | [ lookups; out ] ->
      { phase = 0; addr = 0; lookups = int_of_string lookups; done_ = 0; degraded = false; out }
    | _ -> { phase = 0; addr = 0; lookups = 1000; degraded = false; done_ = 0; out = "/tmp/nscd" }

  let step (ctx : Simos.Program.ctx) st =
    if st.phase = 0 then begin
      let region =
        ctx.mmap ~bytes:Mem.Page.size
          ~kind:(Mem.Region.Mmap_shared { backing_path = "/var/db/nscd/passwd" })
      in
      let addr = region.Mem.Region.start_addr in
      ctx.mem_write ~addr (encode_record magic);
      Simos.Program.Continue { st with phase = 1; addr }
    end
    else if st.done_ < st.lookups then begin
      let cached =
        (not st.degraded)
        && decode_record (ctx.mem_read ~addr:st.addr ~len:record_bytes) 0 = magic
      in
      (* once the header is gone the library stops trusting the map *)
      let st = { st with done_ = st.done_ + 1; degraded = st.degraded || not cached } in
      Simos.Program.Compute (st, if cached then 1e-3 else 2e-3)
    end
    else begin
      (match ctx.open_file st.out with
      | Ok fd ->
        ignore
          (ctx.write_fd fd
             (Printf.sprintf "nscd:%d %s" st.done_ (if st.degraded then "degraded" else "cached")));
        ctx.close_fd fd
      | Error _ -> ());
      Simos.Program.Exit 0
    end
end

(* ------------------------------------------------------------------ *)

let () =
  List.iter Simos.Program.register
    [ (module Dns_server : Simos.Program.S); (module Dns_client); (module Proc_fd); (module Nscd_app) ]
