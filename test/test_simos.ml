(* Tests for the simulated OS: scheduling, fork/exec/exit/wait, pipes,
   ptys, sockets between processes, suspension, and the VFS. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Tiny test programs *)

(* Counts to [target], burning simulated CPU; exits with code 0 and leaves
   its count in a file. *)
module Counter = struct
  type state = { n : int; target : int; out : string }

  let name = "test:counter"

  let encode w st =
    Util.Codec.Writer.uvarint w st.n;
    Util.Codec.Writer.uvarint w st.target;
    Util.Codec.Writer.string w st.out

  let decode r =
    let n = Util.Codec.Reader.uvarint r in
    let target = Util.Codec.Reader.uvarint r in
    let out = Util.Codec.Reader.string r in
    { n; target; out }

  let init ~argv =
    match argv with
    | [ target; out ] -> { n = 0; target = int_of_string target; out }
    | _ -> { n = 0; target = 10; out = "/tmp/count" }

  let step (ctx : Simos.Program.ctx) st =
    if st.n < st.target then Simos.Program.Compute ({ st with n = st.n + 1 }, 1e-3)
    else begin
      (match ctx.open_file st.out with
      | Ok fd ->
        ignore (ctx.write_fd fd (string_of_int st.n));
        ctx.close_fd fd
      | Error _ -> ());
      Simos.Program.Exit 0
    end
end

(* Forks a child that exits with code 7; parent waits and records the
   reaped (pid, code). *)
module Forker = struct
  type state = Start | Parent | Child | Waiting

  let name = "test:forker"

  let encode w = function
    | Start -> Util.Codec.Writer.u8 w 0
    | Parent -> Util.Codec.Writer.u8 w 1
    | Child -> Util.Codec.Writer.u8 w 2
    | Waiting -> Util.Codec.Writer.u8 w 3

  let decode r =
    match Util.Codec.Reader.u8 r with
    | 0 -> Start
    | 1 -> Parent
    | 2 -> Child
    | _ -> Waiting

  let init ~argv:_ = Start

  let reaped : (int * int) option ref = ref None

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Start -> Simos.Program.Fork { parent = Parent; child = Child }
    | Child -> Simos.Program.Exit 7
    | Parent | Waiting -> (
      match ctx.wait_child () with
      | `Child (pid, code) ->
        reaped := Some (pid, code);
        Simos.Program.Exit 0
      | `None -> Simos.Program.Block (Waiting, Simos.Program.Child)
      | `No_children -> Simos.Program.Exit 1)
end

(* Execs into test:counter. *)
module Execer = struct
  type state = unit

  let name = "test:execer"
  let encode _ () = ()
  let decode _ = ()
  let init ~argv:_ = ()

  let step (_ : Simos.Program.ctx) () =
    Simos.Program.Exec { st = (); prog = "test:counter"; argv = [ "3"; "/tmp/exec-count" ] }
end

(* Echo server: accepts one connection, echoes until EOF. *)
module Echo_server = struct
  type state =
    | Boot of int  (* port *)
    | Accepting of int  (* listen fd *)
    | Echoing of int  (* conn fd *)

  let name = "test:echo-server"

  let encode w = function
    | Boot p ->
      Util.Codec.Writer.u8 w 0;
      Util.Codec.Writer.uvarint w p
    | Accepting fd ->
      Util.Codec.Writer.u8 w 1;
      Util.Codec.Writer.uvarint w fd
    | Echoing fd ->
      Util.Codec.Writer.u8 w 2;
      Util.Codec.Writer.uvarint w fd

  let decode r =
    match Util.Codec.Reader.u8 r with
    | 0 -> Boot (Util.Codec.Reader.uvarint r)
    | 1 -> Accepting (Util.Codec.Reader.uvarint r)
    | _ -> Echoing (Util.Codec.Reader.uvarint r)

  let init ~argv = match argv with [ p ] -> Boot (int_of_string p) | _ -> Boot 7000

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Boot port ->
      let fd = ctx.socket () in
      (match ctx.bind fd ~port with Ok _ -> () | Error e -> failwith (Simos.Errno.to_string e));
      (match ctx.listen fd ~backlog:4 with Ok () -> () | Error e -> failwith (Simos.Errno.to_string e));
      Simos.Program.Block (Accepting fd, Simos.Program.Readable fd)
    | Accepting lfd -> (
      match ctx.accept lfd with
      | Some conn ->
        ctx.close_fd lfd;
        Simos.Program.Block (Echoing conn, Simos.Program.Readable conn)
      | None -> Simos.Program.Block (Accepting lfd, Simos.Program.Readable lfd))
    | Echoing fd -> (
      match ctx.read_fd fd ~max:4096 with
      | `Data d ->
        ignore (ctx.write_fd fd d);
        Simos.Program.Block (Echoing fd, Simos.Program.Readable fd)
      | `Eof ->
        ctx.close_fd fd;
        Simos.Program.Exit 0
      | `Would_block -> Simos.Program.Block (Echoing fd, Simos.Program.Readable fd)
      | `Err _ -> Simos.Program.Exit 1)
end

(* Client: connects to host:port, sends a message, expects the echo, writes
   it to a file, closes. *)
module Echo_client = struct
  type state =
    | Boot of { host : int; port : int; msg : string; out : string }
    | Connecting of { fd : int; msg : string; out : string }
    | Reading of { fd : int; expect : int; got : string; out : string }

  let name = "test:echo-client"

  let encode w = function
    | Boot { host; port; msg; out } ->
      Util.Codec.Writer.u8 w 0;
      Util.Codec.Writer.uvarint w host;
      Util.Codec.Writer.uvarint w port;
      Util.Codec.Writer.string w msg;
      Util.Codec.Writer.string w out
    | Connecting { fd; msg; out } ->
      Util.Codec.Writer.u8 w 1;
      Util.Codec.Writer.uvarint w fd;
      Util.Codec.Writer.string w msg;
      Util.Codec.Writer.string w out
    | Reading { fd; expect; got; out } ->
      Util.Codec.Writer.u8 w 2;
      Util.Codec.Writer.uvarint w fd;
      Util.Codec.Writer.uvarint w expect;
      Util.Codec.Writer.string w got;
      Util.Codec.Writer.string w out

  let decode r =
    match Util.Codec.Reader.u8 r with
    | 0 ->
      let host = Util.Codec.Reader.uvarint r in
      let port = Util.Codec.Reader.uvarint r in
      let msg = Util.Codec.Reader.string r in
      let out = Util.Codec.Reader.string r in
      Boot { host; port; msg; out }
    | 1 ->
      let fd = Util.Codec.Reader.uvarint r in
      let msg = Util.Codec.Reader.string r in
      let out = Util.Codec.Reader.string r in
      Connecting { fd; msg; out }
    | _ ->
      let fd = Util.Codec.Reader.uvarint r in
      let expect = Util.Codec.Reader.uvarint r in
      let got = Util.Codec.Reader.string r in
      let out = Util.Codec.Reader.string r in
      Reading { fd; expect; got; out }

  let init ~argv =
    match argv with
    | [ host; port; msg; out ] -> Boot { host = int_of_string host; port = int_of_string port; msg; out }
    | _ -> Boot { host = 0; port = 7000; msg = "hi"; out = "/tmp/echo" }

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Boot { host; port; msg; out } ->
      let fd = ctx.socket () in
      (match ctx.connect fd (Simnet.Addr.Inet { host; port }) with
      | Ok () -> ()
      | Error e -> failwith (Simos.Errno.to_string e));
      Simos.Program.Block
        (Connecting { fd; msg; out }, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
    | Connecting { fd; msg; out } -> (
      match ctx.sock_state fd with
      | Some Simnet.Fabric.Established ->
        ignore (ctx.write_fd fd msg);
        Simos.Program.Block
          ( Reading { fd; expect = String.length msg; got = ""; out },
            Simos.Program.Readable fd )
      | Some Simnet.Fabric.Connecting ->
        Simos.Program.Block (Connecting { fd; msg; out }, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
      | _ -> Simos.Program.Exit 2)
    | Reading { fd; expect; got; out } -> (
      match ctx.read_fd fd ~max:4096 with
      | `Data d ->
        let got = got ^ d in
        if String.length got >= expect then begin
          (match ctx.open_file out with
          | Ok ofd ->
            ignore (ctx.write_fd ofd got);
            ctx.close_fd ofd
          | Error _ -> ());
          ctx.close_fd fd;
          Simos.Program.Exit 0
        end
        else Simos.Program.Block (Reading { fd; expect; got; out }, Simos.Program.Readable fd)
      | `Would_block -> Simos.Program.Block (Reading { fd; expect; got; out }, Simos.Program.Readable fd)
      | `Eof | `Err _ -> Simos.Program.Exit 3)
end

(* Pipe pair inside one process: writes a message through a pipe to
   itself, then reads it back. *)
module Pipe_self = struct
  type state = Start | Read of { rfd : int; acc : string }

  let name = "test:pipe-self"

  let encode w = function
    | Start -> Util.Codec.Writer.u8 w 0
    | Read { rfd; acc } ->
      Util.Codec.Writer.u8 w 1;
      Util.Codec.Writer.uvarint w rfd;
      Util.Codec.Writer.string w acc

  let decode r =
    match Util.Codec.Reader.u8 r with
    | 0 -> Start
    | _ ->
      let rfd = Util.Codec.Reader.uvarint r in
      let acc = Util.Codec.Reader.string r in
      Read { rfd; acc }

  let init ~argv:_ = Start

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Start ->
      let rfd, wfd = ctx.pipe () in
      ignore (ctx.write_fd wfd "through-the-pipe");
      ctx.close_fd wfd;
      Simos.Program.Block (Read { rfd; acc = "" }, Simos.Program.Readable rfd)
    | Read { rfd; acc } -> (
      match ctx.read_fd rfd ~max:4096 with
      | `Data d -> Simos.Program.Block (Read { rfd; acc = acc ^ d }, Simos.Program.Readable rfd)
      | `Eof ->
        (match ctx.open_file "/tmp/pipe-out" with
        | Ok fd ->
          ignore (ctx.write_fd fd acc);
          ctx.close_fd fd
        | Error _ -> ());
        Simos.Program.Exit 0
      | `Would_block -> Simos.Program.Block (Read { rfd; acc }, Simos.Program.Readable rfd)
      | `Err _ -> Simos.Program.Exit 1)
end

(* Sleeps for a given duration then exits. *)
module Sleeper = struct
  type state = Start of float | Done

  let name = "test:sleeper"

  let encode w = function
    | Start d ->
      Util.Codec.Writer.u8 w 0;
      Util.Codec.Writer.f64 w d
    | Done -> Util.Codec.Writer.u8 w 1

  let decode r =
    match Util.Codec.Reader.u8 r with
    | 0 -> Start (Util.Codec.Reader.f64 r)
    | _ -> Done

  let init ~argv = match argv with [ d ] -> Start (float_of_string d) | _ -> Start 1.0

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | Start d -> Simos.Program.Block (Done, Simos.Program.Sleep_until (ctx.now () +. d))
    | Done -> Simos.Program.Exit 0
end

(* Wake-up edges: readiness that changes by other means than a wake-up
   on a description the blocked thread waits on (a close, a dup2,
   another description's append, a send buffer that frees before its
   segment is delivered).  A poke must still re-check these waits. *)

let wake_times : (string, float) Hashtbl.t = Hashtbl.create 8

(* A thread that blocks once, on [Readable fd] (argv [key; "r"; fd]) or
   [Writable fd] ([key; "w"; fd]), and records when it woke. *)
module Edge_waiter = struct
  type state = Start of string * Simos.Program.wait | Woke of string | Done

  let name = "test:edge-waiter"

  (* never checkpointed *)
  let encode w _ = Util.Codec.Writer.u8 w 0
  let decode _ = Done

  let init ~argv =
    match argv with
    | [ key; "w"; fd ] -> Start (key, Simos.Program.Writable (int_of_string fd))
    | [ key; _; fd ] -> Start (key, Simos.Program.Readable (int_of_string fd))
    | _ -> Done

  let step (ctx : Simos.Program.ctx) = function
    | Start (key, w) -> Simos.Program.Block (Woke key, w)
    | Woke key ->
      Hashtbl.replace wake_times key (ctx.now ());
      Simos.Program.Block (Done, Simos.Program.Stopped)
    | Done -> Simos.Program.Block (Done, Simos.Program.Stopped)
end

(* Sets up one scenario (argv [scenario]), spawns the waiter thread,
   sleeps half a second, then acts. *)
module Edge_actor = struct
  type state =
    | Setup of string
    | Accept of int * int
    | Fill of int * int
    | Act of string * int * int
    | Idle

  let name = "test:edge-actor"
  let encode w _ = Util.Codec.Writer.u8 w 0
  let decode _ = Idle
  let init ~argv = match argv with [ scenario ] -> Setup scenario | _ -> Idle
  let edge_file = "/tmp/edge-file"

  let waiter (ctx : Simos.Program.ctx) key mode fd =
    ignore (ctx.spawn_thread ~prog:"test:edge-waiter" ~argv:[ key; mode; string_of_int fd ])

  let act_later (ctx : Simos.Program.ctx) scenario a b =
    Simos.Program.Block (Act (scenario, a, b), Simos.Program.Sleep_until (ctx.now () +. 0.5))

  let step (ctx : Simos.Program.ctx) = function
    | Setup ("eof" as s) ->
      let r, w = ctx.pipe () in
      waiter ctx s "r" r;
      act_later ctx s r w
    | Setup (("close" | "dup2") as s) ->
      (* a second read fd keeps the pipe's reader count above zero, so
         losing [r] wakes nothing *)
      let r, w = ctx.pipe () in
      ignore (ctx.dup2 ~src:r ~dst:30);
      waiter ctx s "r" r;
      act_later ctx s r w
    | Setup ("file" as s) ->
      let fd = Result.get_ok (ctx.open_file edge_file) in
      waiter ctx s "r" fd;
      Simos.Program.Block (Idle, Simos.Program.Stopped)
    | Setup ("append" as s) -> act_later ctx s 0 0
    | Setup ("writable" as s) ->
      let r, w = ctx.pipe () in
      ignore (ctx.write_fd w (String.make Simos.Pipe.capacity 'x'));
      waiter ctx s "w" w;
      act_later ctx s r w
    | Setup "socket" ->
      let l = ctx.socket () in
      ignore (ctx.bind l ~port:7100);
      ignore (ctx.listen l ~backlog:1);
      let c = ctx.socket () in
      ignore (ctx.connect c (Simnet.Addr.Inet { host = ctx.node_id; port = 7100 }));
      Simos.Program.Block (Accept (l, c), Simos.Program.Sleep_until (ctx.now () +. 0.01))
    | Accept (l, c) ->
      (* fill the peer's receive buffer *)
      let a = Option.get (ctx.accept l) in
      ignore (ctx.write_fd c (String.make Simnet.Fabric.buffer_capacity 'x'));
      Simos.Program.Block (Fill (a, c), Simos.Program.Sleep_until (ctx.now () +. 0.01))
    | Fill (a, c) ->
      (* this write stays in the send buffer: [c] is no longer writable *)
      ignore (ctx.write_fd c (String.make Simnet.Fabric.buffer_capacity 'x'));
      waiter ctx "socket" "w" c;
      act_later ctx "socket" a c
    | Act ("socket", a, _) ->
      (* the read lets the sender pump: its send buffer frees now, but
         the wake-up waits for the segment's delivery; the file write
         pokes before that *)
      ignore (ctx.read_fd a ~max:4096);
      let fd = Result.get_ok (ctx.open_file edge_file) in
      ignore (ctx.write_fd fd "x");
      Simos.Program.Block (Idle, Simos.Program.Stopped)
    | Act ("eof", _, w) ->
      ctx.close_fd w;
      Simos.Program.Block (Idle, Simos.Program.Stopped)
    | Act ("close", r, _) ->
      ctx.close_fd r;
      Simos.Program.Block (Idle, Simos.Program.Stopped)
    | Act ("dup2", r, _) ->
      (* dup2 a readable pipe over [r].  dup2 itself pokes nobody: the
         poke comes from the write on the new pipe, and runs after this
         step *)
      let r2, w2 = ctx.pipe () in
      ignore (ctx.write_fd w2 "x");
      ignore (ctx.dup2 ~src:r2 ~dst:r);
      Simos.Program.Block (Idle, Simos.Program.Stopped)
    | Act ("append", _, _) ->
      let fd = Result.get_ok (ctx.open_file edge_file) in
      ignore (ctx.write_fd fd "x");
      Simos.Program.Block (Idle, Simos.Program.Stopped)
    | Act ("writable", r, _) ->
      ignore (ctx.read_fd r ~max:4096);
      Simos.Program.Block (Idle, Simos.Program.Stopped)
    | Setup _ | Act _ | Idle -> Simos.Program.Block (Idle, Simos.Program.Stopped)
end

(* Wake cells: a thread blocked on [Readable_any] is woken through the
   cells its wait armed on each socket, pipe or pty.  [Cell_waiter]
   (argv [key; "same" | "flip"; send fd; fds...]) blocks on its fds,
   reversing the list on every other block with "flip", and on each
   wake logs the time and the positions of the fds that had data, then
   writes a byte on the send fd (unless [-1]).  [Cell_actor] sets up one
   scenario and makes the fds readable one at a time. *)

let cell_wakes : (string, string list) Hashtbl.t = Hashtbl.create 8

(* scenario -> (pid, fd) of a listener nothing connects to *)
let cell_listeners : (string, int * int) Hashtbl.t = Hashtbl.create 4

module Cell_waiter = struct
  type state = Start of string * bool * int * int list | Woke of string * bool * int * int list * int | Done

  let name = "test:cell-waiter"
  let encode w _ = Util.Codec.Writer.u8 w 0
  let decode _ = Done

  let init ~argv =
    match argv with
    | key :: mode :: send :: fds ->
      Start (key, mode = "flip", int_of_string send, List.map int_of_string fds)
    | _ -> Done

  let wait flip n fds = Simos.Program.Readable_any (if flip && n mod 2 = 1 then List.rev fds else fds)

  let step (ctx : Simos.Program.ctx) = function
    | Start (key, flip, send, fds) -> Simos.Program.Block (Woke (key, flip, send, fds, 1), wait flip 0 fds)
    | Woke (key, flip, send, fds, n) ->
      let had_data =
        List.mapi (fun i fd -> (i, ctx.read_fd fd ~max:4096)) fds
        |> List.filter_map (function i, `Data _ -> Some (string_of_int i) | _ -> None)
      in
      let line = Printf.sprintf "%.9f %s" (ctx.now ()) (String.concat "," had_data) in
      Hashtbl.replace cell_wakes key (line :: Option.value ~default:[] (Hashtbl.find_opt cell_wakes key));
      if send >= 0 then ignore (ctx.write_fd send "x");
      Simos.Program.Block (Woke (key, flip, send, fds, n + 1), wait flip n fds)
    | Done -> Simos.Program.Block (Done, Simos.Program.Stopped)
end

module Cell_actor = struct
  type state = Setup of string | Act of string * int array * int | Idle

  let name = "test:cell-actor"
  let encode w _ = Util.Codec.Writer.u8 w 0
  let decode _ = Idle
  let init ~argv = match argv with [ scenario ] -> Setup scenario | _ -> Idle
  let prune_rounds = 10_000

  let waiter (ctx : Simos.Program.ctx) key mode ~send fds =
    ignore
      (ctx.spawn_thread ~prog:"test:cell-waiter"
         ~argv:(key :: mode :: string_of_int send :: List.map string_of_int fds))

  let next (ctx : Simos.Program.ctx) s fds i dt =
    Simos.Program.Block (Act (s, fds, i), Simos.Program.Sleep_until (ctx.now () +. dt))

  let write (ctx : Simos.Program.ctx) fd data = ignore (ctx.write_fd fd data)
  let idle = Simos.Program.Block (Idle, Simos.Program.Stopped)

  let listener (ctx : Simos.Program.ctx) port =
    let l = ctx.socket () in
    ignore (ctx.bind l ~port);
    ignore (ctx.listen l ~backlog:1);
    l

  let step (ctx : Simos.Program.ctx) = function
    | Setup (("mixed" | "prune") as s) ->
      let l = listener ctx 7200 in
      let c = ctx.socket () in
      ignore (ctx.connect c (Simnet.Addr.Inet { host = ctx.node_id; port = 7200 }));
      next ctx s [| l; c |] 0 0.01
    | Act ("mixed", [| l; c |], 0) ->
      (* the waiter's own writes on [a] land on [c]: each delivery
         runs [a]'s wake-up hook without making [a] readable, and
         leaves [a]'s cells armed *)
      let a = Option.get (ctx.accept l) in
      let r, w = ctx.pipe () in
      let m, sl = ctx.open_pty () in
      waiter ctx "mixed" "same" ~send:a [ a; r; m ];
      next ctx "mixed" [| c; w; sl |] 1 0.5
    | Act ("mixed", fds, 1) ->
      write ctx fds.(1) "p";
      next ctx "mixed" fds 2 0.5
    | Act ("mixed", fds, 2) ->
      write ctx fds.(2) "t";
      next ctx "mixed" fds 3 0.5
    | Act ("mixed", fds, 3) ->
      write ctx fds.(0) "s";
      idle
    | Act ("prune", [| l; c |], 0) ->
      let a = Option.get (ctx.accept l) in
      let q = listener ctx 7201 in
      Hashtbl.replace cell_listeners "prune" (ctx.pid, q);
      waiter ctx "prune" "flip" ~send:(-1) [ q; a ];
      next ctx "prune" [| c |] 1 0.01
    | Act ("prune", fds, i) when i <= prune_rounds ->
      write ctx fds.(0) "b";
      next ctx "prune" fds (i + 1) 1e-3
    | Setup (("reuse" | "dup2") as s) ->
      let r1, w1 = ctx.pipe () in
      let r2, w2 = ctx.pipe () in
      waiter ctx s "same" ~send:(-1) [ r1; r2 ];
      next ctx s [| w1; w2; r2 |] 1 0.5
    | Act (s, fds, 1) ->
      write ctx fds.(0) "1";
      next ctx s fds 2 0.25
    | Act ("dup2", fds, 2) ->
      (* a fresh, empty pipe's read end replaces [r2]; the waiter's next
         wake comes from a write on it *)
      let r3, w3 = ctx.pipe () in
      ignore (ctx.dup2 ~src:r3 ~dst:fds.(2));
      ctx.close_fd r3;
      next ctx "dup2" [| fds.(0); w3; fds.(2) |] 3 0.25
    | Act (s, fds, 2) -> next ctx s fds 3 0.25
    | Act (s, fds, 3) ->
      write ctx fds.(1) "2";
      next ctx s fds 4 0.5
    | Act (_, fds, 4) ->
      write ctx fds.(0) "3";
      idle
    | Setup _ | Act _ | Idle -> idle
end

(* A thread that blocks for good. *)
module Parked = struct
  type state = unit

  let name = "test:parked"
  let encode _ () = ()
  let decode _ = ()
  let init ~argv:_ = ()
  let step (_ : Simos.Program.ctx) () = Simos.Program.Block ((), Simos.Program.Stopped)
end

(* Changes its process's live threads one step at a time, computing for
   1 ms (which reads the CPU load) before each: adds a parked thread,
   forks, and waits for the child.  The child adds a parked thread of
   its own, then execs [test:counter], which exits to a zombie that the
   parent reaps. *)
module Churn = struct
  type state = Begin | Thread | Fork | Reap | Child_begin | Child_thread | Child_exec | Idle

  let name = "test:churn"

  (* never checkpointed *)
  let encode w _ = Util.Codec.Writer.u8 w 0
  let decode _ = Idle
  let init ~argv:_ = Begin
  let reaped : (int * int) option ref = ref None
  let compute st = Simos.Program.Compute (st, 1e-3)
  let park (ctx : Simos.Program.ctx) = ignore (ctx.spawn_thread ~prog:"test:parked" ~argv:[])

  let step (ctx : Simos.Program.ctx) = function
    | Begin -> compute Thread
    | Thread ->
      park ctx;
      compute Fork
    | Fork -> Simos.Program.Fork { parent = Reap; child = Child_begin }
    | Child_begin -> compute Child_thread
    | Child_thread ->
      park ctx;
      compute Child_exec
    | Child_exec -> Simos.Program.Exec { st = Idle; prog = "test:counter"; argv = [ "2"; "/tmp/churn-exec" ] }
    | Reap -> (
      match ctx.wait_child () with
      | `Child (pid, code) ->
        reaped := Some (pid, code);
        Simos.Program.Block (Idle, Simos.Program.Stopped)
      | `None -> Simos.Program.Block (Reap, Simos.Program.Child)
      | `No_children -> Simos.Program.Exit 1)
    | Idle -> Simos.Program.Block (Idle, Simos.Program.Stopped)
end

let () =
  List.iter Simos.Program.register
    [
      (module Counter : Simos.Program.S);
      (module Forker);
      (module Execer);
      (module Echo_server);
      (module Echo_client);
      (module Pipe_self);
      (module Sleeper);
      (module Edge_waiter);
      (module Edge_actor);
      (module Cell_waiter);
      (module Cell_actor);
      (module Parked);
      (module Churn);
    ]

(* ------------------------------------------------------------------ *)
(* Helpers *)

let make_cluster ?(nodes = 2) () = Simos.Cluster.create ~nodes ()

let file_content k path =
  match Simos.Vfs.lookup (Simos.Kernel.vfs k) path with
  | Some f -> Some (Simos.Vfs.read_all f)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Tests *)

let edge_wake_time scenarios key =
  let c = make_cluster ~nodes:1 () in
  let k = Simos.Cluster.kernel c 0 in
  Hashtbl.remove wake_times key;
  List.iter
    (fun s -> ignore (Simos.Kernel.spawn k ~prog:"test:edge-actor" ~argv:[ s ] ()))
    scenarios;
  Simos.Cluster.run c;
  Option.map (Printf.sprintf "%.9f") (Hashtbl.find_opt wake_times key)

(* simulated wake times, as computed before polls skipped threads with
   a current wait record *)
let test_wake_edges () =
  List.iter
    (fun (label, scenarios, key, expected) ->
      check Alcotest.(option string) label (Some expected) (edge_wake_time scenarios key))
    [
      ("last writer closes", [ "eof" ], "eof", "0.500000000");
      ("fd closed by another thread", [ "close" ], "close", "0.500000000");
      ("fd dup2'd over by another thread", [ "dup2" ], "dup2", "0.500000000");
      ("regular file appended by another process", [ "file"; "append" ], "file", "0.500000000");
      ("writable after a full pipe drains", [ "writable" ], "writable", "0.500000000");
      (* the read frees the send buffer at 0.52; its segment lands
         10 us later, but the file write's poke comes first *)
      ("writable after the peer reads, poked before delivery", [ "socket" ], "socket", "0.520000000");
    ]


(* Run one [Cell_actor] scenario to the end, one event at a time,
   asserting after every event that no poke skipped a ready thread and
   that the kernel's live-thread array agrees with its process table. *)
let cell_run scenario =
  let c = make_cluster ~nodes:1 () in
  let k = Simos.Cluster.kernel c 0 in
  Hashtbl.remove cell_wakes scenario;
  ignore (Simos.Kernel.spawn k ~prog:"test:cell-actor" ~argv:[ scenario ] ());
  let eng = Simos.Cluster.engine c in
  let events = ref 0 in
  while Sim.Engine.step eng do
    incr events;
    let skipped = Simos.Kernel.skipped_ready k in
    if skipped <> 0 then
      Alcotest.failf "%s: %d ready thread(s) skipped after event %d at %.9f" scenario skipped !events
        (Sim.Engine.now eng);
    if not (Simos.Kernel.live_threads_agree k) then
      Alcotest.failf "%s: live threads disagree with the process table after event %d at %.9f"
        scenario !events (Sim.Engine.now eng)
  done;
  (k, List.rev (Option.value ~default:[] (Hashtbl.find_opt cell_wakes scenario)))

(* wake times and the positions of the fds that had data, as computed
   before wake cells replaced activity counts *)
let test_cell_wakes () =
  List.iter
    (fun (scenario, expected) ->
      check Alcotest.(list string) scenario expected (snd (cell_run scenario)))
    [
      ("mixed", [ "0.510000000 1"; "1.010000000 2"; "1.510010000 0" ]);
      ("reuse", [ "0.500000000 0"; "1.000000000 1"; "1.500000000 0" ]);
      ("dup2", [ "0.500000000 0"; "1.000000000 1"; "1.500000000 0" ]);
    ]

(* Each block of the "flip" waiter is a full scan that arms a new cell on
   the listener; the cells of the waits it left are dropped there. *)
let test_cell_pruning () =
  let k, wakes = cell_run "prune" in
  check Alcotest.int "one wake per byte" Cell_actor.prune_rounds (List.length wakes);
  check Alcotest.(option string) "last wake" (Some "10.019010000 1") (List.nth_opt wakes (Cell_actor.prune_rounds - 1));
  let pid, fd = Hashtbl.find cell_listeners "prune" in
  let proc = Option.get (Simos.Kernel.find_process k ~pid) in
  let cells = Option.get (Simos.Fdesc.wake_cells (Option.get (Simos.Kernel.fd_desc proc fd))) in
  check Alcotest.bool "at most one armed cell on the listener" true (Sim.Wake.armed cells <= 1)

(* Every change to a kernel's live threads, one event or call at a
   time: spawn, a thread added to a running process, fork, exec of a
   two-thread process, an exit to a zombie and its reap ([Churn]), a
   kill, node loss ([vanish_process]), [refork], and an MTCP restore
   ([create_raw_process], then [add_thread]) whose insert grows the
   process table past 64 entries, which resizes it and reorders its
   walk.  A counter computes throughout, reading the CPU load every
   millisecond, so the array is current again before each change. *)
let test_live_threads () =
  let c = make_cluster ~nodes:1 () in
  let k = Simos.Cluster.kernel c 0 in
  let eng = Simos.Cluster.engine c in
  let events = ref 0 in
  let agree what =
    if not (Simos.Kernel.live_threads_agree k) then
      Alcotest.failf "live threads disagree with the process table %s (event %d, %.9f)" what !events
        (Sim.Engine.now eng);
    let skipped = Simos.Kernel.skipped_ready k in
    if skipped <> 0 then
      Alcotest.failf "%d ready thread(s) skipped %s (event %d)" skipped what !events
  in
  let step_to time =
    while Sim.Engine.now eng < time && Sim.Engine.step eng do
      incr events;
      agree "after an event"
    done
  in
  let spawn prog argv =
    let p = Simos.Kernel.spawn k ~prog ~argv () in
    agree ("after spawning " ^ prog);
    p
  in
  Churn.reaped := None;
  ignore (spawn "test:counter" [ "300"; "/tmp/live-count" ]);
  let killed = spawn "test:sleeper" [ "100" ] in
  let lost = spawn "test:sleeper" [ "100" ] in
  ignore (spawn "test:churn" []);
  step_to 0.05;
  check Alcotest.(option int) "the exec'd child exited 0 and was reaped" (Some 0)
    (Option.map snd !Churn.reaped);
  check Alcotest.(option string) "the exec'd counter ran" (Some "2") (file_content k "/tmp/churn-exec");
  Simos.Kernel.kill_process k killed;
  agree "after kill_process";
  step_to 0.06;
  Simos.Kernel.vanish_process k lost;
  agree "after vanish_process";
  step_to 0.07;
  let child = spawn "test:sleeper" [ "0.2" ] in
  let reforked = Simos.Kernel.refork k ~child in
  agree "after refork";
  step_to 0.08;
  for _ = List.length (Simos.Kernel.processes k) + 1 to 64 do
    ignore (spawn "test:parked" [])
  done;
  step_to 0.09;
  let restored =
    Simos.Kernel.create_raw_process k ~pid:(Simos.Kernel.fresh_pid k) ~ppid:0 ~env:[] ~hijacked:false
  in
  agree "after create_raw_process";
  let restore prog argv blocked =
    let inst = Simos.Program.instantiate ~name:prog ~argv in
    ignore (Simos.Kernel.add_thread k restored ~inst ?blocked ());
    agree ("after restoring a " ^ prog ^ " thread")
  in
  restore "test:parked" [] (Some Simos.Program.Stopped);
  restore "test:sleeper" [ "0.01" ] None;
  step_to infinity;
  let running p = List.exists (fun q -> q == p) (Simos.Kernel.processes k) in
  check Alcotest.bool "killed" false (running killed);
  check Alcotest.bool "lost" false (running lost);
  check Alcotest.bool "reforked sleeper done" false (running reforked);
  check Alcotest.bool "restored sleeper done" false (running restored);
  check Alcotest.int "the parked processes and the churn parent remain" 62
    (List.length (Simos.Kernel.processes k))

(* Fd tables against a generic [Hashtbl] fed the same operations: every
   lookup answers as the hash table does, through the slot array or,
   outside its range, the hash, and iteration keeps the hash table's
   order.  A copy is checked again after the original's successor has
   moved on, so the two must not share slots. *)
type fd_op = Replace of int * int | Remove of int | Copy

let fd_op_gen =
  let open QCheck.Gen in
  let fd = frequency [ (6, int_range 0 40); (2, int_range 1020 1030); (1, int_range (-2) 2000) ] in
  frequency
    [
      (5, map2 (fun fd v -> Replace (fd, v)) fd small_nat);
      (3, map (fun fd -> Remove fd) fd);
      (1, return Copy);
    ]

let print_fd_op = function
  | Replace (fd, v) -> Printf.sprintf "replace %d %d" fd v
  | Remove fd -> Printf.sprintf "remove %d" fd
  | Copy -> "copy"

let fdtbl_agrees ~fds (t, m) =
  let module F = Simos.Kernel.Fdtbl in
  let listed iter tbl =
    let l = ref [] in
    iter (fun fd v -> l := (fd, v) :: !l) tbl;
    !l
  in
  List.for_all (fun fd -> F.find_opt t fd = Hashtbl.find_opt m fd) fds
  && F.length t = Hashtbl.length m
  && F.fold (fun fd v acc -> (fd, v) :: acc) t [] = Hashtbl.fold (fun fd v acc -> (fd, v) :: acc) m []
  && listed F.iter t = listed Hashtbl.iter m

let prop_fdtbl_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"agrees with a Hashtbl on every lookup and in order"
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map print_fd_op ops))
          QCheck.Gen.(list_size (int_range 0 150) fd_op_gen))
       (fun ops ->
         let module F = Simos.Kernel.Fdtbl in
         let near = List.init 48 (fun i -> i - 2) @ List.init 15 (fun i -> 1018 + i) in
         let every = List.init 2003 (fun i -> i - 2) in
         let t = ref (F.create 8) and m = ref (Hashtbl.create 8) and kept = ref [] in
         List.for_all
           (fun op ->
             (match op with
             | Replace (fd, v) ->
               F.replace !t fd v;
               Hashtbl.replace !m fd v
             | Remove fd ->
               F.remove !t fd;
               Hashtbl.remove !m fd
             | Copy ->
               kept := (!t, !m) :: !kept;
               t := F.copy !t;
               m := Hashtbl.copy !m);
             let fds = match op with Replace (fd, _) | Remove fd -> fd :: near | Copy -> near in
             fdtbl_agrees ~fds (!t, !m))
           ops
         && List.for_all (fdtbl_agrees ~fds:every) ((!t, !m) :: !kept)))

let test_spawn_runs_to_exit () =
  let c = make_cluster () in
  let k = Simos.Cluster.kernel c 0 in
  let p = Simos.Kernel.spawn k ~prog:"test:counter" ~argv:[ "5"; "/tmp/c5" ] () in
  Simos.Cluster.run c;
  check (Alcotest.option Alcotest.string) "file written" (Some "5") (file_content k "/tmp/c5");
  Alcotest.(check bool) "process gone" true (Simos.Kernel.find_process k ~pid:p.Simos.Kernel.pid = None)

let test_compute_advances_clock () =
  let c = make_cluster () in
  let k = Simos.Cluster.kernel c 0 in
  ignore (Simos.Kernel.spawn k ~prog:"test:counter" ~argv:[ "100"; "/tmp/c100" ] ());
  Simos.Cluster.run c;
  (* 100 steps of 1 ms of compute *)
  Alcotest.(check bool) "clock advanced by compute time" true (Simos.Cluster.now c >= 0.1)

let test_fork_wait () =
  let c = make_cluster () in
  let k = Simos.Cluster.kernel c 0 in
  Forker.reaped := None;
  let p = Simos.Kernel.spawn k ~prog:"test:forker" ~argv:[] () in
  Simos.Cluster.run c;
  (match !Forker.reaped with
  | Some (pid, code) ->
    check Alcotest.int "exit code 7" 7 code;
    Alcotest.(check bool) "child pid differs" true (pid <> p.Simos.Kernel.pid)
  | None -> Alcotest.fail "parent did not reap the child")

let test_exec_replaces_image () =
  let c = make_cluster () in
  let k = Simos.Cluster.kernel c 0 in
  ignore (Simos.Kernel.spawn k ~prog:"test:execer" ~argv:[] ());
  Simos.Cluster.run c;
  check (Alcotest.option Alcotest.string) "counter ran after exec" (Some "3")
    (file_content k "/tmp/exec-count")

let test_pipe_within_process () =
  let c = make_cluster () in
  let k = Simos.Cluster.kernel c 0 in
  ignore (Simos.Kernel.spawn k ~prog:"test:pipe-self" ~argv:[] ());
  Simos.Cluster.run c;
  check (Alcotest.option Alcotest.string) "pipe data" (Some "through-the-pipe")
    (file_content k "/tmp/pipe-out")

let test_sockets_cross_node () =
  let c = make_cluster ~nodes:2 () in
  let k0 = Simos.Cluster.kernel c 0 and k1 = Simos.Cluster.kernel c 1 in
  ignore (Simos.Kernel.spawn k1 ~prog:"test:echo-server" ~argv:[ "7000" ] ());
  ignore
    (Simos.Kernel.spawn k0 ~prog:"test:echo-client" ~argv:[ "1"; "7000"; "ping-pong"; "/tmp/echoed" ] ());
  Simos.Cluster.run c;
  check (Alcotest.option Alcotest.string) "echo round-trip across nodes" (Some "ping-pong")
    (file_content k0 "/tmp/echoed")

let test_sleep_timing () =
  let c = make_cluster () in
  let k = Simos.Cluster.kernel c 0 in
  ignore (Simos.Kernel.spawn k ~prog:"test:sleeper" ~argv:[ "2.5" ] ());
  Simos.Cluster.run c;
  Alcotest.(check bool) "slept 2.5s" true (Simos.Cluster.now c >= 2.5 && Simos.Cluster.now c < 2.6)

let test_kill_process () =
  let c = make_cluster () in
  let k = Simos.Cluster.kernel c 0 in
  let p = Simos.Kernel.spawn k ~prog:"test:sleeper" ~argv:[ "100.0" ] () in
  Sim.Engine.run ~until:1.0 (Simos.Cluster.engine c);
  Simos.Kernel.kill_process k p;
  Simos.Cluster.run c;
  Alcotest.(check bool) "clock did not wait for the sleeper" true (Simos.Cluster.now c < 100.);
  Alcotest.(check bool) "process not running" true
    (Simos.Kernel.processes k |> List.for_all (fun q -> q.Simos.Kernel.pid <> p.Simos.Kernel.pid))

let test_suspend_resume () =
  let c = make_cluster () in
  let k = Simos.Cluster.kernel c 0 in
  let p = Simos.Kernel.spawn k ~prog:"test:counter" ~argv:[ "1000"; "/tmp/s" ] () in
  Sim.Engine.run ~until:0.010 (Simos.Cluster.engine c);
  Simos.Kernel.suspend_user_threads k p;
  (* With everything suspended, the world goes quiet. *)
  Simos.Cluster.run c;
  Alcotest.(check bool) "no output while suspended" true (file_content k "/tmp/s" = None);
  let t_suspended = Simos.Cluster.now c in
  Simos.Kernel.resume_user_threads k p;
  Simos.Cluster.run c;
  check (Alcotest.option Alcotest.string) "completes after resume" (Some "1000") (file_content k "/tmp/s");
  Alcotest.(check bool) "time advanced after resume" true (Simos.Cluster.now c > t_suspended)

let test_ssh_spawn () =
  let c = make_cluster ~nodes:3 () in
  let k0 = Simos.Cluster.kernel c 0 in
  (* A one-shot program that sshes a counter onto node 2. *)
  let module Ssher = struct
    type state = unit

    let name = "test:ssher"
    let encode _ () = ()
    let decode _ = ()
    let init ~argv:_ = ()

    let step (ctx : Simos.Program.ctx) () =
      (match ctx.ssh ~host:2 ~prog:"test:counter" ~argv:[ "4"; "/tmp/remote" ] with
      | Ok _ -> ()
      | Error e -> failwith (Simos.Errno.to_string e));
      Simos.Program.Exit 0
  end in
  Simos.Program.register (module Ssher);
  ignore (Simos.Kernel.spawn k0 ~prog:"test:ssher" ~argv:[] ());
  Simos.Cluster.run c;
  check (Alcotest.option Alcotest.string) "remote counter ran" (Some "4")
    (file_content (Simos.Cluster.kernel c 2) "/tmp/remote")

let test_program_registry_roundtrip () =
  let inst = Simos.Program.instantiate ~name:"test:counter" ~argv:[ "9"; "/x" ] in
  let w = Util.Codec.Writer.create () in
  Simos.Program.encode_instance w inst;
  let r = Util.Codec.Reader.of_string (Util.Codec.Writer.contents w) in
  let inst' = Simos.Program.decode_instance r in
  check Alcotest.string "program name preserved" "test:counter" (Simos.Program.name_of inst')

let test_program_duplicate_registration_rejected () =
  Alcotest.(check bool) "second registration raises" true
    (try
       Simos.Program.register (module Counter);
       false
     with Invalid_argument _ -> true)

let test_unknown_program_rejected () =
  let c = make_cluster () in
  let k = Simos.Cluster.kernel c 0 in
  Alcotest.(check bool) "unknown program raises Not_found" true
    (try
       ignore (Simos.Kernel.spawn k ~prog:"no-such-program" ~argv:[] ());
       false
     with Not_found -> true)

let test_vfs_basics () =
  let v = Simos.Vfs.create () in
  let f = Simos.Vfs.open_or_create v "/data/file1" in
  Simos.Vfs.append f "hello ";
  Simos.Vfs.append f "world";
  check Alcotest.string "append" "hello world" (Simos.Vfs.read_all f);
  Simos.Vfs.write_at f ~pos:0 "HELLO";
  check Alcotest.string "overwrite" "HELLO world" (Simos.Vfs.read_all f);
  check Alcotest.int "length" 11 (Simos.Vfs.length f);
  Alcotest.(check bool) "exists" true (Simos.Vfs.exists v "/data/file1");
  (match Simos.Vfs.unlink v "/data/file1" with Ok () -> () | Error _ -> Alcotest.fail "unlink");
  Alcotest.(check bool) "gone" false (Simos.Vfs.exists v "/data/file1")

let test_vfs_sparse_write () =
  let v = Simos.Vfs.create () in
  let f = Simos.Vfs.open_or_create v "/sparse" in
  Simos.Vfs.write_at f ~pos:10 "x";
  check Alcotest.int "length includes hole" 11 (Simos.Vfs.length f);
  check Alcotest.string "hole is zeros" (String.make 10 '\000' ^ "x") (Simos.Vfs.read_all f)

let test_pty_roundtrip () =
  let p = Simos.Pty.create ~id:1 in
  ignore (Simos.Pty.master_write p "ls\n");
  (match Simos.Pty.slave_read p ~max:100 with
  | `Data d -> check Alcotest.string "slave sees master input" "ls\n" d
  | `Would_block -> Alcotest.fail "no data");
  ignore (Simos.Pty.slave_write p "file1 file2\n");
  (match Simos.Pty.master_read p ~max:100 with
  | `Data d -> check Alcotest.string "master sees slave output" "file1 file2\n" d
  | `Would_block -> Alcotest.fail "no data");
  let tio = Simos.Pty.termios p in
  tio.Simos.Pty.echo <- false;
  Alcotest.(check bool) "termios persists" false (Simos.Pty.termios p).Simos.Pty.echo

let test_pty_drain_refill () =
  let p = Simos.Pty.create ~id:1 in
  ignore (Simos.Pty.master_write p "input");
  ignore (Simos.Pty.slave_write p "output");
  let to_slave, to_master = Simos.Pty.drain p in
  check Alcotest.string "drained input" "input" to_slave;
  check Alcotest.string "drained output" "output" to_master;
  check (Alcotest.pair Alcotest.int Alcotest.int) "empty after drain" (0, 0) (Simos.Pty.buffered p);
  Simos.Pty.refill p ~to_slave ~to_master;
  (match Simos.Pty.slave_read p ~max:100 with
  | `Data d -> check Alcotest.string "refilled" "input" d
  | `Would_block -> Alcotest.fail "no data after refill")

let test_fd_sharing_after_dup () =
  (* dup2 makes two fds share one description, owner included — the basis
     of the F_SETOWN election. *)
  let c = make_cluster () in
  let k = Simos.Cluster.kernel c 0 in
  let module Duper = struct
    type state = unit

    let name = "test:duper"
    let encode _ () = ()
    let decode _ = ()
    let init ~argv:_ = ()

    let step (ctx : Simos.Program.ctx) () =
      let rfd, _wfd = ctx.pipe () in
      (match ctx.dup2 ~src:rfd ~dst:10 with Ok () -> () | Error _ -> failwith "dup2");
      ctx.set_fd_owner rfd 42;
      assert (ctx.get_fd_owner 10 = 42);
      Simos.Program.Exit 0
  end in
  Simos.Program.register (module Duper);
  ignore (Simos.Kernel.spawn k ~prog:"test:duper" ~argv:[] ());
  Simos.Cluster.run c
  (* assertion inside the program would have crashed the engine *)


let test_env_inherited_across_ssh () =
  (* DMTCP_* variables ride ssh to remote processes — the mechanism that
     makes remotely spawned processes hijacked transparently *)
  let c = make_cluster ~nodes:3 () in
  let k0 = Simos.Cluster.kernel c 0 in
  let module Env_ssher = struct
    type state = unit

    let name = "test:env-ssher"
    let encode _ () = ()
    let decode _ = ()
    let init ~argv:_ = ()

    let step (ctx : Simos.Program.ctx) () =
      ignore (ctx.ssh ~host:2 ~prog:"test:env-reader" ~argv:[]);
      Simos.Program.Exit 0
  end in
  let module Env_reader = struct
    type state = unit

    let name = "test:env-reader"
    let encode _ () = ()
    let decode _ = ()
    let init ~argv:_ = ()

    let step (ctx : Simos.Program.ctx) () =
      (match ctx.open_file "/tmp/env-seen" with
      | Ok fd ->
        ignore (ctx.write_fd fd (Option.value ~default:"(unset)" (ctx.getenv "MARKER")));
        ctx.close_fd fd
      | Error _ -> ());
      Simos.Program.Exit 0
  end in
  Simos.Program.register (module Env_ssher);
  Simos.Program.register (module Env_reader);
  ignore
    (Simos.Kernel.spawn k0 ~prog:"test:env-ssher" ~argv:[] ~env:[ ("MARKER", "rode-the-ssh") ] ());
  Simos.Cluster.run c;
  check (Alcotest.option Alcotest.string) "env crossed ssh" (Some "rode-the-ssh")
    (file_content (Simos.Cluster.kernel c 2) "/tmp/env-seen")

let test_exec_preserves_env_hijack () =
  (* a process that setenvs DMTCP_HIJACK and execs stays hijacked — how
     dmtcp_checkpoint injects the library across exec.  The thread keeps
     one ctx while nothing it captured moves: after each exec it sees
     the new argv, and its sockets go through the hook table exactly
     while the process is hijacked. *)
  let c = make_cluster () in
  let k = Simos.Cluster.kernel c 0 in
  let hooked = ref [] in
  Simos.Kernel.set_hooks k
    { (Simos.Kernel.hooks k) with on_socket = (fun _ _ ~fd _ -> hooked := fd :: !hooked) };
  let module Hijack_exec = struct
    type state = bool  (* execed? *)

    let name = "test:hijack-exec"
    let encode w b = Util.Codec.Writer.bool w b
    let decode r = Util.Codec.Reader.bool r
    let init ~argv:_ = false

    let step (ctx : Simos.Program.ctx) execed =
      if execed then Simos.Program.Exit 0
      else begin
        ignore (ctx.socket ());
        ctx.setenv "DMTCP_HIJACK" "yes";
        Simos.Program.Exec { st = true; prog = "test:argv-socket"; argv = [ "first" ] }
      end
  end in
  (* every step records its argv and opens a socket; the first image
     execs the second *)
  let seen = ref [] in
  let module Argv_socket = struct
    type state = unit

    let name = "test:argv-socket"
    let encode _ () = ()
    let decode _ = ()
    let init ~argv:_ = ()

    let step (ctx : Simos.Program.ctx) () =
      seen := ctx.argv :: !seen;
      ignore (ctx.socket ());
      match ctx.argv with
      | [ _; "first" ] -> Simos.Program.Exec { st = (); prog = name; argv = [ "second" ] }
      | _ -> Simos.Program.Block ((), Simos.Program.Sleep_until (ctx.now () +. 3.0))
  end in
  Simos.Program.register (module Hijack_exec);
  Simos.Program.register (module Argv_socket);
  let p = Simos.Kernel.spawn k ~prog:"test:hijack-exec" ~argv:[] () in
  Sim.Engine.run ~until:1.0 (Simos.Cluster.engine c);
  Alcotest.(check bool) "hijacked after exec" true p.Simos.Kernel.hijacked;
  check Alcotest.(list string) "image replaced" [ "test:argv-socket"; "second" ] p.Simos.Kernel.cmdline;
  check
    Alcotest.(list (list string))
    "each exec'd image sees its own argv"
    [ [ "test:argv-socket"; "first" ]; [ "test:argv-socket"; "second" ] ]
    (List.rev !seen);
  check Alcotest.(list int) "the sockets opened after the first exec are hooked" [ 5; 4 ] !hooked;
  (* nothing but [hijacked] moves: the next step's socket bypasses the
     hooks *)
  p.Simos.Kernel.hijacked <- false;
  Sim.Engine.run ~until:5.0 (Simos.Cluster.engine c);
  check Alcotest.int "one more step ran" 3 (List.length !seen);
  check Alcotest.(list int) "a socket opened after unhijacking is not hooked" [ 5; 4 ] !hooked

let test_signal_dispositions () =
  let c = make_cluster () in
  let k = Simos.Cluster.kernel c 0 in
  let p = Simos.Kernel.spawn k ~prog:"test:sleeper" ~argv:[ "50.0" ] () in
  Sim.Engine.run ~until:0.1 (Simos.Cluster.engine c);
  (* SIGTERM with default disposition kills *)
  let q = Simos.Kernel.spawn k ~prog:"test:sleeper" ~argv:[ "50.0" ] () in
  Simos.Kernel.deliver_signal k q ~signal:15;
  Alcotest.(check bool) "default TERM kills" true (q.Simos.Kernel.pstate <> Simos.Kernel.Running);
  (* ignored TERM does not *)
  Simos.Kernel.set_sigaction p 15 Simos.Kernel.Sig_ignore;
  Simos.Kernel.deliver_signal k p ~signal:15;
  Alcotest.(check bool) "ignored TERM survives" true (p.Simos.Kernel.pstate = Simos.Kernel.Running);
  (* handled signal queues *)
  Simos.Kernel.set_sigaction p 10 (Simos.Kernel.Sig_handler "on_usr1");
  Simos.Kernel.deliver_signal k p ~signal:10;
  Simos.Kernel.deliver_signal k p ~signal:10;
  check Alcotest.(list int) "pending queue" [ 10; 10 ] p.Simos.Kernel.pending_signals;
  (* SIGKILL cannot be ignored *)
  Simos.Kernel.set_sigaction p 9 Simos.Kernel.Sig_ignore;
  Simos.Kernel.deliver_signal k p ~signal:9;
  Alcotest.(check bool) "KILL always kills" true (p.Simos.Kernel.pstate <> Simos.Kernel.Running)

let test_signal_table_inherited_by_fork () =
  let c = make_cluster () in
  let k = Simos.Cluster.kernel c 0 in
  Forker.reaped := None;
  let p = Simos.Kernel.spawn k ~prog:"test:forker" ~argv:[] () in
  Simos.Kernel.set_sigaction p 15 Simos.Kernel.Sig_ignore;
  Simos.Cluster.run c;
  Alcotest.(check bool) "fork completed with inherited table" true (!Forker.reaped <> None)

let () =
  Alcotest.run "simos"
    [
      ( "kernel",
        [
          Alcotest.test_case "spawn runs to exit" `Quick test_spawn_runs_to_exit;
          Alcotest.test_case "compute advances clock" `Quick test_compute_advances_clock;
          Alcotest.test_case "fork + wait" `Quick test_fork_wait;
          Alcotest.test_case "exec replaces image" `Quick test_exec_replaces_image;
          Alcotest.test_case "pipe within process" `Quick test_pipe_within_process;
          Alcotest.test_case "sockets across nodes" `Quick test_sockets_cross_node;
          Alcotest.test_case "sleep timing" `Quick test_sleep_timing;
          Alcotest.test_case "kill process" `Quick test_kill_process;
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
          Alcotest.test_case "ssh remote spawn" `Quick test_ssh_spawn;
          Alcotest.test_case "fd sharing after dup2" `Quick test_fd_sharing_after_dup;
        ] );
      ( "programs",
        [
          Alcotest.test_case "registry round-trip" `Quick test_program_registry_roundtrip;
          Alcotest.test_case "duplicate registration" `Quick test_program_duplicate_registration_rejected;
          Alcotest.test_case "unknown program" `Quick test_unknown_program_rejected;
        ] );
      ( "vfs",
        [
          Alcotest.test_case "basics" `Quick test_vfs_basics;
          Alcotest.test_case "sparse write" `Quick test_vfs_sparse_write;
        ] );
      ( "pty",
        [
          Alcotest.test_case "round-trip" `Quick test_pty_roundtrip;
          Alcotest.test_case "drain/refill" `Quick test_pty_drain_refill;
        ] );
      ("fd table", [ prop_fdtbl_model ]);
      ( "signals",
        [
          Alcotest.test_case "dispositions" `Quick test_signal_dispositions;
          Alcotest.test_case "inherited by fork" `Quick test_signal_table_inherited_by_fork;
        ] );
      ( "wake-ups",
        [
          Alcotest.test_case "wake times at the edges" `Quick test_wake_edges;
          Alcotest.test_case "wake cells: mixed objects, reuse, dup2" `Quick test_cell_wakes;
          Alcotest.test_case "wake cells: dead cells pruned" `Quick test_cell_pruning;
          Alcotest.test_case "live threads follow every lifecycle change" `Quick test_live_threads;
        ] );
      ( "environment",
        [
          Alcotest.test_case "env crosses ssh" `Quick test_env_inherited_across_ssh;
          Alcotest.test_case "exec preserves hijack" `Quick test_exec_preserves_env_hijack;
        ] );
    ]
