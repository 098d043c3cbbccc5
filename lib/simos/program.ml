type wait =
  | Readable of int
  | Readable_any of int list
  | Writable of int
  | Sleep_until of float
  | Child
  | Stopped

type 'st outcome =
  | Continue of 'st
  | Compute of 'st * float
  | Block of 'st * wait
  | Fork of { parent : 'st; child : 'st }
  | Exec of { st : 'st; prog : string; argv : string list }
  | Exit of int

type ctx = {
  now : unit -> float;
  rng : Util.Rng.t;
  node_id : int;
  pid : int;
  ppid : unit -> int;
  argv : string list;
  getenv : string -> string option;
  setenv : string -> string -> unit;
  log : string -> unit;
  local : Local.t;
  open_file : ?create:bool -> string -> (int, Errno.t) result;
  file_exists : string -> bool;
  read_fd : int -> max:int -> [ `Data of string | `Eof | `Would_block | `Err of Errno.t ];
  write_fd : int -> string -> (int, Errno.t) result;
  close_fd : int -> unit;
  dup2 : src:int -> dst:int -> (unit, Errno.t) result;
  fds : unit -> int list;
  set_fd_owner : int -> int -> unit;
  get_fd_owner : int -> int;
  wake_cells : int -> Sim.Wake.cells option;
  pipe : unit -> int * int;
  open_pty : unit -> int * int;
  socket : unit -> int;
  socket_unix : unit -> int;
  bind : int -> port:int -> (int, Errno.t) result;
  bind_unix : int -> path:string -> (unit, Errno.t) result;
  listen : int -> backlog:int -> (unit, Errno.t) result;
  accept : int -> int option;
  connect : int -> Simnet.Addr.t -> (unit, Errno.t) result;
  sock_state : int -> Simnet.Fabric.state option;
  sock_refused : int -> bool;
  sock_local_addr : int -> Simnet.Addr.t option;
  mmap : bytes:int -> kind:Mem.Region.kind -> Mem.Region.t;
  mem_write : addr:int -> string -> unit;
  mem_read : addr:int -> len:int -> string;
  spawn_thread : prog:string -> argv:string list -> int;
  sigaction_set : int -> [ `Default | `Ignore | `Handler of string ] -> unit;
  take_signal : unit -> int option;
  wait_child : unit -> [ `Child of int * int | `None | `No_children ];
  ssh : host:int -> prog:string -> argv:string list -> (int, Errno.t) result;
}

module type S = sig
  type state

  val name : string
  val encode : Util.Codec.Writer.t -> state -> unit
  val decode : Util.Codec.Reader.t -> state
  val init : argv:string list -> state
  val step : ctx -> state -> state outcome
end

type instance = Instance : { prog : (module S with type state = 'a); mutable st : 'a } -> instance

type outcome_boxed =
  | B_continue
  | B_compute of float
  | B_block of wait
  | B_fork of instance
  | B_exec of { prog : string; argv : string list }
  | B_exit of int

let name_of (Instance { prog = (module P); _ }) = P.name

let step_instance ctx (Instance r) =
  let (module P) = r.prog in
  match P.step ctx r.st with
  | Continue st ->
    r.st <- st;
    B_continue
  | Compute (st, dt) ->
    r.st <- st;
    B_compute dt
  | Block (st, w) ->
    r.st <- st;
    B_block w
  | Fork { parent; child } ->
    r.st <- parent;
    B_fork (Instance { prog = r.prog; st = child })
  | Exec { st; prog; argv } ->
    r.st <- st;
    B_exec { prog; argv }
  | Exit code -> B_exit code

(* ------------------------------------------------------------------ *)
(* Registry *)

let registry : (string, (module S)) Hashtbl.t = Hashtbl.create 64

let register (module P : S) =
  if Hashtbl.mem registry P.name then
    invalid_arg (Printf.sprintf "Program.register: %S already registered" P.name);
  Hashtbl.replace registry P.name (module P : S)

let registered_names () = Hashtbl.fold (fun k _ acc -> k :: acc) registry [] |> List.sort compare

let instantiate ~name ~argv =
  match Hashtbl.find_opt registry name with
  | None -> raise Not_found
  | Some (module P) -> Instance { prog = (module P); st = P.init ~argv }

let encode_instance w (Instance { prog = (module P); st }) =
  Util.Codec.Writer.string w P.name;
  let body = Util.Codec.Writer.create () in
  P.encode body st;
  Util.Codec.Writer.string w (Util.Codec.Writer.contents body)

let decode_instance r =
  let name = Util.Codec.Reader.string r in
  let body = Util.Codec.Reader.string r in
  match Hashtbl.find_opt registry name with
  | None -> Util.Codec.Reader.corrupt "unknown program %S" name
  | Some (module P) ->
    let br = Util.Codec.Reader.of_string body in
    let st = P.decode br in
    Instance { prog = (module P); st }

let encode_wait w = function
  | Readable fd ->
    Util.Codec.Writer.u8 w 0;
    Util.Codec.Writer.uvarint w fd
  | Readable_any fds ->
    Util.Codec.Writer.u8 w 5;
    Util.Codec.Writer.list Util.Codec.Writer.uvarint w fds
  | Writable fd ->
    Util.Codec.Writer.u8 w 1;
    Util.Codec.Writer.uvarint w fd
  | Sleep_until t ->
    Util.Codec.Writer.u8 w 2;
    Util.Codec.Writer.f64 w t
  | Child -> Util.Codec.Writer.u8 w 3
  | Stopped -> Util.Codec.Writer.u8 w 4

let decode_wait r =
  match Util.Codec.Reader.u8 r with
  | 0 -> Readable (Util.Codec.Reader.uvarint r)
  | 1 -> Writable (Util.Codec.Reader.uvarint r)
  | 2 -> Sleep_until (Util.Codec.Reader.f64 r)
  | 3 -> Child
  | 4 -> Stopped
  | 5 -> Readable_any (Util.Codec.Reader.list Util.Codec.Reader.uvarint r)
  | n -> Util.Codec.Reader.corrupt "bad wait tag %d" n
