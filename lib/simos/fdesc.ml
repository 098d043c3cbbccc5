type kind =
  | File of { file : Vfs.file; mutable offset : int }
  | Sock of Simnet.Fabric.socket
  | Pipe_r of Pipe.t
  | Pipe_w of Pipe.t
  | Pty_m of Pty.t
  | Pty_s of Pty.t

type t = { desc_id : int; kind : kind; mutable refcount : int; mutable owner : int }

let make ~id kind = { desc_id = id; kind; refcount = 1; owner = 0 }

let incr_ref t = t.refcount <- t.refcount + 1

(* Pipe endpoint counts are per-fd-slot and maintained by the kernel's
   close/dup paths; here we only release the underlying object. *)
let release t =
  match t.kind with
  | File _ -> ()
  | Sock s -> Simnet.Fabric.close s
  | Pipe_r _ | Pipe_w _ -> ()
  | Pty_m _ | Pty_s _ -> ()

let decr_ref t =
  t.refcount <- t.refcount - 1;
  if t.refcount = 0 then release t

let kind_name t =
  match t.kind with
  | File _ -> "file"
  | Sock s -> if Simnet.Fabric.state s = Simnet.Fabric.Listening then "listener" else "socket"
  | Pipe_r _ -> "pipe(r)"
  | Pipe_w _ -> "pipe(w)"
  | Pty_m _ -> "pty(m)"
  | Pty_s _ -> "pty(s)"

let readable t =
  match t.kind with
  | File { file; offset } -> offset < Vfs.length file
  | Sock s -> Simnet.Fabric.readable s
  | Pipe_r p -> Pipe.buffered p > 0 || Pipe.writers p = 0
  | Pipe_w _ -> false
  | Pty_m p -> snd (Pty.buffered p) > 0
  | Pty_s p -> fst (Pty.buffered p) > 0

let writable t =
  match t.kind with
  | File _ -> true
  | Sock s -> Simnet.Fabric.writable s
  | Pipe_r _ -> false
  | Pipe_w p -> Pipe.writers p > 0 && Pipe.buffered p < Pipe.capacity
  | Pty_m _ | Pty_s _ -> true

let wake_cells t =
  match t.kind with
  | File _ -> None
  | Sock s -> Some (Simnet.Fabric.wake_cells s)
  | Pipe_r p | Pipe_w p -> Some (Pipe.wake_cells p)
  | Pty_m p | Pty_s p -> Some (Pty.wake_cells p)
