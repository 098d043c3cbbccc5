type termios = {
  mutable icanon : bool;
  mutable echo : bool;
  mutable isig : bool;
  mutable baud : int;
}

let default_termios () = { icanon = true; echo = true; isig = true; baud = 38400 }

type t = {
  pty_id : int;
  to_slave : Util.Bytequeue.t;   (* master writes, slave reads *)
  to_master : Util.Bytequeue.t;  (* slave writes, master reads *)
  mutable tio : termios;
  mutable wake : unit -> unit;
  cells : Sim.Wake.cells;  (* fired by every [notify] *)
}

let create ~id =
  {
    pty_id = id;
    to_slave = Util.Bytequeue.create ();
    to_master = Util.Bytequeue.create ();
    tio = default_termios ();
    wake = ignore;
    cells = Sim.Wake.cells ();
  }

let id t = t.pty_id
let ptsname t = Printf.sprintf "/dev/pts/%d" t.pty_id
let termios t = t.tio
let set_termios t tio = t.tio <- tio

let capacity = 65536

(* Every wake-up goes through here and fires the cells armed on [t]. *)
let notify t =
  Sim.Wake.fire t.cells;
  t.wake ()

let write_queue t q data =
  let free = capacity - Util.Bytequeue.length q in
  let n = min free (String.length data) in
  if n > 0 then begin
    Util.Bytequeue.push q (String.sub data 0 n);
    notify t
  end;
  n

let read_queue t q ~max =
  if Util.Bytequeue.is_empty q then `Would_block
  else begin
    let d = Util.Bytequeue.pop q max in
    notify t;
    `Data d
  end

let master_write t data = write_queue t t.to_slave data
let master_read t ~max = read_queue t t.to_master ~max
let slave_write t data = write_queue t t.to_master data
let slave_read t ~max = read_queue t t.to_slave ~max

let buffered t = (Util.Bytequeue.length t.to_slave, Util.Bytequeue.length t.to_master)

let drain t = (Util.Bytequeue.pop_all t.to_slave, Util.Bytequeue.pop_all t.to_master)

let refill t ~to_slave ~to_master =
  Util.Bytequeue.push t.to_slave to_slave;
  Util.Bytequeue.push t.to_master to_master;
  notify t

let on_activity t f = t.wake <- f
let wake_cells t = t.cells
