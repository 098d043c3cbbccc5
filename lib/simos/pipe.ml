type t = {
  buf : Util.Bytequeue.t;
  mutable reader_count : int;
  mutable writer_count : int;
  mutable wake : unit -> unit;
  cells : Sim.Wake.cells;  (* fired by every [notify] *)
}

let capacity = 65536

let create () =
  {
    buf = Util.Bytequeue.create ();
    reader_count = 0;
    writer_count = 0;
    wake = ignore;
    cells = Sim.Wake.cells ();
  }

(* Every wake-up goes through here and fires the cells armed on [t]. *)
let notify t =
  Sim.Wake.fire t.cells;
  t.wake ()

let add_reader t = t.reader_count <- t.reader_count + 1
let add_writer t = t.writer_count <- t.writer_count + 1

let remove_reader t =
  t.reader_count <- t.reader_count - 1;
  if t.reader_count = 0 then notify t

let remove_writer t =
  t.writer_count <- t.writer_count - 1;
  if t.writer_count = 0 then notify t

let writers t = t.writer_count

let read t ~max =
  if not (Util.Bytequeue.is_empty t.buf) then begin
    let d = Util.Bytequeue.pop t.buf max in
    notify t;
    `Data d
  end
  else if t.writer_count = 0 then `Eof
  else `Would_block

let write t data =
  if t.reader_count = 0 then Error Errno.EPIPE
  else begin
    let free = capacity - Util.Bytequeue.length t.buf in
    let n = min free (String.length data) in
    if n > 0 then begin
      Util.Bytequeue.push t.buf (String.sub data 0 n);
      notify t
    end;
    Ok n
  end

let buffered t = Util.Bytequeue.length t.buf
let on_activity t f = t.wake <- f
let wake_cells t = t.cells
