(** Pseudo-terminals: a master/slave pair of byte channels plus terminal
    modes.  DMTCP records [ptsname], terminal modes, and ownership of the
    controlling terminal, and recreates all of it at restart (paper §1,
    §4.4 step 1). *)

type t

(** Terminal modes — the subset DMTCP must save and restore for programs
    like the readline-based shells of Figure 3 to resume correctly. *)
type termios = {
  mutable icanon : bool;  (** canonical (line-buffered) input *)
  mutable echo : bool;
  mutable isig : bool;    (** signal-generating control characters *)
  mutable baud : int;
}

(** Pty number [id] ({!Kernel.make_pty} numbers a cluster's ptys). *)
val create : id:int -> t

val id : t -> int

(** ["/dev/pts/N"]. *)
val ptsname : t -> string

val termios : t -> termios
val set_termios : t -> termios -> unit

(** Write on the master side (keyboard -> application). *)
val master_write : t -> string -> int

(** Read on the master side (application output -> screen). *)
val master_read : t -> max:int -> [ `Data of string | `Would_block ]

val slave_write : t -> string -> int
val slave_read : t -> max:int -> [ `Data of string | `Would_block ]

(** Bytes queued in each direction: [(to_slave, to_master)]. *)
val buffered : t -> int * int

(** Checkpoint support: drain both directions, refill at restart. *)
val drain : t -> string * string

val refill : t -> to_slave:string -> to_master:string -> unit

val on_activity : t -> (unit -> unit) -> unit

(** The wake cells armed on the pty, shared by master and slave: every
    call of the {!on_activity} hook fires them first, and every change
    that can make either side readable makes one. *)
val wake_cells : t -> Sim.Wake.cells
