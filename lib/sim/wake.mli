(** Wake cells: one-shot marks that tell a blocked reader which of the
    objects it waits on have changed (DESIGN §2.4).

    A socket, pipe or pty holds the {!cells} armed on it.  A reader
    arms one {!cell} per object it waits on, all of one {!wait}, each
    under its own slot.  The object's wake-up {!fire}s its cells: each
    leaves the object and its slot goes onto its wait's fired list. *)

type wait
type cell
type cells

val cells : unit -> cells

(** A live wait for up to [size] cells, none fired. *)
val wait : size:int -> wait

(** No cell of the wait has fired since it was armed. *)
val quiet : wait -> bool

(** The reader stopped waiting: the next {!arm} or {!rearm} on an
    object drops the wait's cells from its list. *)
val kill : wait -> unit

(** [arm w home ~slot] puts a new cell of [w] on [home]; [slot] must be
    below [w]'s size and distinct among [w]'s cells. *)
val arm : wait -> cells -> slot:int -> cell

(** [exists_fired w by_slot f]: does [f by_slot.(slot)] hold at the slot
    of some fired cell of [w]? *)
val exists_fired : wait -> 'a array -> ('a -> bool) -> bool

(** [iter_fired w f] calls [f] on the slot of each fired cell of [w],
    in firing order. *)
val iter_fired : wait -> (int -> unit) -> unit

(** [rearm w cells] puts each fired cell of [w] ([cells.(slot)]) back on
    its object and empties the fired list. *)
val rearm : wait -> cell array -> unit

(** Move every cell on the object to its wait's fired list. *)
val fire : cells -> unit

(** Cells armed on the object, dead ones included. *)
val armed : cells -> int
