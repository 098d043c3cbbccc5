(** The checkpoint manager thread (paper §4.2–§4.3).

    One such thread is launched inside every checkpointed process by the
    injected library.  It connects to the coordinator, then executes the
    seven-stage checkpoint algorithm when told to:

    + normal execution (blocked on the coordinator socket),
    + suspend user threads,
    + elect shared-FD leaders via the [F_SETOWN] trick,
    + drain kernel buffers (flush token + receive-until-token) and
      handshake with peers,
    + write the checkpoint image (optionally via forked checkpointing),
    + refill kernel buffers,
    + resume user threads,

    with a coordinator barrier after each of stages 2–6.

    Manager threads are themselves excluded from the image and recreated
    at restart, so this program's state needs no serialization.

    Program name: ["dmtcp:mgr"], registered when this module
    initialises. *)

val name : string
