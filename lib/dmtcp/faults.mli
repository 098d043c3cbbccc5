(** Stage-targeted fault-injection hooks for the checkpoint protocol.

    The manager reports entry into each of the paper's checkpoint stages
    (§4.3) and arrival at each coordinator barrier via {!notify}.  The
    chaos layer installs {!on_stage} to kill a victim at an exact
    protocol point or to assert stage invariants.  Observers must not
    destroy the notifying process synchronously; schedule destructive
    work at the current virtual time so the in-progress step retires
    cleanly. *)

type stage =
  | Suspend  (** user threads stopped (stage 2) *)
  | Elect  (** FD-leader election (stage 3) *)
  | Drain  (** socket drain begins (stage 4) *)
  | Write  (** image write begins; kernel buffers must be empty (stage 5) *)
  | Refill  (** drained data re-injected (stage 6) *)
  | Resume  (** user threads resuming (stage 7) *)
  | Barrier of int  (** arrival at coordinator barrier [k] *)

val stage_name : stage -> string

(** {2 The protocol order}

    The one definition of the checkpoint order: the manager's stage
    sequence, the coordinator's barriers and the chaos kill points all
    derive from it. *)

(** The stages in protocol order (no barriers). *)
val stages : stage list

(** Coordinator barriers: barrier [k] separates stage [k] of {!stages}
    from stage [k+1]. *)
val nbarriers : int

(** The stage barrier [k] closes (its [ckpt/<stage>] span). *)
val closed_by : int -> stage

(** What follows [s]: the barrier after a stage, the stage a barrier
    releases into; [None] after the last stage. *)
val next : stage -> stage option

(** The protocol stages plus barriers [1..nbarriers]: every kill point. *)
val all_stages : stage list

(** The no-op observer installed by default (and by {!reset}). *)
val default_observer : node:int -> pid:int -> stage -> unit

val on_stage : (node:int -> pid:int -> stage -> unit) ref
val notify : node:int -> pid:int -> stage -> unit

(** {2 Intentionally injected bugs}

    Used by chaos-harness self-tests to demonstrate that the invariant
    checkers catch protocol regressions.  Never set in production
    paths. *)

(** Skip the drain stage entirely: no flush tokens exchanged, nothing
    stashed — in-flight socket data is silently left out of the image. *)
val bug_skip_drain : bool ref

(** Drain normally but drop the stash at refill time instead of
    re-injecting it into kernel buffers. *)
val bug_drop_refill : bool ref

(** Restore the default observer and clear all bug flags. *)
val reset : unit -> unit
