(** Both protocols' stage orders, their spans, and the injected
    protocol bugs.

    The manager reports entry into each of the paper's checkpoint stages
    (§4.3) and arrival at each coordinator barrier to its run's stage
    observer ({!Runtime.notify}); the restarter reports entry into each
    restart stage (§4.4) the same way. *)

type stage =
  | Suspend  (** user threads stopped (stage 2) *)
  | Elect  (** FD-leader election (stage 3) *)
  | Drain  (** socket drain begins (stage 4) *)
  | Write  (** image write begins; kernel buffers must be empty (stage 5) *)
  | Refill  (** drained data re-injected (stage 6; restart step 6) *)
  | Resume  (** user threads resuming (stage 7; restart step 7) *)
  | Barrier of int  (** arrival at coordinator barrier [k] *)
  | Files  (** files and ptys reopened (restart step 1) *)
  | Reconnect  (** sockets recreated and reconnected (restart step 2) *)
  | Mem
      (** processes forked, fds rearranged, memory and threads restored
          (restart steps 3–5) *)
  | Restart of stage
      (** a restarter's stage; [Files], [Reconnect] and [Mem] occur only
          under it *)

(** ["suspend"], ["barrier2"], ["restart/mem"], ... *)
val stage_name : stage -> string

(** The stage's span: [ckpt/<stage>] for a checkpoint stage, emitted by
    the coordinator; [restart/<stage>] for a restart stage, emitted by
    the restarter. *)
val span_name : stage -> string

(** [span ~node ~pid name ~since ~until] emits the ["dmtcp"] span [name]
    of a stage that process [pid] on [node] ran from [since], the end of
    the previous stage (a checkpoint round's start, a restarter's boot),
    to [until].  Nothing is recorded while no trace sink is attached;
    readers aggregate the spans with {!Trace.Query.stage_stats}. *)
val span : node:int -> pid:int -> string -> since:float -> until:float -> unit

(** {2 The protocol orders}

    The one definition of each protocol's order: the manager's and the
    restarter's stage sequences, the coordinator's barriers, the spans
    and the chaos kill points all derive from them. *)

(** The checkpoint stages in protocol order (no barriers). *)
val stages : stage list

(** Coordinator barriers: barrier [k] separates stage [k] of {!stages}
    from stage [k+1]. *)
val nbarriers : int

(** The stage barrier [k] closes (its [ckpt/<stage>] span). *)
val closed_by : int -> stage

(** The restart stages in protocol order: files, reconnect, mem, refill,
    resume, each under [Restart]. *)
val restart_stages : stage list

(** What follows [s]: the barrier after a checkpoint stage, the stage a
    barrier releases into, the next restart stage; [None] after the
    last stage of either protocol. *)
val next : stage -> stage option

(** The checkpoint stages plus barriers [1..nbarriers]: torture's kill
    points. *)
val all_stages : stage list

(** {2 Intentionally injected bugs}

    Used by chaos-harness self-tests to demonstrate that the invariant
    checkers catch protocol regressions.  Never set in production
    paths.  They are process-wide: set them before any run
    ([torture --bug] and two self-tests do). *)

(** Skip the drain stage entirely: no flush tokens exchanged, nothing
    stashed — in-flight socket data is silently left out of the image. *)
val bug_skip_drain : bool ref

(** Drain normally but drop the stash at refill time instead of
    re-injecting it into kernel buffers. *)
val bug_drop_refill : bool ref
