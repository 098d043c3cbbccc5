(** Discrete-event simulation engine.

    The engine owns a virtual clock and an event queue.  Everything in the
    simulated cluster — kernel scheduling, network segment delivery, disk
    write completion, DMTCP barrier releases — runs as events on one
    engine, so a whole multi-node run is a single deterministic sequence.

    Events wait in one {!Util.Heap} keyed by time; events scheduled for the
    same instant fire in scheduling order. *)

type t

(** Cancellation handle for a scheduled event. *)
type handle

(** [create ()] makes an engine whose clock starts at [0.]. *)
val create : unit -> t

(** Current virtual time in seconds. *)
val now : t -> float

(** [schedule t ~delay f] runs [f] at [now t +. delay].
    Raises [Invalid_argument] on negative delay. *)
val schedule : t -> delay:float -> (unit -> unit) -> handle

(** [schedule_at t ~time f] runs [f] at absolute [time] (>= now). *)
val schedule_at : t -> time:float -> (unit -> unit) -> handle

(** Cancel a pending event; cancelling a fired or cancelled event is a
    no-op. *)
val cancel : handle -> unit

(** Run one event; [false] if the queue was empty. *)
val step : t -> bool

(** [run t] processes events until the queue drains, or until the optional
    [until] time (events strictly after it stay queued and the clock
    advances to [until]).  More than 50 million events in one call
    raise [Failure], a guard against livelock. *)
val run : ?until:float -> t -> unit

(** [advance t ~delay] = run until [now + delay]. *)
val advance : t -> delay:float -> unit
