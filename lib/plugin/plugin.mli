(** Typed event-hook subsystem, after DMTCP's plugin event model.

    The checkpoint/restart core publishes events at every protocol
    transition the tracer instruments (pre/post each coordinator stage
    and barrier, FD capture, image write, restart discovery, restart
    rearrangement); plugins subscribe to named hook sites and receive a
    typed payload they may mutate in place.  All "open world" handling
    — the paper's heuristics for resources that cannot be checkpointed
    transparently — lives in plugins layered on this API, not in the
    manager/restart core.

    Determinism contract: plugins run in registration order (a fixed
    program-text order, independent of the order of the enabled set),
    handlers execute in zero simulated time, and every handler run
    emits a [plugin/<name>/<site>] trace span, so two runs of the same
    scenario produce byte-identical traces. *)

(** Open payload type; the checkpoint library extends it with one
    constructor per hook site (see [Dmtcp.Events]). *)
type payload = ..

type t = {
  p_name : string;  (** unique name, as the enabled set lists it *)
  p_doc : string;   (** one-line description for [plugins ls] *)
  p_hooks : (string * (payload -> unit)) list;
      (** (site, handler) pairs; a plugin may hook several sites *)
}

(** Register a plugin.  Registration order is the dispatch order and
    must be deterministic — call from module initialisation, never from
    event handlers.  Re-registering a name replaces the previous
    definition in place (idempotent [ensure_registered] patterns). *)
val register : t -> unit

(** All registered plugins, in registration order. *)
val registered : unit -> t list

(** Set the enabled plugin set.  Unknown names raise [Invalid_argument]
    listing the registered names.  Dispatch order remains registration
    order regardless of the order given here. *)
val set_enabled : string list -> unit

val enabled_names : unit -> string list
val is_enabled : string -> bool

(** [dispatch ?node ?pid ~now site payload] runs, in registration
    order, every enabled plugin's handlers for [site].  Each handler
    run emits a zero-duration [plugin/<name>/<site>] trace span at
    virtual time [now] and bumps the site's dispatch counter. *)
val dispatch : ?node:int -> ?pid:int -> now:float -> string -> payload -> unit

(** Per-site handler-run counters since the last [reset_counts] —
    [(site, runs)] sorted by site name.  Feeds [plugins ls]. *)
val site_counts : unit -> (string * int) list

val reset_counts : unit -> unit
