(** Deterministic structured tracing for the simulated stack.

    Every layer of the stack (sim engine, simos kernel, simnet fabric,
    storage targets, the dmtcp protocol) emits events tagged with the
    *simulated* time, so a run yields a machine-readable trace that is
    byte-identical across runs of the same seed.  Table 1's per-stage
    breakdown is a {!Query} over the trace rather than bespoke arithmetic,
    and a chaos failure can print the last N protocol spans per node next
    to the shrunk reproducer ({!ring}).

    Tracing is zero-cost when off: with no sink attached, {!on} is [false]
    and the emitters return before allocating the event. *)

type kind =
  | Span of float  (** a stage with a duration; [time] is the start *)
  | Instant  (** a point event *)
  | Counter of float  (** a monotonic contribution, e.g. bytes drained *)

type event = {
  time : float;  (** simulated seconds (span: start time) *)
  node : int;  (** emitting node, [-1] if global *)
  pid : int;  (** emitting pid, [-1] if not process-scoped *)
  cat : string;
      (** layer: ["sim" | "kernel" | "net" | "storage" | "dmtcp" | "store" | "sched"] *)
  name : string;  (** e.g. ["ckpt/drain"], ["seg/send"] *)
  kind : kind;
  args : (string * string) list;  (** small, printable key/values *)
}

type sink = { emit : event -> unit }

(** [true] iff at least one sink is attached.  Call sites with non-trivial
    argument construction should guard on this. *)
val on : unit -> bool

(** Attach [sink] for the duration of [f] (detached even on exceptions).
    Sinks nest: all attached sinks receive every event. *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** The emitters are no-ops when no sink is attached. *)

val span :
  ?node:int ->
  ?pid:int ->
  cat:string ->
  name:string ->
  ?args:(string * string) list ->
  time:float ->
  dur:float ->
  unit ->
  unit

val instant :
  ?node:int ->
  ?pid:int ->
  cat:string ->
  name:string ->
  ?args:(string * string) list ->
  time:float ->
  unit ->
  unit

val counter :
  ?node:int ->
  ?pid:int ->
  cat:string ->
  name:string ->
  ?args:(string * string) list ->
  time:float ->
  float ->
  unit

(* ---------------- collection ---------------- *)

(** Unbounded in-order event accumulator. *)
type collector

val collector : unit -> collector
val collector_sink : collector -> sink
val events : collector -> event list

(** Bounded per-node tail of recent events, optionally restricted to one
    category — the chaos harness keeps the last N ["dmtcp"] events per node
    to print next to an invariant violation. *)
type ring

val ring : ?per_node:int -> ?cat:string -> unit -> ring
val ring_sink : ring -> sink

(** Tails sorted by node id; each tail is oldest-first. *)
val ring_tails : ring -> (int * event list) list

(* ---------------- filtering ---------------- *)

type filter = {
  f_node : int option;
  f_pid : int option;
  f_cat : string option;
  f_prefix : string option;  (** event name prefix, e.g. ["ckpt/"] *)
}

val no_filter : filter
val matches : filter -> event -> bool

(* ---------------- rendering (deterministic) ---------------- *)

(** Compact one-liner for failure tails: ["[12.345678900] p204 ckpt/drain ..."]. *)
val describe_short : event -> string

val text : event list -> string

(** One JSON object per line; fixed float formatting, keys in a fixed
    order, so equal event lists render to byte-identical strings. *)
val jsonl : event list -> string

(* ---------------- queries ---------------- *)

module Query : sig
  (** Aggregate [Span] durations by event name within [cat] (default
      ["dmtcp"]); result sorted by name. *)
  val stage_stats : ?cat:string -> event list -> (string * Util.Stats.t) list

  (** Sum of [Counter] contributions with the given category and name. *)
  val counter_total : cat:string -> name:string -> event list -> float
end

(* ---------------- metrics registry ---------------- *)

module Metrics : sig
  (** A process-global registry of named counters, gauges and histograms.
      Unlike trace events these are cheap unconditional accumulators;
      {!snapshot_text} renders them name-sorted so snapshots of identical
      runs compare equal. *)

  type counter
  type gauge
  type histogram

  val counter : string -> counter
  val gauge : string -> gauge
  val histogram : string -> histogram
  val add : counter -> float -> unit
  val incr : counter -> unit
  val set : gauge -> float -> unit
  val observe : histogram -> float -> unit

  (** Reset every registered instrument to its initial state (instruments
      stay registered — callers keep their handles). *)
  val reset : unit -> unit

  (** Name-sorted ["name value"] lines; histograms render count/mean/min/max. *)
  val snapshot_text : unit -> string
end
