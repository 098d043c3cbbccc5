(** Per-job operation queues with a conflict detector.

    Replaces the scheduler's single in-flight op slot: any set of
    mutually non-conflicting ops (disjoint jobs and node sets) runs
    concurrently; conflicting ops serialize in deterministic FIFO
    order.  Generic over the op type so property tests can drive it
    with synthetic ops. *)

type 'op entry = {
  mutable e_op : 'op;
      (** mutable so a stop can coalesce into an in-flight checkpoint of
          the same job without restarting its since-guard *)
  e_id : int;  (** admission order *)
  e_since : float;  (** admission time: the entry's since-guard/timeout base *)
  mutable e_aborted : bool;
}

type 'op t

(** [create ~conflict ~key ()] — [conflict a b] says the two ops may not
    be in flight together; [key] maps an op to its job id for
    engaged-op accounting; [max_inflight] caps concurrency (0 =
    unbounded, the default; 1 reproduces the old serialized queue). *)
val create : ?max_inflight:int -> conflict:('op -> 'op -> bool) -> key:('op -> int) -> unit -> 'op t

(** Append to the pending FIFO. *)
val enqueue : 'op t -> 'op -> unit

(** Admission pass over the pending queue, in order.  An op starts iff
    it conflicts with no live in-flight entry and with no earlier op
    still pending (so conflicting ops start in enqueue order).
    [coalesce op] may consume the op by merging it into an in-flight
    entry (return true); [start op] performs the op's side effects and
    returns false to consume it as a no-op. *)
val admit :
  'op t -> now:float -> ?coalesce:('op -> bool) -> start:('op -> bool) -> unit -> unit

(** Finish an in-flight entry (no-op if already removed). *)
val remove : 'op t -> 'op entry -> unit

(** Drop pending ops matching the predicate. *)
val drop_pending : 'op t -> ('op -> bool) -> unit

(** Mark in-flight entries matching the predicate aborted; they stop
    blocking admission and their owner reaps them. *)
val abort_inflight : 'op t -> ('op -> bool) -> unit

val inflight : 'op t -> 'op entry list
val inflight_count : 'op t -> int

(** High-water mark of concurrently in-flight ops. *)
val peak : 'op t -> int

val is_idle : 'op t -> bool

(** Any op (pending or in flight) engaged for job [key]? *)
val engaged : 'op t -> int -> bool

(** Any engaged op satisfying the predicate? *)
val exists : 'op t -> ('op -> bool) -> bool
