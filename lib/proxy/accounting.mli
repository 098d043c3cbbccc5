(** Byte-conservation ledger for the rank/proxy split — instrumentation
    gauges keyed by MPI job (its [base_port]), written by the ranks,
    read by tests, chaos verdicts and the bench.

    The invariant the ledger exposes (and the QCheck property pins):
    every payload byte a rank has sent but that its destination has not
    yet accepted is *retained* by the sender's resend buffer — whatever
    additionally sits in proxy buffers or on the wire is a disposable
    copy.  At quiesce, sent = delivered per directed pair.

    Gauges are plain host-global state (never checkpointed): a restore
    rewinds the writers, and the next mirror write rewinds the gauge. *)

(** Rank [rank]'s view: payload bytes sent per destination, accepted per
    source, and still retained (unacknowledged) per destination.  Arrays
    are copied. *)
val set_rank :
  base_port:int ->
  rank:int ->
  sent_to:int array ->
  delivered_from:int array ->
  retained_to:int array ->
  unit

(** (sent, delivered, retained) summed over every rank of the job. *)
val totals : base_port:int -> int * int * int

(** Per directed pair: payload bytes [src] sent toward [dst] / [dst]
    accepted from [src] / [src] still retains for [dst]. *)
val pair : base_port:int -> src:int -> dst:int -> int * int * int

(** Drop every gauge of a job (test isolation). *)
val reset : base_port:int -> unit
