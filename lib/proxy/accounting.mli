(** Byte-conservation ledger for the rank/proxy split — instrumentation
    gauges keyed by MPI job (its [base_port]), written by the ranks,
    read by tests, chaos verdicts and the bench.

    The invariant the ledger exposes (and the QCheck property pins):
    every payload byte a rank has sent but that its destination has not
    yet accepted is *retained* by the sender's resend buffer — whatever
    additionally sits in proxy buffers or on the wire is a disposable
    copy.  At quiesce, sent = delivered per directed pair.

    The ledger is run state: each cluster's run store
    ({!Simos.Cluster.local}) holds its own, which starts empty, so a
    new cluster needs no reset.  Gauges are never checkpointed: a
    restore rewinds the writers, and the next mirror write rewinds the
    gauge. *)

(** One job's gauges in one run. *)
type job

(** Job [base_port]'s gauges in the run whose store is given (a rank
    passes its [ctx.local]). *)
val job : Simos.Local.t -> base_port:int -> job

(** Rank [rank]'s view: payload bytes sent per destination, accepted per
    source, and still retained (unacknowledged) per destination.  Arrays
    are copied. *)
val set_rank :
  job -> rank:int -> sent_to:int array -> delivered_from:int array -> retained_to:int array -> unit

(** (sent, delivered, retained) summed over every rank of the job, in
    the cluster's run. *)
val totals : Simos.Cluster.t -> base_port:int -> int * int * int

(** Per directed pair: payload bytes [src] sent toward [dst] / [dst]
    accepted from [src] / [src] still retains for [dst]. *)
val pair : Simos.Cluster.t -> base_port:int -> src:int -> dst:int -> int * int * int
