(** The fixed scenario behind [dmtcp_sim trace]: a 4-rank OpenMPI
    workload on 4 nodes, checkpointed once and restarted, traced end to
    end. *)

(** Reset the metrics registry, run the scenario under [options] with a
    collector attached, and return the full event stream plus the final
    metrics snapshot.  Deterministic: repeated calls return identical
    data.  With [options.incremental] two delta checkpoints are chained
    onto the full base before the kill, so the traced restart resolves a
    depth-2 delta chain; [lazy_restart] makes the traced restart resume
    after the hot set and drain cold pages through the prefetcher; the
    enabled [plugins] add their deterministic [plugin/<name>/<site>]
    spans to the trace. *)
val run : Dmtcp.Options.t -> Trace.event list * string
