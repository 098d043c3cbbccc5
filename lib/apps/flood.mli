(** A deliberately congested producer/consumer pair used by the drain
    ablation: even ranks stream data to odd ranks that read slowly, so at
    checkpoint time the socket buffers (send, in-flight, receive) are
    full and the drain stage has real work to do.

    Rank program ["apps:flood"]; extra argv: [[read_interval_ms]]. *)


val prog_name : string
