(** Throughput model for simulated compression time.

    Protocol correctness uses the real codecs; *time* is simulated, and
    this module is the single place the calibration constants live (see
    DESIGN.md §4).  Rates follow the paper's observations: gzip-class
    compression is slower than disk (so compressed checkpoints take
    longer, Figure 4a), decompression is faster than compression (so
    restart beats checkpoint, §5.4), and all-zero data compresses an order
    of magnitude faster (the NAS/IS anomaly). *)

(** [compress_seconds ~algo ~bytes ~zero_bytes] is the simulated time for
    one core to compress [bytes] of which [zero_bytes] are in all-zero
    pages. *)
val compress_seconds : algo:Algo.t -> bytes:int -> zero_bytes:int -> float

val decompress_seconds : algo:Algo.t -> bytes:int -> zero_bytes:int -> float
