(** The rank↔proxy protocol: a small ordered request/reply framing
    spoken over a host-local unix-domain socket, plus the raw routed
    frames proxies forward to each other over inter-node TCP.

    The split follows "DMTCP Checkpoint/Restart of MPI Programs via
    Proxies" (PAPERS.md): the per-node proxy owns every inter-node
    socket; ranks only ever hold one unix connection to their local
    proxy, so a checkpoint of a rank sees nothing but its in-flight
    protocol state.

    Reliability is end-to-end: each [Data] frame carries a per-(src,dst)
    sequence number, senders retain payloads until the *destination
    rank* acknowledges them, and receivers deliver strictly in order
    (dropping gap frames, re-acknowledging duplicates).  Proxy custody
    and wire state are therefore disposable — a restart relaunches
    proxies empty and the ranks' resend protocol recovers every
    undelivered byte.

    [Data]/[Ack] frames additionally carry the sender's restart [epoch]
    (connection generation).  Proxies outlive rank restarts, so their
    buffers and inter-proxy pipes can still hold frames a killed
    computation produced {e after} the checkpoint snapshot; restored
    ranks run one epoch later and discard those — in particular a stale
    [Ack] must not cancel the resend of a delivery the rewind undid. *)

(** Where the proxy for MPI job [base_port] listens on its node. *)
val sock_path : base_port:int -> string

(** Common prefix of every proxy unix path (the checkpoint layer's
    mpi-proxy plugin recognises rank↔proxy connections by it). *)
val path_prefix : string

(** Inter-node TCP port of a job's proxies (the job's rank ports are
    free: proxy-backed ranks bind no inet ports at all). *)
val tcp_port : base_port:int -> int

type frame =
  | Hello of { rank : int; size : int; rpn : int }
      (** rank → proxy: register; the proxy learns the job geometry *)
  | Welcome  (** proxy → rank: registered; parked frames follow *)
  | Data of { src : int; dst : int; epoch : int; seq : int; tag : char; payload : string }
      (** routed rank payload; [seq] is per-(src,dst), starting at 1;
          [epoch] is the sender's restart generation *)
  | Ack of { src : int; dst : int; epoch : int; seq : int }
      (** routed: [src] has received everything [dst] sent it up to [seq] *)
  | Deliver of { src : int; epoch : int; seq : int; tag : char; payload : string }
      (** proxy → rank: a [Data] frame addressed to this rank *)
  | Ack_ind of { src : int; epoch : int; seq : int }
      (** proxy → rank: [src] acknowledged your frames through [seq] *)

(** Length-prefixed encoding ready to write to a socket. *)
val to_bytes : frame -> string

(** Pop one complete frame off the head of a stream buffer: [None]
    until the whole frame has arrived.  A malformed frame (negative
    length, unknown type, bad body) raises {!Util.Codec.Reader.Corrupt};
    the reader drops the connection, as on a hangup. *)
val pop : string -> (frame * string) option
