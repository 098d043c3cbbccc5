(** A message-passing library over the simulated cluster — the stand-in
    for MPICH2/OpenMPI in the paper's evaluation — with two
    interchangeable transports:

    - {b direct}: every neighbour pair holds a TCP socket of its own
      (rank [r] listens on [base_port + r]) — the classic mesh.  A
      checkpoint must drain and restore every one of those sockets.
    - {b proxy}: the rank holds exactly one unix-domain connection to
      its node's proxy daemon ({!Proxy.Daemon}); all inter-node TCP
      lives in the proxy, outside checkpoint control.  A checkpoint of
      the rank sees only its in-flight protocol state: per-peer
      sequence numbers and unacknowledged-send buffers.  Proxy custody
      is disposable — after restart the relaunched (empty) proxy hands
      the rank a fresh [Welcome] and the rank resends whatever was
      never acknowledged end-to-end; receivers accept in sequence order
      and discard duplicates, so delivery stays exactly-once.

    DMTCP deliberately knows nothing about the library itself: on the
    direct path checkpoints see only its sockets (the paper's point —
    no MPI-specific checkpoint hooks); on the proxy path the rank image
    shrinks to the protocol state above.

    The library lives *inside* application state machines: a {!t} value
    is part of the program state and fully serializable, so a
    checkpoint taken mid-collective restores and completes correctly on
    either transport.  The collectives, barrier and allreduce-sum, run
    over a star rooted at rank 0, so rank 0 neighbours everyone. *)

type t

type transport = Direct | Proxied

(** ["direct"] or ["proxy"]/["proxied"]; raises [Invalid_argument]
    otherwise. *)
val transport_of_string : string -> transport

(** [create ~rank ~size ~base_port ~ranks_per_node ~neighbors ()]
    prepares a communicator; drive {!init_step} until [`Ready].

    [neighbors] is the {e whole} neighbour relation, queried for every
    rank: rank [r] may exchange point-to-point messages with
    [neighbors r].  Rank 0 is implicitly a neighbour of every rank.
    The relation is validated eagerly: an out-of-range rank, or an
    asymmetric pair — some [r] listing [n] while [n] does not list [r],
    which would deadlock {!init_step} — raises [Invalid_argument]
    naming both ranks. *)
val create :
  rank:int ->
  size:int ->
  base_port:int ->
  ranks_per_node:int ->
  ?transport:transport ->
  neighbors:(int -> int list) ->
  unit ->
  t

val rank : t -> int
val size : t -> int
val transport : t -> transport

(** Node hosting a rank under this communicator's placement. *)
val host_of_rank : t -> int -> int

(** Progress connection establishment.  Direct: listeners, eager
    connects and rank handshakes; a rank header outside [0..size-1]
    raises {!Util.Codec.Reader.Corrupt}.  Proxy: connect to the node
    proxy and await [Welcome]. *)
val init_step : Simos.Program.ctx -> t -> [ `Ready | `Pending ]

(** Queue a message to [dst] (a neighbour). Never blocks; bytes drain via
    {!progress}.  Tags ['g'] and ['r'] are reserved for collectives. *)
val send : t -> dst:int -> tag:char -> string -> unit

(** Push queued bytes out and parse arrived frames into per-peer inboxes
    (on the proxy path this also runs the ack/resend protocol).
    Call once per step before receiving.

    Direct: once every neighbour is connected, a call visits only the
    neighbours whose socket may have become readable since their last
    visit, or whose output is pending, in neighbour order (DESIGN
    §2.4).  A frame length below 1 raises
    {!Util.Codec.Reader.Corrupt}. *)
val progress : Simos.Program.ctx -> t -> unit

(** Take the oldest message with [tag] from [src], if present. *)
val recv : t -> src:int -> tag:char -> string option

(** Take the oldest message with [tag] from any source. *)
val recv_any : t -> tag:char -> (int * string) option

(** Bytes queued toward [dst] that have not yet entered the socket
    (direct: unflushed frames; proxy: unacknowledged payload bytes) —
    application-level backpressure signal. *)
val pending_out : t -> dst:int -> int

(** The wait condition to block on when nothing can progress. *)
val wait : Simos.Program.ctx -> t -> Simos.Program.wait

(** Every payload this rank produced has reached its destination rank
    (direct: output flushed; proxy: nothing buffered or unacknowledged).
    Transport custody is disposable, so a rank must keep driving
    {!progress} until quiesced before it exits — bytes still awaiting
    acknowledgement would otherwise never be resent.  Every rank
    program honours this through its exit flush ({!Nas.Make}). *)
val quiesced : t -> bool

(** 8-byte float payload helpers (halo exchanges etc.). *)
val f64_str : float -> string

val str_f64 : string -> float

(** {2 Collectives} — serializable sub-state machines.  Drive with
    [step] until [`Done]; exactly one collective of a given kind may be
    in flight at a time per communicator. *)

module Coll : sig
  type op

  val barrier : op
  val allreduce_sum : float -> op

  type st

  val start : op -> st
  val step : Simos.Program.ctx -> t -> st -> [ `Done of float | `Pending ]

  val encode : Util.Codec.Writer.t -> st -> unit
  val decode : Util.Codec.Reader.t -> st
end

val encode : Util.Codec.Writer.t -> t -> unit

(** Raises {!Util.Codec.Reader.Corrupt} on a record [create] could not
    have made: the rank, a neighbour or a pending-connect peer outside
    [0..size-1], a per-rank array that is not [size] long, an
    in-buffer that opens with a frame length below 1, or a pending rank
    header of 4 bytes. *)
val decode : Util.Codec.Reader.t -> t
