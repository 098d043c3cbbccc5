(** The cluster interconnect and its TCP-like sockets.

    Each connection endpoint owns kernel-style send and receive buffers;
    the fabric moves bytes between peers with configurable latency and
    per-host NIC bandwidth.  At any instant data may therefore live in the
    sender's buffer, "on the wire" (in flight), or in the receiver's
    buffer — exactly the states DMTCP's drain protocol must empty before a
    checkpoint (paper §4.3 step 4).

    UNIX-domain sockets use the same machinery with loopback latency and
    host-local addressing; [socketpair] returns a pre-connected pair. *)

type t
type socket

type state = Created | Bound | Listening | Connecting | Established | Closed

type error =
  | Refused
  | Not_connected
  | Already_bound
  | Addr_in_use
  | Invalid

val pp_error : error -> string

(** [create engine ~nhosts ()] builds a fabric.
    Defaults: 100 us latency, 117 MB/s NIC bandwidth (GbE), 10 us
    loopback. *)
val create :
  Sim.Engine.t ->
  ?latency:float ->
  ?bandwidth:float ->
  ?loopback_latency:float ->
  nhosts:int ->
  unit ->
  t

(** Buffer capacity per direction (64 KiB, "tens of kilobytes" §5.4). *)
val buffer_capacity : int

(** Fresh TCP endpoint on [host]. *)
val socket : t -> host:Addr.host -> socket

(** Fresh UNIX-domain endpoint on [host]. *)
val socket_unix : t -> host:Addr.host -> socket

(** Connected UNIX-domain pair (both ends on [host]). *)
val socketpair : t -> host:Addr.host -> socket * socket

(** [bind sock ~port] with [port = 0] picks an ephemeral port. *)
val bind : socket -> port:int -> (int, error) result

val bind_unix : socket -> path:string -> (unit, error) result
val listen : socket -> backlog:int -> (unit, error) result

(** The backlog passed to {!listen} (clamped to ≥ 1); [0] before listen.
    Checkpointing reads this so restart can re-listen faithfully. *)
val backlog : socket -> int

(** Begin an asynchronous connect; the socket becomes [Established] (or
    [Closed] with {!connect_refused}) after network round trips. *)
val connect : socket -> Addr.t -> (unit, error) result

(** Pop one pending connection, if any. *)
val accept : socket -> socket option

(** [send sock data] queues as much of [data] as fits in the send buffer
    and returns the count ([Ok 0] = flow-controlled). *)
val send : socket -> string -> (int, error) result

val recv : socket -> max:int -> [ `Data of string | `Eof | `Would_block | `Error of error ]

(** Half-close of our side; the peer sees EOF once all data drains. *)
val close : socket -> unit

val id : socket -> int
val state : socket -> state
val local_addr : socket -> Addr.t option

(** Address of the physical peer endpoint, if connected. *)
val peer_addr : socket -> Addr.t option

val is_unix : socket -> bool
val connect_refused : socket -> bool

(** Data available to read, EOF pending, or (for listeners) a pending
    connection. *)
val readable : socket -> bool

val writable : socket -> bool

(** Bytes currently buffered on the receive side. *)
val recv_buffered : socket -> int

(** Bytes in our send buffer, not yet on the wire. *)
val send_buffered : socket -> int

(** Bytes this endpoint has put on the wire that have not yet reached the
    peer. *)
val in_flight : socket -> int

(** Register the kernel wake-up hook, invoked on any state change
    (data arrival, connect completion, EOF, accept-queue push). One slot;
    later registrations replace earlier ones. *)
val on_activity : socket -> (unit -> unit) -> unit

(** The wake cells armed on the socket ({!Sim.Wake}).  Every call of
    the {!on_activity} hook fires them first, and every change that can
    make the socket readable makes one. *)
val wake_cells : socket -> Sim.Wake.cells

(** {2 Checkpoint support}

    [inject_recv sock data] places [data] at the tail of [sock]'s receive
    buffer without traversing the wire.  This is the simulation shortcut
    for DMTCP's refill step (paper §4.3 step 6): in the real system the
    receiver sends drained data back to the sender, who re-transmits it so
    it ends up in kernel buffers again; here the end state is produced
    directly and the caller charges the retransmission time.  Capacity is
    deliberately not enforced — drained data by construction fit the
    buffers it came from. *)
val inject_recv : socket -> string -> unit

(** Unique id of the physical peer endpoint, if connected — used by the
    DMTCP layer's connect/accept handshake to match the two ends of a
    connection. *)
val peer_id : socket -> int option

(** The peer endpoint has called [close]: EOF has been received, or the
    FIN is still in flight (an established socket with no peer is also
    gone). *)
val peer_gone : socket -> bool

(** Turn a fresh socket into the local end of a peer-closed stream:
    reads return injected data then EOF; writes fail (restart of a
    half-closed connection). *)
val inject_eof : socket -> unit

(** {2 Fault injection}

    Knobs for the chaos layer.  A downed link holds all traffic — senders
    park and retry every 20 ms until the link heals, and a SYN that would
    cross the partition is refused.  Latency factors stretch propagation
    delay on a link; [set_drop] models segment loss as a per-chunk
    retransmission-timeout penalty drawn from the supplied rng so runs
    stay deterministic per seed.  Loopback traffic is never faulted.  Always heal partitions (e.g. via [clear_faults]) before
    draining the engine with no [until] bound: parked senders reschedule
    themselves indefinitely. *)

val retransmit_timeout : float

val set_link_up : t -> a:Addr.host -> b:Addr.host -> bool -> unit
val set_latency_factor : t -> a:Addr.host -> b:Addr.host -> float -> unit

(** [set_drop t ~prob rng] makes each inter-host chunk transfer pay
    {!retransmit_timeout} with probability [prob].  [prob = 0.] disables. *)
val set_drop : t -> prob:float -> Util.Rng.t -> unit

(** Restore every link and clear the drop model. *)
val clear_faults : t -> unit
