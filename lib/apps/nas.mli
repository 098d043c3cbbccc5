(** NAS-parallel-benchmark-style kernels (paper §5.2, Figure 4).

    Each is a *real* distributed computation at reduced scale — actual
    conjugate gradient, bucket sort, multigrid, and sweep solvers with
    verified answers — running over {!Mpi} with the memory footprint of
    its class-C counterpart supplied as synthetic pages.  A checkpoint
    can land at any point (mid-collective, mid-halo-exchange) and the
    kernel must still verify after resume or restart.

    Registered programs (all take the standard rank argv of
    {!Launchers.parse_rank_args}, plus kernel-specific extras):

    - ["nas:baseline"] — the "hello world" used to price checkpointing a
      bare MPI runtime;
    - ["nas:ep"] — embarrassingly parallel Monte Carlo;
    - ["nas:is"] — integer bucket sort with all-to-all exchange and
      deliberately over-provisioned (zero-filled) buckets, the paper's
      compression anomaly;
    - ["nas:cg"] — conjugate gradient on a distributed tridiagonal
      system, halo exchanges plus allreduce dot products;
    - ["nas:mg"] — V-cycle multigrid for 1-D Poisson, distributed Jacobi
      smoothing with a gathered coarse solve;
    - ["nas:lu"] — pipelined forward/backward Gauss–Seidel (SSOR) sweeps;
    - ["nas:sp"] — ADI-style sweeps with a scalar pentadiagonal solver;
    - ["nas:bt"] — the same with 3x3 block-tridiagonal lines. *)


(** {2 Kernel framework} — the one rank framework: every MPI rank
    program (these kernels, {!Stencil}, ParGeant4, the iPython demo,
    the flood and Figure-6 synthetic workloads) is a {!Make}.  A step
    that raises {!Util.Codec.Reader.Corrupt} (a peer's rank header or
    frame length the {!Mpi} framing rejects) ends that rank only, with
    exit code {!Dmtcp.Exit_code.corrupt_image} (72). *)

(** Simulated CPU seconds per floating-point operation. *)
val flop_cost : float

(** Outcome of one kernel step. *)
type 'k kout =
  | K_compute of 'k * float  (** burn CPU seconds *)
  | K_wait of 'k             (** block until communication progresses *)
  | K_done of float * bool   (** (result value, verified) *)

module type KERNEL = sig
  type kstate

  val prog_name : string
  val short : string
  val mem_bytes : int
  val mem_mix : Workload_mem.mix
  val neighbors : rank:int -> size:int -> int list
  val kinit : rank:int -> size:int -> extra:string list -> kstate
  val encode_k : Util.Codec.Writer.t -> kstate -> unit
  val decode_k : Util.Codec.Reader.t -> kstate
  val kstep : Simos.Program.ctx -> Mpi.t -> kstate -> kstate kout
end

(** Wrap a kernel as a rank program.  In order:
    - boot: parse the rank argv; a leading extra word that
      {!Mpi.transport_of_string} accepts picks the transport and is
      consumed (default direct); allocate [mem_bytes] of [mem_mix];
    - MPI init, then the kernel loop;
    - on [K_done], rank 0 writes ["<SHORT> VERIFIED <value>"] (or
      [FAILED]) to [/result/<short>-<base_port>], the value printed
      with [%.17g] so runs compare byte for byte;
    - exit flush: drive {!Mpi.progress} until {!Mpi.quiesced};
    - notify mpirun; exit 0 when verified, 1 otherwise. *)
module Make (_ : KERNEL) : Simos.Program.S

(** {2 Kernel helpers} *)

(** [ring_neighbors ~rank ~size]: rank-1 and rank+1, where they exist. *)
val ring_neighbors : rank:int -> size:int -> int list

(** [send_ring comm ~tag ~lo ~hi] queues [lo] to rank-1 and [hi] to
    rank+1, where they exist, and returns the (lo, hi) arrival flags
    that start {!recv_ring}: a side with no neighbour has arrived. *)
val send_ring : Mpi.t -> tag:char -> lo:string -> hi:string -> bool * bool

(** [recv_ring comm ~tag (got_lo, got_hi) ~lo ~hi] takes the [tag]
    message of each side not yet arrived, rank-1's before rank+1's, and
    hands it to [lo] or [hi]; returns the updated flags. *)
val recv_ring :
  Mpi.t -> tag:char -> bool * bool -> lo:(string -> unit) -> hi:(string -> unit) -> bool * bool

(** Step a collective once: [on_done v] when it completed with [v],
    else [K_wait (wrap st)] to resume it later. *)
val drive_coll :
  Simos.Program.ctx -> Mpi.t -> Mpi.Coll.st -> on_done:(float -> 'k kout) ->
  wrap:(Mpi.Coll.st -> 'k) -> 'k kout

(** (program name, per-rank uncompressed memory bytes) for each kernel,
    as used by the harness to set up Figure 4. *)
val catalog : (string * int) list
