(** MTCP: single-process checkpointing of memory and threads.

    This is the lower of DMTCP's two layers (paper §4.1): it owns the
    process image — address space and user threads — while the distributed
    layer above owns sockets, files and other kernel artifacts.  The two
    communicate through a deliberately small API, mirroring the paper's
    claim that the split eases porting.

    An image is a real byte string: thread program states are serialized
    through the program registry and the address space through the page
    codec, then the whole payload is framed by {!Compress.Container} with
    the chosen scheme and a CRC.  Synthetic bulk pages are stored as
    descriptors, so the *simulated* on-disk size (what the paper's
    experiments measure) is computed separately by {!sizes}. *)

type thread_image = {
  ti_inst : Simos.Program.instance;
  ti_wait : Simos.Program.wait option;  (** re-blocked on restore *)
}

type t = {
  cmdline : string list;
  env : (string * string) list;
  threads : thread_image list;           (** user threads only, not managers *)
  space : Mem.Address_space.t;
  sigtable : (int * Simos.Kernel.sigaction) list;  (** saved signal handlers *)
  pending_signals : int list;
}

(** [capture proc] snapshots a (suspended) process: a COW copy of the
    address space and the current program state of every non-manager
    thread.  The caller is responsible for having suspended user threads
    first — capturing a running process is a checkpointing bug. *)
val capture : Simos.Kernel.process -> t

(** Size accounting for an image under a compression scheme. *)
type sizes = {
  uncompressed : int;   (** bytes a raw dump would occupy *)
  compressed : int;     (** simulated on-disk bytes under the scheme *)
  zero_bytes : int;     (** untouched pages (compress ~for free) *)
}

(** Real pages are priced by {!Mem.Page.compressed_size}, so a page value
    already sized by an earlier image (an unchanged page of the same
    process) is not compressed again. *)
val sizes : Compress.Algo.t -> t -> sizes

(** [delta_sizes algo t] — size accounting for an *incremental*
    checkpoint: it charges exactly the pages {!encode_delta} ships inline,
    those {!Mem.Region.ships} selects (dirty since the last
    {!Mem.Address_space.clear_dirty}, or in a shared mapping), plus a
    one-byte-per-page bitmap.  Incremental checkpointing is this
    repository's implementation of the compressed-differences line of
    work the paper cites ([2], [25]). *)
val delta_sizes : Compress.Algo.t -> t -> sizes

(** Encode to real bytes (framed, CRC-protected). *)
val encode : algo:Compress.Algo.t -> t -> string

(** Decode; raises {!Util.Codec.Reader.Corrupt} on any damage,
    including a program name missing from the registry. *)
val decode : string -> t

(** {2 Incremental delta images}

    A delta image re-encodes everything except the pages that do not
    ship: the address space goes through {!Mem.Address_space.encode} like
    a full image's, with a page step that writes each page either inline
    (it ships, {!Mem.Region.ships}) or as a tagged reference to the base
    image's page at the same region id and index.  The payload is framed by
    {!Compress.Container} exactly like a full image, so
    {!Compress.Container.frame_bounds} applies and delta frames dedup in
    the checkpoint store like any other frames. *)

(** [encode_delta ~algo t] encodes [t] against the base snapshot implied
    by [t.space]'s dirty bits: pages that do not ship
    ({!Mem.Region.ships}) are stored as references.  The caller must pair
    the result with the identity of the image those bits are relative
    to — {!apply_delta} needs that exact image. *)
val encode_delta : algo:Compress.Algo.t -> t -> string

(** [apply_delta ~base s] reconstructs the full image: referenced pages
    are taken from [base] (the image whose checkpoint cleared the dirty
    bits [s] was encoded under).  Raises {!Util.Codec.Reader.Corrupt} on
    a non-delta payload, a dangling base reference or any other damage.  The reconstruction is structurally
    equal to the original capture, so [encode ~algo (apply_delta ~base s)]
    is byte-identical to encoding the original full image. *)
val apply_delta : base:t -> string -> t

(** [restore_threads kernel proc image] re-creates the image's user
    threads inside [proc] (an empty shell from
    {!Simos.Kernel.create_raw_process}) and installs the restored address
    space.  Threads resume exactly where [capture] saw them: runnable
    threads are rescheduled, blocked threads re-block on their saved wait
    condition. *)
val restore_threads : Simos.Kernel.t -> Simos.Kernel.process -> t -> unit

(** Structural equality (used by tests). *)
val equal : t -> t -> bool
