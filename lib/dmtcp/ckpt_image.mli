(** The per-process DMTCP checkpoint image: the distributed layer's
    metadata (fd table, connection table, ptys, pid virtualization)
    wrapped around the MTCP memory/threads image.

    One such image is written per process per checkpoint, to
    [<ckpt_dir>/ckpt_<program>_<upid>.dmtcp] on the process's node. *)

(** How to re-create one fd at restart.  [desc_key] groups fds (possibly
    across processes on the same host) that shared an open file
    description — they must be restored to a single shared object. *)
type fd_info =
  | FFile of { path : string; offset : int }
  | FSock of {
      state : sock_state;
      kind : Conn_table.sock_kind;
      role : Conn_table.role;
      conn_id : Conn_id.t;
      drained : string;
      eof : bool;  (** peer closed pre-checkpoint: EOF follows [drained] *)
    }
  | FPty of { master : bool; pty_key : int }

and sock_state =
  | S_established
  | S_listening of { port : int option; unix_path : string option; backlog : int }
  | S_other  (** unconnected/closed endpoints: recreated fresh *)

type pty_record = {
  pty_key : int;
  pr_name : string;
  icanon : bool;
  echo : bool;
  isig : bool;
  baud : int;
  drained_to_slave : string;
  drained_to_master : string;
}

type t = {
  upid : Upid.t;
  vpid : int;
  parent_vpid : int;            (** 0 = no checkpointed parent *)
  program : string;             (** argv[0], for the image filename *)
  fds : (int * int * fd_info) list;  (** (fd, desc_key, info) *)
  ptys : pty_record list;
  algo : Compress.Algo.t;
  sizes : Mtcp.Image.sizes;
  delta_base : string option;
      (** [Some name]: [mtcp_blob] is an MTCPD1 delta against the image
          file [name] (same lineage); resolve with {!delta_mtcp}.
          [None]: a self-contained full image. *)
  mtcp_blob : string;           (** framed MTCP image (full or delta) *)
}

(** Image filename for this upid; [?seq] appends a per-checkpoint [.dN]
    discriminator — incremental mode gives every checkpoint a distinct
    name so a delta's base is never overwritten in place. *)
val filename : ?seq:int -> t -> string

(** An alias of {!Util.Codec.Reader.Corrupt}, the one exception every
    image decoder raises on damage, kept under its old name for callers
    outside the library. *)
exception Corrupt_image of string

(** Image bytes: magic, then metadata and MTCP-blob sections, each
    length-prefixed and followed by a CRC-32 trailer. *)
val encode : t -> string

(** Raises {!Util.Codec.Reader.Corrupt} on damage.  A stray
    [Invalid_argument] or [Failure] from a decoder is converted to it
    too: the one safety net at the image boundary. *)
val decode : string -> t

(** Decode the wrapped MTCP image (memory + threads).  Only valid when
    [delta_base = None]; a delta blob fails with
    {!Util.Codec.Reader.Corrupt}, as does any damage. *)
val mtcp : t -> Mtcp.Image.t

(** [delta_mtcp t ~base] reconstructs a delta image's full MTCP image
    from the resolved base.  Raises {!Util.Codec.Reader.Corrupt} on
    damage or a dangling base reference. *)
val delta_mtcp : t -> base:Mtcp.Image.t -> Mtcp.Image.t

(** Split encoded image bytes at the mtcp blob's DMZ2 frame boundaries
    — the dedup units of the content-addressed store.  Concatenating
    the chunks reproduces the input exactly; unparseable input yields a
    single chunk. *)
val chunk : string -> string list

(** (established socket specs, drained socket bytes) over the image's fd
    table: what a restart must reconnect and re-inject. *)
val socket_stats : t -> int * int
