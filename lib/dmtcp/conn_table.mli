(** The per-process connection information table (paper §4.3 step 4,
    §4.4).

    Wrappers populate it as sockets are created; the drain stage completes
    it with the peer handshake and the drained byte stash.  The image
    writer copies each socket's entry into the image's fd records
    ({!Ckpt_image.FSock}), and restart re-creates the sockets from those
    records; the table itself is never written to disk. *)

type role =
  | Connector
  | Acceptor
  | Pair_a  (** socketpair / promoted-pipe end created first *)
  | Pair_b

type sock_kind = Tcp | Unixsock | Pair

type entry = {
  mutable conn_id : Conn_id.t;
      (** both ends converge on the connector's ID at handshake time *)
  mutable role : role;
  kind : sock_kind;
  desc_id : int;  (** physical open-file-description id (sharing key) *)
  mutable drained : string;     (** bytes drained from our receive side *)
  mutable eof : bool;
      (** the peer closed before the checkpoint: the stream ends (EOF)
          right after [drained] *)
  mutable saved_owner : int;    (** F_SETOWN value to restore after refill *)
}

type t

(** A fresh entry: nothing drained, no EOF, no saved owner. *)
val entry : conn_id:Conn_id.t -> role:role -> kind:sock_kind -> desc_id:int -> entry

val create : unit -> t

(** Keyed by fd. One desc may appear under several fds (dup). *)
val add : t -> fd:int -> entry -> unit

val find : t -> fd:int -> entry option
val remove : t -> fd:int -> unit

(** All (fd, entry) pairs, ascending fd. *)
val entries : t -> (int * entry) list

(** Entries deduplicated by [desc_id] (election/drain iterate these). *)
val unique_descs : t -> (int * entry) list

(** Copy for a forked child (entries share conn ids but stashes are
    per-process). *)
val clone : t -> t
