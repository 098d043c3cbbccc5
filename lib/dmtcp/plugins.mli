(** The plugin table, after DMTCP's plugin event model: the paper's
    "open world" heuristics as built-in plugins, and one typed
    dispatcher per hook site the checkpoint/restart core calls (see
    DESIGN.md §8 for the hook catalog and the heuristics table).

    A plugin is one record of optional hooks, one per site.  A
    dispatcher runs the hook of every plugin in the enabled list that
    has one, in table order, in zero simulated time; after each
    handler it emits a zero-duration [plugin/<name>/<site>] trace span
    at the caller's node, pid and virtual time [now], so two runs of a
    scenario give byte-identical traces. *)

type t = {
  name : string;  (** unique; what [Options.plugins] lists *)
  doc : string;  (** one line for [plugins ls] *)
  stage : ([ `Pre | `Post ] -> Faults.stage -> unit) option;
      (** sites [pre-<stage>] and [post-<stage>]: entry to and exit
          from each manager stage and barrier *)
  drain_select : (Simnet.Fabric.socket -> bool) option;
      (** site [drain-select]: each connection the manager leads at the
          drain stage; [true] leaves it un-drained *)
  fd_capture :
    (Simos.Fdesc.t -> Ckpt_image.fd_info option -> Ckpt_image.fd_info option) option;
      (** site [fd-capture]: each fd of a process being written, with
          the classification about to enter the image; returns the one
          to write, [None] to drop the fd *)
  image_write : (Mtcp.Image.t -> unit) option;
      (** site [image-write]: the captured address space before sizing
          and encoding; what the hook changes is what the image holds *)
  restart_discovery :
    (Simos.Kernel.t -> eof:bool -> Simos.Fdesc.t option -> Simos.Fdesc.t option) option;
      (** site [restart-discovery]: a connection whose peer restart
          cannot rediscover ([eof]: the stream had ended at checkpoint
          time); returning a descriptor resolves it *)
  restart_rearrange : (Simos.Kernel.t -> Ckpt_image.t -> Simos.Kernel.process -> unit) option;
      (** site [restart-rearrange]: a restored process with its fds
          installed, not yet resumed *)
}

(** {2 The table} *)

(** Every plugin, in table order: the built-ins ([ext-sock],
    [blacklist-ports], [proc-fd], [ext-shm], [mpi-proxy]) in program
    order, then those {!register} added. *)
val registered : unit -> t list

(** Append a plugin to the table, or replace the one of the same name
    in place.  Call it before {!Runtime.install}: an install resolves
    the records it enables once. *)
val register : t -> unit

(** The built-in names, in table order: the set the heuristic chaos
    scenarios and [trace --plugins] enable. *)
val all_names : string list

(** [resolve names] is the enabled list for [names]: the plugins of
    the table they name, in table order whatever the order of [names].
    Raises [Invalid_argument] naming the first unknown name and the
    registered ones. *)
val resolve : string list -> t list

(** The sites [p] hooks, in the order [stage], [drain-select],
    [fd-capture], [image-write], [restart-discovery],
    [restart-rearrange]. *)
val sites : t -> string list

(** {2 Dispatch} *)

(** A site's dispatcher: it takes the enabled list and the calling
    process's node, pid and virtual time, stamped on every span it
    emits, then the site's arguments. *)
type 'site dispatcher = t list -> node:int -> pid:int -> now:float -> 'site

val stage : ([ `Pre | `Post ] -> Faults.stage -> unit) dispatcher

(** [true] if any hook asked to skip the connection; every hook still
    runs, so a later plugin cannot undo a skip. *)
val drain_select : (Simnet.Fabric.socket -> bool) dispatcher

(** Each hook receives the classification the previous one returned. *)
val fd_capture :
  (Simos.Fdesc.t -> Ckpt_image.fd_info option -> Ckpt_image.fd_info option) dispatcher

val image_write : (Mtcp.Image.t -> unit) dispatcher

(** Folds from [None]: each hook receives the descriptor the previous
    one returned. *)
val restart_discovery : (Simos.Kernel.t -> eof:bool -> Simos.Fdesc.t option) dispatcher

val restart_rearrange :
  (Simos.Kernel.t -> Ckpt_image.t -> Simos.Kernel.process -> unit) dispatcher
