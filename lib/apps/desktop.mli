(** The Figure-3 desktop catalog: the paper's 21 "common shell-like
    languages and other applications", plus the runCMS image (§5.1).

    Each application is modelled as a process (sometimes a small process
    *tree*, e.g. TightVNC+TWM or vim/cscope) with the real package's
    resident-size and content profile: an interpreter is text-heavy, a
    numerics environment is float-heavy, runCMS is 680 MB across 540
    library-like mappings.  Interactive ones own a pty with a prompt
    sitting in the output queue, so pty drain/refill is exercised by
    every Figure-3 run.

    Programs: ["apps:desktop"] (argv: [[profile-name]]) and
    ["apps:desktop-worker"] (helper threads of multithreaded apps). *)

type profile = {
  p_name : string;
  mb : float;
  mix : Workload_mem.mix;
  threads : int;           (** additional worker threads *)
  children : string list;  (** child profiles forked under this app *)
  pty : bool;
  regions : int;           (** mapped regions (libraries etc.) *)
}

(** The 21 applications of Figure 3, in the paper's (alphabetical)
    order. *)
val figure3 : profile list

(** §5.1's runCMS: 680 MB, 540 dynamic libraries. *)
val runcms : profile

val register : unit -> unit
val prog_name : string
