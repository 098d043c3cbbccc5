(* Stage-targeted fault-injection hooks for the checkpoint protocol.

   The manager announces entry into each checkpoint stage and arrival at
   each coordinator barrier through [notify].  The chaos layer installs
   an observer to kill victims at exact protocol points or to check
   stage invariants (e.g. "kernel buffers are empty when the image is
   written").  Observers must not tear the caller down synchronously —
   schedule destructive work at the current virtual time instead, so the
   in-progress manager step completes and the kernel's generation
   counters retire it cleanly. *)

type stage =
  | Suspend
  | Elect
  | Drain
  | Write
  | Refill
  | Resume
  | Barrier of int

let stage_name = function
  | Suspend -> "suspend"
  | Elect -> "elect"
  | Drain -> "drain"
  | Write -> "write"
  | Refill -> "refill"
  | Resume -> "resume"
  | Barrier k -> Printf.sprintf "barrier%d" k

(* The checkpoint protocol, written once: the stages in order, with
   coordinator barrier k between stage k and stage k+1. *)
let stages = [ Suspend; Elect; Drain; Write; Refill; Resume ]
let nbarriers = List.length stages - 1
let closed_by k = List.nth stages (k - 1)

let next stage =
  let rec barrier_after k = function
    | s :: _ when s = stage -> if k <= nbarriers then Some (Barrier k) else None
    | _ :: rest -> barrier_after (k + 1) rest
    | [] -> None
  in
  match stage with Barrier k -> List.nth_opt stages k | _ -> barrier_after 1 stages

(* Every kill point a victim can die at: the protocol stages plus each
   coordinator barrier. *)
let all_stages = stages @ List.init nbarriers (fun i -> Barrier (i + 1))

let default_observer ~node:_ ~pid:_ (_ : stage) = ()
let on_stage : (node:int -> pid:int -> stage -> unit) ref = ref default_observer
let notify ~node ~pid stage = !on_stage ~node ~pid stage

(* Intentionally injected protocol bugs, used to prove the chaos
   harness's invariants catch real regressions.  Never set outside
   chaos-harness self-tests. *)

(* Skip stage 4 entirely: no flush tokens, no drained stash. *)
let bug_skip_drain = ref false

(* Perform the drain but drop the stash at refill instead of
   re-injecting it. *)
let bug_drop_refill = ref false

let reset () =
  on_stage := default_observer;
  bug_skip_drain := false;
  bug_drop_refill := false
