(* Both protocols' stage orders and the stage-targeted fault-injection
   hooks.

   The manager announces entry into each checkpoint stage and arrival at
   each coordinator barrier through [notify]; the restarter announces
   entry into each restart stage the same way.  The chaos layer installs
   an observer to kill victims at exact protocol points or to check
   stage invariants (e.g. "kernel buffers are empty when the image is
   written").  Observers must not tear the caller down synchronously —
   schedule destructive work at the current virtual time instead, so the
   in-progress step completes and the kernel's generation counters
   retire it cleanly. *)

type stage =
  | Suspend
  | Elect
  | Drain
  | Write
  | Refill
  | Resume
  | Barrier of int
  | Files
  | Reconnect
  | Mem
  | Restart of stage

let rec stage_name = function
  | Suspend -> "suspend"
  | Elect -> "elect"
  | Drain -> "drain"
  | Write -> "write"
  | Refill -> "refill"
  | Resume -> "resume"
  | Barrier k -> Printf.sprintf "barrier%d" k
  | Files -> "files"
  | Reconnect -> "reconnect"
  | Mem -> "mem"
  | Restart s -> "restart/" ^ stage_name s

let span_name = function Restart _ as s -> stage_name s | s -> "ckpt/" ^ stage_name s

(* The one span rule of both protocols: a stage's span runs from the end
   of the previous stage to its own end, at the node and pid of the
   process that ran it.  Its start is computed as [until - dur], which
   keeps the printed starts of the traces pinned in bin/ci_digests.md5. *)
let span ~node ~pid name ~since ~until =
  if Trace.on () then
    let dur = until -. since in
    Trace.span ~node ~pid ~cat:"dmtcp" ~name ~time:(until -. dur) ~dur ()

(* The checkpoint protocol, written once: the stages in order, with
   coordinator barrier k between stage k and stage k+1. *)
let stages = [ Suspend; Elect; Drain; Write; Refill; Resume ]
let nbarriers = List.length stages - 1
let closed_by k = List.nth stages (k - 1)

(* The restart protocol (§4.4's seven steps, with fork and fd
   rearrangement run inside mem); no coordinator barriers. *)
let restart_stages = List.map (fun s -> Restart s) [ Files; Reconnect; Mem; Refill; Resume ]

let next stage =
  let rec barrier_after k = function
    | s :: _ when s = stage -> if k <= nbarriers then Some (Barrier k) else None
    | _ :: rest -> barrier_after (k + 1) rest
    | [] -> None
  in
  match stage with
  | Barrier k -> List.nth_opt stages k
  | Restart _ ->
    Option.bind (List.find_index (( = ) stage) restart_stages) (fun i ->
        List.nth_opt restart_stages (i + 1))
  | _ -> barrier_after 1 stages

(* Every checkpoint kill point a victim can die at: the protocol stages
   plus each coordinator barrier. *)
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
