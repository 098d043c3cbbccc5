(* Chaos scenario execution.

   A scenario runs twice: once on a pristine cluster to capture the
   expected output of every program (the reference run), then on a
   second cluster with the fault schedule applied.  The faulted run may
   checkpoint, be killed at protocol stages, crash nodes, partition
   links, and restart from the last complete checkpoint — and must still
   end with every output byte-identical to the reference, with no state
   leaked.  Everything is driven by virtual time, so a verdict is a pure
   function of (seed, kept fault indices). *)

module Common = Harness.Common

type result = {
  r_seed : int;
  r_desc : string;
  r_kept : int list option;  (* [Some l]: only fault indices in [l] ran *)
  r_ckpts : int;  (* completed checkpoint rounds observed *)
  r_recoveries : int;  (* kill + restart/relaunch cycles performed *)
  r_violations : string list;
  r_span_tail : string list;
      (* on failure: the last protocol trace events per node, oldest first *)
}

let pass r = r.r_violations = []

let sprintf = Printf.sprintf

(* pipeline forks one child; everything else is one process per launch *)
let procs_of_launch (_, prog, _) = if prog = "p:pipeline" then 2 else 1

let expected_procs sc =
  List.fold_left (fun acc l -> acc + procs_of_launch l) 0 sc.Scenario.sc_launches

let node_vfs env node = Simos.Kernel.vfs (Simos.Cluster.kernel env.Common.cl node)

let outputs_ready env outputs =
  List.for_all
    (fun (node, path) ->
      match Simos.Vfs.lookup (node_vfs env node) path with
      | Some f -> Simos.Vfs.length f > 0
      | None -> false)
    outputs

let read_output env (node, path) = Common.read_file env ~node path

let snapshot_outputs env outputs = List.map (fun o -> (o, read_output env o)) outputs

let restore_output env ((node, path), content) =
  let vfs = node_vfs env node in
  ignore (Simos.Vfs.unlink vfs path);
  match content with
  | None -> ()
  | Some c -> Simos.Vfs.append (Simos.Vfs.open_or_create vfs path) c

let unlink_output env (node, path) = ignore (Simos.Vfs.unlink (node_vfs env node) path)

(* Stagger launches so a stream server is listening before its client
   connects (the client fail-stops on a refused connect). *)
let launch_all env sc =
  List.iter
    (fun (node, prog, argv) ->
      ignore (Dmtcp.Api.launch env.Common.rt ~node ~prog ~argv);
      Common.run_for env 0.1)
    sc.Scenario.sc_launches

(* Best effort: wait (bounded) until every launched process is under
   checkpoint control, so the fault/checkpoint schedule starts from a
   settled computation.  Genuine launch failures surface later as a
   deadline violation. *)
let wait_settled env sc =
  let want = expected_procs sc in
  Common.run_until ~every:0.05 env ~timeout:2.0 (fun () ->
      List.length (Dmtcp.Runtime.hijacked_processes env.Common.rt) >= want)

let abbrev = function
  | None -> "<missing>"
  | Some s when String.length s <= 48 -> sprintf "%S" s
  | Some s -> sprintf "%S... (%d bytes)" (String.sub s 0 48) (String.length s)

(* ------------------------------------------------------------------ *)
(* Reference run *)

let reference_outputs sc =
  let env = Common.setup ~nodes:sc.Scenario.sc_nodes ~cores_per_node:2 () in
  launch_all env sc;
  Common.run_until env ~timeout:sc.Scenario.sc_deadline (fun () ->
      outputs_ready env sc.Scenario.sc_outputs);
  let ok = outputs_ready env sc.Scenario.sc_outputs in
  let contents = List.map (fun o -> read_output env o) sc.Scenario.sc_outputs in
  Common.teardown env;
  if ok then Ok contents
  else Error "reference (unfaulted) run did not complete within the deadline"

(* ------------------------------------------------------------------ *)
(* Faulted run *)

type st = {
  mutable armed : (int * Dmtcp.Faults.stage) list;  (* pending stage kills *)
  mutable kill_times : float list;  (* when a kill/crash actually fired *)
  mutable recovery : bool;  (* computation damaged; restart at next poll *)
  mutable saved : (Dmtcp.Restart_script.t * ((int * string) * string option) list) option;
  mutable resumed : ((int * string) * string option) list option;
      (* outputs at the first resume since the last write stage *)
  mutable last_ckpt_finished : float;
  mutable ckpts : int;
  mutable recoveries : int;
  mutable violations : string list;
  mutable handles : Sim.Engine.handle list;  (* cancellable schedule *)
}

exception Done of string list  (* early abort, with violations *)

let apply_fault st env fault =
  let cl = env.Common.cl in
  let eng = Simos.Cluster.engine cl in
  let fab = Simos.Cluster.fabric cl in
  let rt = env.Common.rt in
  let later delay f = st.handles <- Sim.Engine.schedule eng ~delay f :: st.handles in
  match fault with
  | Scenario.Kill_at_stage { victim; stage } -> st.armed <- st.armed @ [ (victim, stage) ]
  | Scenario.Crash_node { node } ->
    let coord_node = (Dmtcp.Runtime.options rt).Dmtcp.Options.coord_host in
    let doomed =
      node = coord_node
      || List.exists (fun (n, _, _) -> n = node) (Dmtcp.Runtime.hijacked_processes rt)
    in
    Simos.Cluster.crash_node cl node;
    if doomed then begin
      st.kill_times <- Simos.Cluster.now cl :: st.kill_times;
      st.recovery <- true
    end
  | Scenario.Partition { a; b; heal_after } ->
    if a <> b then begin
      Simnet.Fabric.set_link_up fab ~a ~b false;
      later heal_after (fun () -> Simnet.Fabric.set_link_up fab ~a ~b true)
    end
  | Scenario.Latency_spike { a; b; factor; duration } ->
    if a <> b then begin
      Simnet.Fabric.set_latency_factor fab ~a ~b factor;
      later duration (fun () -> Simnet.Fabric.set_latency_factor fab ~a ~b 1.)
    end
  | Scenario.Slow_disk { node; factor; duration } ->
    let target = Simos.Cluster.target cl node in
    Storage.Target.set_slowdown target factor;
    later duration (fun () -> Storage.Target.set_slowdown target 1.)
  | Scenario.Packet_loss { prob; duration } ->
    let rng = Util.Rng.create (Int64.of_int ((Simos.Cluster.nodes cl * 7919) + 13)) in
    Simnet.Fabric.set_drop fab ~prob rng;
    later duration (fun () -> Simnet.Fabric.set_drop fab ~prob:0. rng)

(* The stage observer: runs invariant checks at the write stage,
   snapshots the outputs at a round's first resume, and fires armed
   kills.  The victim is killed via a zero-delay event so the
   in-progress manager step retires cleanly. *)
let make_observer st env sc =
  let rt = env.Common.rt in
  fun ~node:_ ~pid:_ stage ->
    if stage = Dmtcp.Faults.Write then begin
      st.violations <- Invariant.drain_residue rt @ Invariant.conn_tables rt @ st.violations;
      st.resumed <- None
    end
    else if stage = Dmtcp.Faults.Resume && st.resumed = None then
      (* every user thread is still suspended: the files are exactly
         what the round's images will be restarted onto *)
      st.resumed <- Some (snapshot_outputs env sc.Scenario.sc_outputs);
    match st.armed with
    | (victim, astage) :: rest when astage = stage ->
      st.armed <- rest;
      let procs =
        List.sort compare
          (List.map (fun (n, p, _) -> (n, p)) (Dmtcp.Runtime.hijacked_processes rt))
      in
      if procs <> [] then begin
        let vn, vp = List.nth procs (victim mod List.length procs) in
        st.kill_times <- Simos.Cluster.now env.Common.cl :: st.kill_times;
        st.recovery <- true;
        st.handles <-
          Sim.Engine.schedule (Simos.Cluster.engine env.Common.cl) ~delay:0. (fun () ->
              match Dmtcp.Runtime.proc_of rt ~node:vn ~pid:vp with
              | Some p -> Simos.Kernel.kill_process (Dmtcp.Runtime.kernel_of rt ~node:vn) p
              | None -> ())
          :: st.handles
      end
    | _ -> ()

(* A checkpoint round is a usable restart point only if no kill fired
   while it was in flight: a victim dying mid-round can leave the
   completed round with a partial image set.  Its outputs are those of
   its first resume: by this poll, a kill just after the round may have
   let a surviving peer write more. *)
let capture_ckpt st env sc =
  match Dmtcp.Runtime.last_completed_ckpt env.Common.rt with
  | Some info when info.Dmtcp.Runtime.finished > st.last_ckpt_finished ->
    st.last_ckpt_finished <- info.Dmtcp.Runtime.finished;
    st.ckpts <- st.ckpts + 1;
    let tainted =
      List.exists
        (fun t ->
          t >= info.Dmtcp.Runtime.started -. 1e-9 && t <= info.Dmtcp.Runtime.finished +. 1e-9)
        st.kill_times
    in
    if not tainted then
      st.saved <-
        Some
          ( Dmtcp.Api.restart_script env.Common.rt,
            (* [None]: no manager has resumed yet, so nothing has moved *)
            match st.resumed with
            | Some snaps -> snaps
            | None -> snapshot_outputs env sc.Scenario.sc_outputs )
  | _ -> ()

let max_recoveries = 10

let recover st env sc =
  if st.recoveries >= max_recoveries then
    raise (Done (sprintf "unrecoverable: gave up after %d recoveries" max_recoveries :: st.violations));
  st.recoveries <- st.recoveries + 1;
  st.recovery <- false;
  Dmtcp.Api.kill_computation env.Common.rt;
  match st.saved with
  | Some (script, snaps) when Dmtcp.Api.script_images_available env.Common.rt script ->
    (* rewind the output files to their state at checkpoint capture so
       a restarted process re-executes its writes onto a clean slate *)
    List.iter (restore_output env) snaps;
    Dmtcp.Api.restart env.Common.rt script
  | Some _ | None ->
    (* no checkpoint yet, or its images are no longer producible (file
       unlinked by retention and store replicas lost): relaunch from
       scratch rather than spawn a restarter doomed to exit 1/73 *)
    List.iter (unlink_output env) sc.Scenario.sc_outputs;
    launch_all env sc

(* Coarse liveness signature: when it stops changing for several virtual
   seconds the computation is stuck (e.g. a node crashed mid-restart)
   and needs another recovery. *)
let progress_signature st env sc =
  ( List.sort compare
      (List.map (fun (n, p, _) -> (n, p)) (Dmtcp.Runtime.hijacked_processes env.Common.rt)),
    st.ckpts,
    st.recoveries,
    List.map (fun o -> read_output env o <> None) sc.Scenario.sc_outputs )

let stall_timeout = 6.0

let faulted_run sc reference =
  let env = Common.setup ~nodes:sc.Scenario.sc_nodes ~cores_per_node:2 () in
  let rt = env.Common.rt in
  let cl = env.Common.cl in
  let st =
    {
      armed = [];
      kill_times = [];
      recovery = false;
      saved = None;
      resumed = None;
      last_ckpt_finished = 0.;
      ckpts = 0;
      recoveries = 0;
      violations = [];
      handles = [];
    }
  in
  (* keep the tail of protocol events per node so a failure report can
     show where each node was in the checkpoint/restart conversation *)
  let ring = Trace.ring ~per_node:10 ~cat:"dmtcp" () in
  let violations =
    Dmtcp.Runtime.with_observer rt (make_observer st env sc) @@ fun () ->
    Trace.with_sink (Trace.ring_sink ring) @@ fun () ->
    try
      launch_all env sc;
      wait_settled env sc;
      let t0 = Simos.Cluster.now cl in
      let eng = Simos.Cluster.engine cl in
      List.iter
        (fun off ->
          st.handles <-
            Sim.Engine.schedule_at eng ~time:(t0 +. off) (fun () -> Dmtcp.Api.checkpoint rt)
            :: st.handles)
        sc.Scenario.sc_ckpts;
      List.iter
        (fun { Scenario.ev_at; ev_fault } ->
          st.handles <-
            Sim.Engine.schedule_at eng ~time:(t0 +. ev_at) (fun () -> apply_fault st env ev_fault)
            :: st.handles)
        sc.Scenario.sc_events;
      let deadline = t0 +. sc.Scenario.sc_deadline in
      let last_sig = ref (progress_signature st env sc) in
      let last_change = ref t0 in
      let rec loop () =
        Common.run_for env 0.05;
        capture_ckpt st env sc;
        if st.recovery then begin
          recover st env sc;
          last_change := Simos.Cluster.now cl;
          loop ()
        end
        else if outputs_ready env sc.Scenario.sc_outputs then ()
        else if Simos.Cluster.now cl > deadline then
          st.violations <-
            sprintf "timeout: outputs incomplete after %.0fs virtual (ckpts %d, recoveries %d)"
              sc.Scenario.sc_deadline st.ckpts st.recoveries
            :: st.violations
        else begin
          let s = progress_signature st env sc in
          if s <> !last_sig then begin
            last_sig := s;
            last_change := Simos.Cluster.now cl
          end
          else if Simos.Cluster.now cl -. !last_change > stall_timeout then begin
            st.recovery <- true;
            last_change := Simos.Cluster.now cl
          end;
          loop ()
        end
      in
      loop ();
      (* heal everything, cancel the remaining schedule, settle, then
         check the world is clean and the outputs match the reference *)
      List.iter Sim.Engine.cancel st.handles;
      Simnet.Fabric.clear_faults (Simos.Cluster.fabric cl);
      for i = 0 to Simos.Cluster.nodes cl - 1 do
        Storage.Target.set_slowdown (Simos.Cluster.target cl i) 1.
      done;
      Common.run_for env 1.0;
      let mismatches =
        List.map2
          (fun ((_, path) as o) expect ->
            let got = read_output env o in
            if got = expect then []
            else
              [
                sprintf "output %s differs from unfaulted run: expected %s, got %s" path
                  (abbrev expect) (abbrev got);
              ])
          sc.Scenario.sc_outputs reference
        |> List.concat
      in
      st.violations <- mismatches @ st.violations;
      if st.violations = [] then
        st.violations <- Invariant.conn_tables rt @ Invariant.quiescent env;
      st.violations
    with
    | Done v -> v
    | Failure msg -> sprintf "engine failure: %s" msg :: st.violations
  in
  List.iter Sim.Engine.cancel st.handles;
  (try Common.teardown env with _ -> ());
  let span_tail =
    if violations = [] then []
    else
      List.concat_map
        (fun (node, evs) ->
          sprintf "node %d:" node :: List.map (fun e -> "  " ^ Trace.describe_short e) evs)
        (Trace.ring_tails ring)
  in
  (st, List.sort_uniq compare violations, span_tail)

(* ------------------------------------------------------------------ *)

let run ?keep ~seed () =
  let sc0 = Scenario.sample ~seed in
  let sc = match keep with None -> sc0 | Some l -> Scenario.with_faults sc0 l in
  let desc = Scenario.describe sc in
  match reference_outputs sc with
  | Error msg ->
    {
      r_seed = seed;
      r_desc = desc;
      r_kept = keep;
      r_ckpts = 0;
      r_recoveries = 0;
      r_violations = [ msg ];
      r_span_tail = [];
    }
  | Ok reference ->
    let st, violations, span_tail = faulted_run sc reference in
    {
      r_seed = seed;
      r_desc = desc;
      r_kept = keep;
      r_ckpts = st.ckpts;
      r_recoveries = st.recoveries;
      r_violations = violations;
      r_span_tail = span_tail;
    }
