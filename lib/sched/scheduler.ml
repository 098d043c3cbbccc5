(* The policy engine.  Everything runs inside engine events: a periodic
   tick advances the per-job operation queues, detects completed or dead
   jobs, and places queued work.  No function here re-enters
   [Sim.Engine.run].

   Checkpoint/stop/restart operations used to serialize through a single
   in-flight slot; they now run through {!Opq}: ops on disjoint jobs and
   node sets proceed concurrently (each against its own per-job
   coordinator on [base_port + job id]), while conflicting ops — two ops
   on the same job, ops whose allocations share a node, a restart racing
   a drain of the same job — serialize in deterministic FIFO order. *)

let tick_period = 0.05
let op_timeout = 60.  (* bounds one checkpoint/stop/restart operation *)
let max_recoveries = 10  (* restarts + relaunches per job *)
let start_grace = 15.  (* a launch must show its full process set by then *)

type stop_reason = Preempt of int (* preemptor job id *) | Drain of int (* node *)

type op =
  | Op_ckpt of Job.t * stop_reason option
      (* checkpoint; with a reason, then stop and requeue, else keep running *)
  | Op_restart of Job.t * float  (* restart from saved image; requeued-at time *)

let op_job = function Op_ckpt (j, _) | Op_restart (j, _) -> j

let allocs_overlap a1 a2 = Array.exists (fun n -> Array.exists (fun m -> m = n) a2) a1

(* Two ops conflict when they cannot be in flight together: same job, or
   node-set overlap of the jobs' current allocations (evaluated at
   admission time, so a reallocation between enqueue and admit is seen). *)
let op_conflict o1 o2 =
  let j1 = op_job o1 and j2 = op_job o2 in
  j1.Job.id = j2.Job.id
  ||
  match (j1.Job.alloc, j2.Job.alloc) with
  | Some a1, Some a2 -> allocs_overlap a1 a2
  | _ -> false

type t = {
  cl : Simos.Cluster.t;
  rt : Dmtcp.Runtime.t;
  base_port : int;
  ckpt_interval : float option;
  mutable jobs : Job.t list;  (* ascending id; read through [jobs] *)
  mutable fresh : Job.t list;  (* submitted since the last read, newest first *)
  by_id : (int, Job.t) Hashtbl.t;
  mutable next_id : int;
  mutable draining : int list;
  ops : op Opq.t;
  occ : int array;  (* node -> occupying job id, -1 when free *)
  procs_by_node : int array;  (* refreshed each tick from the runtime *)
  timers : (int, Sim.Engine.handle) Hashtbl.t;
  mutable ticking : bool;
  mutable traced_inflight : int;
  mutable violations : string list;
  mutable n_preemptions : int;
  mutable n_node_failures : int;
  mutable n_drains : int;
  mutable n_restarts : int;
  mutable n_relaunches : int;
  mutable first_submit : float;
}

(* ------------------------------------------------------------------ *)
(* Metrics and tracing *)

let m_preempt = Trace.Metrics.counter "sched.preemptions"
let m_node_fail = Trace.Metrics.counter "sched.node_failures"
let m_drain = Trace.Metrics.counter "sched.drains"
let m_restart = Trace.Metrics.counter "sched.restarts"
let m_relaunch = Trace.Metrics.counter "sched.relaunches"
let m_completed = Trace.Metrics.counter "sched.completed"
let m_failed = Trace.Metrics.counter "sched.failed"
let m_lost_work = Trace.Metrics.counter "sched.lost_work_s"
let m_queue_wait = Trace.Metrics.histogram "sched.queue_wait_s"
let m_recovery = Trace.Metrics.histogram "sched.recovery_s"
let m_makespan = Trace.Metrics.gauge "sched.makespan_s"

let now t = Simos.Cluster.now t.cl
let eng t = Simos.Cluster.engine t.cl

let trace_i t name args =
  if Trace.on () then Trace.instant ~cat:"sched" ~name ~args ~time:(now t) ()

let trace_span t name ~dur args =
  if Trace.on () then Trace.span ~cat:"sched" ~name ~args ~time:(now t -. dur) ~dur ()

let trace_counter t name v =
  if Trace.on () then Trace.counter ~cat:"sched" ~name ~time:(now t) v

let trace_ops_inflight t =
  let n = Opq.inflight_count t.ops in
  if n <> t.traced_inflight then begin
    t.traced_inflight <- n;
    trace_counter t "sched/ops-inflight" (float_of_int n)
  end

(* ------------------------------------------------------------------ *)
(* Views *)

let job t id = Hashtbl.find t.by_id id

(* Every job, in ascending id order.  [submit] conses onto [fresh] and
   the next read folds it in, so n submissions in a row cost O(n). *)
let jobs t =
  (match t.fresh with
  | [] -> ()
  | fresh ->
    t.jobs <- t.jobs @ List.rev fresh;
    t.fresh <- []);
  t.jobs

let alloc_exn (j : Job.t) = match j.Job.alloc with Some a -> a | None -> failwith "job has no allocation"

let busy_count t = Array.fold_left (fun acc o -> if o >= 0 then acc + 1 else acc) 0 t.occ

let free_nodes t =
  Simos.Cluster.up_nodes t.cl
  |> List.filter (fun n -> t.occ.(n) < 0 && not (List.mem n t.draining))

let refresh_procs t =
  Array.fill t.procs_by_node 0 (Array.length t.procs_by_node) 0;
  List.iter
    (fun (node, _, _) ->
      if node >= 0 && node < Array.length t.procs_by_node then
        t.procs_by_node.(node) <- t.procs_by_node.(node) + 1)
    (Dmtcp.Runtime.hijacked_processes t.rt)

(* process count over the job's nodes, from the per-tick refresh (no two
   jobs share a node, so per-node counts are per-job counts) *)
let procs_on t (j : Job.t) =
  match j.Job.alloc with
  | None -> 0
  | Some a -> Array.fold_left (fun acc n -> acc + t.procs_by_node.(n)) 0 a

let job_port t (j : Job.t) = t.base_port + j.Job.id

let job_options t (j : Job.t) =
  let a = alloc_exn j in
  {
    (Dmtcp.Runtime.options t.rt) with
    Dmtcp.Options.coord_host = a.(0);
    coord_port = job_port t j;
    interval = None;  (* the scheduler, not the coordinator, drives periodic ckpts *)
    (* incremental + forked fast path: interval checkpoints ship only the
       frames dirtied since the previous round, and the blackout shrinks
       to the snapshot cost — so driving checkpoints often enough to keep
       sched/lost-work low no longer costs full-image writes *)
    incremental = true;
    forked = true;
  }

let vfs_of t node = Simos.Kernel.vfs (Simos.Cluster.kernel t.cl node)

let output_read t node path =
  match Simos.Vfs.lookup (vfs_of t node) path with
  | Some f ->
    let s = Simos.Vfs.read_all f in
    if s = "" then None else Some s
  | None -> None

let output_write t node path = function
  | Some bytes ->
    let f = Simos.Vfs.open_or_create (vfs_of t node) path in
    Simos.Vfs.truncate f;
    Simos.Vfs.append f bytes
  | None -> ignore (Simos.Vfs.unlink (vfs_of t node) path)

let outputs_ready t (j : Job.t) =
  match j.Job.alloc with
  | None -> false
  | Some a ->
    let outs = j.Job.spec.Job.sp_outputs a in
    outs = [] || List.for_all (fun (node, path) -> output_read t node path <> None) outs

let set_phase t (j : Job.t) phase =
  j.Job.phase <- phase;
  j.Job.phase_since <- now t

let violation t fmt =
  Printf.ksprintf
    (fun m ->
      if not (List.mem m t.violations) then t.violations <- t.violations @ [ m ])
    fmt

(* ------------------------------------------------------------------ *)
(* Per-job periodic checkpoint timers *)

let cancel_timer t id =
  match Hashtbl.find_opt t.timers id with
  | Some h ->
    Sim.Engine.cancel h;
    Hashtbl.remove t.timers id
  | None -> ()

let rec arm_timer t (j : Job.t) =
  match t.ckpt_interval with
  | None -> ()
  | Some iv ->
    cancel_timer t j.Job.id;
    let h =
      Sim.Engine.schedule (eng t) ~delay:iv (fun () ->
          Hashtbl.remove t.timers j.Job.id;
          if j.Job.phase = Job.Running && not (Opq.engaged t.ops j.Job.id) then
            Opq.enqueue t.ops (Op_ckpt (j, None));
          if not (Job.finished j.Job.phase) then arm_timer t j)
    in
    Hashtbl.replace t.timers j.Job.id h

(* ------------------------------------------------------------------ *)
(* Launch / stop / finish *)

let alloc_string a = String.concat "," (List.map string_of_int (Array.to_list a))

let assign_alloc t (j : Job.t) (a : int array) =
  Array.iter
    (fun n ->
      if t.occ.(n) >= 0 then violation t "job %d placed on busy node %d" j.Job.id n;
      if not (Simos.Cluster.node_up t.cl n) then
        violation t "job %d placed on down node %d" j.Job.id n;
      t.occ.(n) <- j.Job.id)
    a;
  j.Job.alloc <- Some a;
  if j.Job.placed_at < 0. then begin
    j.Job.placed_at <- now t;
    let wait = now t -. j.Job.submitted in
    Trace.Metrics.observe m_queue_wait wait;
    trace_span t "sched/queue-wait" ~dur:wait [ ("job", string_of_int j.Job.id) ]
  end;
  trace_i t "sched/place"
    [ ("job", string_of_int j.Job.id); ("alloc", alloc_string a) ];
  trace_counter t "sched/busy-nodes" (float_of_int (busy_count t))

let launch_job t (j : Job.t) (a : int array) =
  assign_alloc t j a;
  (* stale verdicts from a previous life must not satisfy the completion
     check: a relaunch recomputes everything *)
  List.iter (fun (node, path) -> output_write t node path None) (j.Job.spec.Job.sp_outputs a);
  let opts = job_options t j in
  List.iter
    (fun (node, prog, argv) -> ignore (Dmtcp.Api.launch ~options:opts t.rt ~node ~prog ~argv))
    (j.Job.spec.Job.sp_launch a);
  j.Job.run_started <- now t;
  set_phase t j Job.Starting

let release_nodes t (j : Job.t) =
  (match j.Job.alloc with
  | Some a -> Array.iter (fun n -> if t.occ.(n) = j.Job.id then t.occ.(n) <- -1) a
  | None -> ());
  j.Job.alloc <- None;
  trace_counter t "sched/busy-nodes" (float_of_int (busy_count t))

(* Stop a job's processes (and its coordinator) on its own nodes. *)
let kill_job_procs t (j : Job.t) =
  match j.Job.alloc with
  | None -> ()
  | Some a -> Dmtcp.Api.kill_nodes t.rt ~nodes:(Array.to_list a)

let unpin_job t (j : Job.t) =
  List.iter (fun (lineage, _) -> Dmtcp.Runtime.unpin_lineage t.rt ~lineage) j.Job.pins;
  j.Job.pins <- []

let account_lost_work t (j : Job.t) =
  let since =
    match j.Job.saved with
    | Some s -> s.Job.sv_time
    | None -> j.Job.run_started
  in
  let lost = Float.max 0. (now t -. since) in
  j.Job.lost_work <- j.Job.lost_work +. lost;
  Trace.Metrics.add m_lost_work lost;
  let total = List.fold_left (fun acc (j : Job.t) -> acc +. j.Job.lost_work) 0. (jobs t) in
  trace_counter t "sched/lost-work" total

let finish_job t (j : Job.t) =
  let a = alloc_exn j in
  j.Job.outputs <-
    List.filter_map
      (fun (node, path) ->
        Option.map (fun v -> (path, v)) (output_read t node path))
      (j.Job.spec.Job.sp_outputs a)
    |> List.sort compare;
  cancel_timer t j.Job.id;
  unpin_job t j;
  kill_job_procs t j;  (* reap the job's idle coordinator *)
  release_nodes t j;
  j.Job.done_at <- now t;
  set_phase t j Job.Done;
  Trace.Metrics.incr m_completed;
  let makespan = now t -. j.Job.submitted in
  trace_span t "sched/makespan" ~dur:makespan [ ("job", string_of_int j.Job.id) ];
  trace_i t "sched/job-done"
    [
      ("job", string_of_int j.Job.id);
      ("preemptions", string_of_int j.Job.preemptions);
      ("restarts", string_of_int j.Job.restarts);
    ]

let fail_job t (j : Job.t) msg =
  cancel_timer t j.Job.id;
  unpin_job t j;
  kill_job_procs t j;
  release_nodes t j;
  set_phase t j (Job.Failed msg);
  Trace.Metrics.incr m_failed;
  trace_i t "sched/job-failed" [ ("job", string_of_int j.Job.id); ("reason", msg) ]

let recoveries (j : Job.t) = j.Job.restarts + j.Job.relaunches

(* Stop now and go back to the queue; the next placement decides between
   restart-from-image and relaunch. *)
let requeue t (j : Job.t) =
  cancel_timer t j.Job.id;
  account_lost_work t j;
  kill_job_procs t j;
  release_nodes t j;
  if recoveries j >= max_recoveries then fail_job t j "too many recoveries"
  else set_phase t j Job.Requeued

(* ------------------------------------------------------------------ *)
(* Checkpoint capture: script + verdict-file snapshot + retention pins *)

let capture_ckpt t (j : Job.t) =
  let a = alloc_exn j in
  let opts = job_options t j in
  let script = Dmtcp.Api.restart_script ~options:opts t.rt in
  (* every image must come from the job's own nodes; anything else means
     the operation was garbled by cross-job interference *)
  let foreign =
    match Dmtcp.Runtime.last_completed_ckpt ~port:(job_port t j) t.rt with
    | Some info ->
      List.exists
        (fun (node, _) -> not (Array.exists (fun n -> n = node) a))
        info.Dmtcp.Runtime.images
    | None -> true
  in
  if foreign then violation t "job %d checkpoint recorded images off its allocation" j.Job.id;
  let slot_of node =
    let s = ref (-1) in
    Array.iteri (fun i n -> if n = node && !s < 0 then s := i) a;
    !s
  in
  let outputs =
    List.filter_map
      (fun (node, path) ->
        let slot = slot_of node in
        if slot < 0 then None else Some (slot, path, output_read t node path))
      (j.Job.spec.Job.sp_outputs a)
  in
  (* pin the new images: while this job is preempted/requeued, no GC may
     collect them, even if pid reuse hands its lineage to another job *)
  let pins =
    List.filter_map
      (fun (node, _, (ps : Dmtcp.Runtime.pstate)) ->
        if Array.exists (fun n -> n = node) a then
          Some (Dmtcp.Upid.lineage ps.Dmtcp.Runtime.upid, ps.Dmtcp.Runtime.upid.Dmtcp.Upid.generation)
        else None)
      (Dmtcp.Runtime.hijacked_processes t.rt)
    |> List.sort_uniq compare
  in
  List.iter (fun (lineage, generation) -> Dmtcp.Runtime.pin_lineage t.rt ~lineage ~generation) pins;
  j.Job.pins <- pins;
  j.Job.saved <- Some { Job.sv_script = script; sv_alloc = Array.copy a; sv_outputs = outputs; sv_time = now t };
  trace_i t "sched/ckpt-saved"
    [ ("job", string_of_int j.Job.id); ("images", string_of_int (List.length script.Dmtcp.Restart_script.entries)) ]

(* ------------------------------------------------------------------ *)
(* The per-job operation queues *)

(* the job's own coordinator domain finished a round at/after [since] *)
let ckpt_completed t (j : Job.t) since =
  match Dmtcp.Runtime.last_completed_ckpt ~port:(job_port t j) t.rt with
  | Some info ->
    Deadline.since_satisfied ~started:info.Dmtcp.Runtime.started ~since
    && info.Dmtcp.Runtime.finished > info.Dmtcp.Runtime.started
    && info.Dmtcp.Runtime.nprocs > 0
  | None -> false

let exec_restart t (j : Job.t) =
  let saved = match j.Job.saved with Some s -> s | None -> failwith "restart without image" in
  let a = alloc_exn j in
  (* positional remap: a host occupying several slots of the saved
     allocation spreads over the hosts at the same slots of the new one,
     instead of collapsing onto the new allocation's first match *)
  let script =
    Dmtcp.Restart_script.remap_positional saved.Job.sv_script ~old_alloc:saved.Job.sv_alloc
      ~new_alloc:a
  in
  (* verdict files roll back to their checkpoint-time bytes on the new
     nodes, so re-executed writes reproduce the reference run exactly *)
  List.iter
    (fun (slot, path, content) ->
      if slot >= 0 && slot < Array.length a then output_write t a.(slot) path content)
    saved.Job.sv_outputs;
  j.Job.restarts <- j.Job.restarts + 1;
  Trace.Metrics.incr m_restart;
  t.n_restarts <- t.n_restarts + 1;
  Dmtcp.Api.restart t.rt script

let trace_stop t (j : Job.t) = function
  | Preempt by ->
    trace_i t "sched/preempt" [ ("victim", string_of_int j.Job.id); ("by", string_of_int by) ]
  | Drain node ->
    trace_i t "sched/drain-job" [ ("job", string_of_int j.Job.id); ("node", string_of_int node) ]

(* Admission action: perform the op's side effects; false consumes the op
   as a no-op (the job's phase no longer wants it). *)
let start_op t op =
  match op with
  | Op_ckpt (j, stop) ->
    let phase = j.Job.phase in
    if phase = Job.Running || (stop <> None && phase = Job.Checkpointing) then begin
      Dmtcp.Api.checkpoint ~options:(job_options t j) t.rt;
      (match stop with
      | None ->
        set_phase t j Job.Checkpointing;
        trace_i t "sched/ckpt-start" [ ("job", string_of_int j.Job.id) ]
      | Some reason ->
        set_phase t j Job.Stopping;
        trace_stop t j reason);
      true
    end
    else begin
      (* a stop with nothing checkpointable yet: stop and relaunch later *)
      if stop <> None && phase = Job.Starting then requeue t j;
      false
    end
  | Op_restart (j, _) ->
    if j.Job.phase = Job.Restarting then begin
      exec_restart t j;
      true
    end
    else false

(* A stop arriving while the job's interval checkpoint is still in flight
   coalesces with it: the round already running IS the stop's checkpoint,
   so the in-flight entry takes the stop's reason instead of a second
   [Api.checkpoint] being issued (which used to double-checkpoint the
   victim). *)
let coalesce_stop t op =
  match op with
  | Op_ckpt (j, Some reason) -> (
    let running_ckpt (e : op Opq.entry) =
      (not e.Opq.e_aborted)
      && match e.Opq.e_op with Op_ckpt (j2, None) -> j2.Job.id = j.Job.id | _ -> false
    in
    match List.find_opt running_ckpt (Opq.inflight t.ops) with
    | Some e ->
      e.Opq.e_op <- op;  (* keep e_since: the round started then *)
      set_phase t j Job.Stopping;
      trace_stop t j reason;
      true
    | None -> false)
  | _ -> false

let finish_stop t (j : Job.t) reason since =
  (match reason with
  | Preempt _ ->
    j.Job.preemptions <- j.Job.preemptions + 1;
    t.n_preemptions <- t.n_preemptions + 1;
    Trace.Metrics.incr m_preempt;
    trace_span t "sched/preempt-latency" ~dur:(now t -. since)
      [ ("victim", string_of_int j.Job.id) ]
  | Drain _ -> ());
  requeue t j

let advance_entry t (e : op Opq.entry) =
  let since = e.Opq.e_since in
  let timeout = Deadline.op_timed_out ~now:(now t) ~since ~timeout:op_timeout in
  let finish () = Opq.remove t.ops e in
  match e.Opq.e_op with
  | Op_ckpt (j, stop) ->
    let busy = if stop = None then Job.Checkpointing else Job.Stopping in
    if e.Opq.e_aborted || Job.finished j.Job.phase then finish ()
    else if j.Job.phase = busy && procs_on t j = 0 then begin
      (* the job finished (or died) underneath the checkpoint *)
      finish ();
      if outputs_ready t j then finish_job t j else requeue t j
    end
    else if ckpt_completed t j since then begin
      capture_ckpt t j;
      finish ();
      match stop with
      | None -> set_phase t j Job.Running
      | Some reason -> finish_stop t j reason since
    end
    else if timeout then begin
      trace_i t "sched/op-timeout"
        [ ("op", if stop = None then "ckpt" else "stop"); ("job", string_of_int j.Job.id) ];
      finish ();
      match stop with
      | None -> if j.Job.phase = Job.Checkpointing then set_phase t j Job.Running
      | Some reason ->
        (* stop anyway: an older image (or a relaunch) has to do *)
        finish_stop t j reason since
    end
  | Op_restart (j, requeued_at) ->
    if e.Opq.e_aborted || Job.finished j.Job.phase then finish ()
    else begin
      let port = job_port t j in
      let info = Dmtcp.Runtime.restart_info ~port t.rt in
      let expected = Dmtcp.Runtime.restart_expected ~port t.rt in
      if
        Deadline.since_satisfied ~started:info.Dmtcp.Runtime.started ~since
        && expected > 0
        && info.Dmtcp.Runtime.nprocs >= expected
      then begin
        finish ();
        set_phase t j Job.Running;
        j.Job.run_started <- now t;
        arm_timer t j;
        let dur = now t -. requeued_at in
        Trace.Metrics.observe m_recovery dur;
        trace_span t "sched/restart-recovery" ~dur [ ("job", string_of_int j.Job.id) ]
      end
      else if timeout then begin
        trace_i t "sched/op-timeout" [ ("op", "restart"); ("job", string_of_int j.Job.id) ];
        finish ();
        requeue t j
      end
    end

(* ------------------------------------------------------------------ *)
(* Placement *)

let stop_requested t (j : Job.t) =
  Opq.exists t.ops (function Op_ckpt (j2, Some _) -> j2.Job.id = j.Job.id | _ -> false)

let place_pass t =
  let queued =
    List.filter_map
      (fun (j : Job.t) ->
        match j.Job.phase with
        | Job.Queued | Job.Requeued -> Some (j.Job.id, j.Job.spec.Job.sp_priority, j.Job.submitted)
        | _ -> None)
      (jobs t)
  in
  if queued <> [] then begin
    let order = Policy.queue_order queued in
    let free = ref (free_nodes t) in
    let nfree = ref (List.length !free) in
    (* victim candidates, once per pass: placements during the pass only
       add Starting jobs, which are never candidates, so the list stays
       valid for the whole scan.  A job whose interval checkpoint is in
       flight is preemptible too — its stop coalesces with the running
       round instead of waiting for it and checkpointing again *)
    let candidates =
      List.filter_map
        (fun (j2 : Job.t) ->
          if
            (j2.Job.phase = Job.Running || j2.Job.phase = Job.Checkpointing)
            && not (stop_requested t j2)
          then
            Some
              {
                Policy.cd_id = j2.Job.id;
                cd_priority = j2.Job.spec.Job.sp_priority;
                cd_nodes = Array.length (alloc_exn j2);
              }
          else None)
        (jobs t)
    in
    let stop_scan = ref false in
    List.iter
      (fun id ->
        if (not !stop_scan) && (!nfree > 0 || candidates <> []) then begin
          let j = job t id in
          let want = j.Job.spec.Job.sp_nodes in
          match (if want <= !nfree then Policy.place ~free:!free ~want else None) with
          | Some a ->
            free := List.filter (fun n -> not (Array.exists (fun m -> m = n) a)) !free;
            nfree := !nfree - Array.length a;
            (match j.Job.phase with
            | Job.Queued -> launch_job t j a
            | Job.Requeued -> (
              match j.Job.saved with
              | Some saved when Dmtcp.Api.script_images_available t.rt saved.Job.sv_script ->
                (* reserve the nodes now; the op queue does the actual
                   restart once nothing conflicting is in flight *)
                assign_alloc t j a;
                let requeued_at = j.Job.phase_since in
                set_phase t j Job.Restarting;
                Opq.enqueue t.ops (Op_restart (j, requeued_at))
              | _ ->
                (* no usable image: start over from scratch *)
                j.Job.saved <- None;
                j.Job.relaunches <- j.Job.relaunches + 1;
                t.n_relaunches <- t.n_relaunches + 1;
                Trace.Metrics.incr m_relaunch;
                launch_job t j a)
            | _ -> ())
          | None ->
            (* not enough free nodes: preempt strictly-lower-priority work *)
            let need = want - !nfree in
            (match Policy.victims ~running:candidates ~need ~priority:j.Job.spec.Job.sp_priority with
            | Some ids when ids <> [] ->
              List.iter
                (fun vid -> Opq.enqueue t.ops (Op_ckpt (job t vid, Some (Preempt j.Job.id))))
                ids;
              (* hold the remaining free nodes for this arrival: do not
                 backfill lower-priority work onto them this pass *)
              stop_scan := true
            | _ -> ())
        end)
      order
  end

(* ------------------------------------------------------------------ *)
(* Job health scan *)

let scan_jobs t =
  List.iter
    (fun (j : Job.t) ->
      if not (Opq.engaged t.ops j.Job.id) then
        match j.Job.phase with
        | Job.Starting ->
          if procs_on t j >= j.Job.spec.Job.sp_procs then begin
            set_phase t j Job.Running;
            arm_timer t j
          end
          else if
            Deadline.op_timed_out ~now:(now t) ~since:j.Job.phase_since ~timeout:start_grace
          then requeue t j
        | Job.Running ->
          if procs_on t j = 0 then
            if outputs_ready t j then finish_job t j else requeue t j
        | _ -> ())
    (jobs t)

(* ------------------------------------------------------------------ *)
(* The tick *)

let all_done t =
  match jobs t with
  | [] -> false
  | js -> List.for_all (fun (j : Job.t) -> Job.finished j.Job.phase) js

let rec tick t =
  refresh_procs t;
  (* advance over a snapshot: an entry may remove itself (and its side
     effects may abort others), so re-check membership before advancing *)
  List.iter
    (fun e -> if List.memq e (Opq.inflight t.ops) then advance_entry t e)
    (Opq.inflight t.ops);
  Opq.admit t.ops ~now:(now t) ~coalesce:(coalesce_stop t) ~start:(start_op t) ();
  trace_ops_inflight t;
  scan_jobs t;
  place_pass t;
  if all_done t && Opq.is_idle t.ops then t.ticking <- false
  else ignore (Sim.Engine.schedule (eng t) ~delay:tick_period (fun () -> tick t))

let ensure_ticking t =
  if not t.ticking then begin
    t.ticking <- true;
    ignore (Sim.Engine.schedule (eng t) ~delay:0. (fun () -> tick t))
  end

(* ------------------------------------------------------------------ *)
(* Public API *)

let create ?(base_port = 7800) ?ckpt_interval ?(max_inflight = 0) cl rt =
  {
    cl;
    rt;
    base_port;
    ckpt_interval;
    jobs = [];
    fresh = [];
    by_id = Hashtbl.create 64;
    next_id = 0;
    draining = [];
    ops = Opq.create ~max_inflight ~conflict:op_conflict ~key:(fun op -> (op_job op).Job.id) ();
    occ = Array.make (Simos.Cluster.nodes cl) (-1);
    procs_by_node = Array.make (Simos.Cluster.nodes cl) 0;
    timers = Hashtbl.create 64;
    ticking = false;
    traced_inflight = 0;
    violations = [];
    n_preemptions = 0;
    n_node_failures = 0;
    n_drains = 0;
    n_restarts = 0;
    n_relaunches = 0;
    first_submit = -1.;
  }

let submit t spec =
  let j = Job.make ~id:t.next_id ~spec ~now:(now t) in
  t.next_id <- t.next_id + 1;
  t.fresh <- j :: t.fresh;
  Hashtbl.replace t.by_id j.Job.id j;
  if t.first_submit < 0. then t.first_submit <- now t;
  trace_i t "sched/submit"
    [
      ("job", string_of_int j.Job.id);
      ("name", spec.Job.sp_name);
      ("nodes", string_of_int spec.Job.sp_nodes);
      ("priority", string_of_int spec.Job.sp_priority);
    ];
  ensure_ticking t;
  j

let abort_ops_for t (j : Job.t) =
  Opq.abort_inflight t.ops (fun op -> (op_job op).Job.id = j.Job.id);
  Opq.drop_pending t.ops (fun op -> (op_job op).Job.id = j.Job.id)

let jobs_touching t node =
  List.filter
    (fun (j : Job.t) ->
      Job.occupies_nodes j.Job.phase
      && match j.Job.alloc with Some a -> Array.exists (fun n -> n = node) a | None -> false)
    (jobs t)

let drain t node =
  if not (List.mem node t.draining) then begin
    t.draining <- node :: t.draining;
    t.n_drains <- t.n_drains + 1;
    Trace.Metrics.incr m_drain;
    trace_i t "sched/drain" [ ("node", string_of_int node) ];
    List.iter
      (fun (j : Job.t) ->
        if not (stop_requested t j) then
          match j.Job.phase with
          | Job.Starting -> requeue t j
          | _ -> Opq.enqueue t.ops (Op_ckpt (j, Some (Drain node))))
      (jobs_touching t node);
    ensure_ticking t
  end

let fail_node t node =
  t.n_node_failures <- t.n_node_failures + 1;
  Trace.Metrics.incr m_node_fail;
  trace_i t "sched/node-fail" [ ("node", string_of_int node) ];
  let victims = jobs_touching t node in
  Simos.Cluster.fail_node t.cl node;
  (match Dmtcp.Runtime.store t.rt with
  | Some s -> Store.drop_node s node
  | None -> ());
  List.iter
    (fun (j : Job.t) ->
      abort_ops_for t j;
      (* survivors on the job's other nodes are incoherent without their
         peers: stop the whole job and resurrect it from the newest
         surviving checkpoint *)
      requeue t j)
    victims;
  ensure_ticking t

let run ?(until = 3600.) t =
  ensure_ticking t;
  Sim.Engine.run ~until (Simos.Cluster.engine t.cl);
  List.length (List.filter (fun (j : Job.t) -> not (Job.finished j.Job.phase)) (jobs t))

let violations t = t.violations
let preemptions t = t.n_preemptions
let node_failures t = t.n_node_failures
let drains t = t.n_drains
let restarts t = t.n_restarts
let relaunches t = t.n_relaunches
let peak_ops_inflight t = Opq.peak t.ops

let makespan t =
  let last =
    List.fold_left (fun acc (j : Job.t) -> Float.max acc j.Job.done_at) (-1.) (jobs t)
  in
  if last < 0. || t.first_submit < 0. then 0.
  else begin
    let m = last -. t.first_submit in
    Trace.Metrics.set m_makespan m;
    m
  end

let total_lost_work t =
  List.fold_left (fun acc (j : Job.t) -> acc +. j.Job.lost_work) 0. (jobs t)

let status_lines t =
  List.map
    (fun (j : Job.t) ->
      Printf.sprintf "job %d %-12s prio %d nodes %d  %-12s alloc [%s]  pre %d rst %d rel %d lost %.2fs"
        j.Job.id j.Job.spec.Job.sp_name j.Job.spec.Job.sp_priority j.Job.spec.Job.sp_nodes
        (Job.phase_name j.Job.phase)
        (match j.Job.alloc with Some a -> alloc_string a | None -> "-")
        j.Job.preemptions j.Job.restarts j.Job.relaunches j.Job.lost_work)
    (jobs t)
