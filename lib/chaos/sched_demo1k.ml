(* The scale scenario: a thousand small jobs on a 64-node cluster,
   pushed through all three checkpoint-driven policies at once.

     t=0   1000 single-node counter jobs, prio 1 — far more work than
           nodes, so the queue stays deep for the whole run
     t=2   a batch of prio-5 jobs arrives -> preempts running prio-1
           work; the victims checkpoint to the store and requeue
     t=4   a node hosting running jobs fail-stops (store replicas
           dropped too) -> its jobs self-heal from their newest
           surviving checkpoints
     t=6   a node is drained -> its jobs migrate by checkpoint +
           remap + restart

   With every job on its own coordinator domain, the interval
   checkpoints of the ~40 concurrently running jobs all go through the
   op queues at once — this is the scenario behind the
   [sched.ops-inflight] and [sched.makespan-1000job] bench records
   ([~max_inflight:1] reproduces the old serialized scheduler as the
   baseline).

   [run ~faults:false] replays the same submissions (including the
   preemptor batch) without the node failure and the drain; [check]
   compares the faulted run against that reference: every job must
   finish with bit-identical output. *)

module Common = Harness.Common

let sprintf = Printf.sprintf

type result = { k_env : Common.env; k_sched : Sched.Scheduler.t; k_unfinished : int }

let default_jobs = 1000
let default_nodes = 64
let preempt_at = 2.0
let fail_at = 4.0
let drain_at = 6.0

let run ?(jobs = default_jobs) ?(nodes = default_nodes) ?(faults = true) ?(max_inflight = 0)
    ?(ckpt_interval = 0.25) () =
  Progs.ensure_registered ();
  let env = Common.setup ~nodes ~cores_per_node:2 ~options:Fixture.store_options () in
  let sched =
    Sched.Scheduler.create ~ckpt_interval ~max_inflight env.Common.cl env.Common.rt
  in
  let eng = Simos.Cluster.engine env.Common.cl in
  for i = 0 to jobs - 1 do
    (* staggered durations (0.6–0.96 s) so finishes spread over the run
       instead of freeing whole cohorts at once *)
    let target = 600 + (10 * (i mod 37)) in
    ignore
      (Sched.Scheduler.submit sched
         (Fixture.counter_spec ~name:(sprintf "j%04d" i) ~nodes:1 ~priority:1 ~target))
  done;
  (* the preemptor batch is part of the workload, so it runs in the
     no-fault reference too; each wants a quarter of the cluster, far
     more than the staggered finishes free in any tick, so victims
     must be preempted *)
  let pre_nodes = max 2 (nodes / 8) in
  ignore
    (Sim.Engine.schedule_at eng ~time:preempt_at (fun () ->
         for i = 0 to 3 do
           ignore
             (Sched.Scheduler.submit sched
                (Fixture.counter_spec ~name:(sprintf "pre%d" i) ~nodes:pre_nodes ~priority:5
                   ~target:800))
         done));
  if faults then begin
    (* a node of the first Running job (by job id) *)
    let victim () = Fixture.last_node sched (( = ) Sched.Job.Running) in
    Fixture.at_node env ~time:fail_at (Sched.Scheduler.fail_node sched) victim;
    Fixture.at_node env ~time:drain_at (Sched.Scheduler.drain sched) victim
  end;
  let unfinished = Sched.Scheduler.run ~until:3600. sched in
  { k_env = env; k_sched = sched; k_unfinished = unfinished }

(* Violations of the faulted run, judged against the no-fault reference. *)
let check ~reference f =
  Fixture.sched_reference
    ~reference:(reference.k_sched, reference.k_unfinished)
    (f.k_env, f.k_sched, f.k_unfinished)
  @ Fixture.policies_fired f.k_sched

let summary (r : result) =
  let s = r.k_sched in
  let done_, failed =
    List.fold_left
      (fun (d, f) (j : Sched.Job.t) ->
        match j.Sched.Job.phase with
        | Sched.Job.Done -> (d + 1, f)
        | Sched.Job.Failed _ -> (d, f + 1)
        | _ -> (d, f))
      (0, 0) (Sched.Scheduler.jobs s)
  in
  [
    sprintf "jobs %d  done %d  failed %d  unfinished %d"
      (List.length (Sched.Scheduler.jobs s))
      done_ failed r.k_unfinished;
    Fixture.sched_counts s;
    sprintf "makespan %.2fs  lost-work %.2fs  peak-ops-inflight %d"
      (Sched.Scheduler.makespan s) (Sched.Scheduler.total_lost_work s)
      (Sched.Scheduler.peak_ops_inflight s);
  ]
