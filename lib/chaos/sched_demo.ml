(* The canned scheduler scenario: three jobs on an eight-node cluster,
   exercising all three checkpoint-driven policies in one run.

     t=0   job 0 "stream"  prio 1, 2 nodes  (server/client TCP pair)
           job 1 "long"    prio 1, 2 nodes  (two counters)
     t=2   job 2 "big"     prio 5, 6 nodes  -> preempts the youngest
           prio-1 job; the victim checkpoints to the store and requeues
     t=5   a node hosting a running job fail-stops (disk replicas
           dropped too) -> the job self-heals from its newest surviving
           checkpoint on fresh nodes
     t=8   a node hosting a running job is drained -> the job migrates
           by checkpoint + remap + restart

   [run ~faults:false] replays the same submissions without the node
   failure and the drain; [check] compares the faulted run against that
   reference: every job must finish with bit-identical output. *)

module Common = Harness.Common

type result = { d_env : Common.env; d_sched : Sched.Scheduler.t; d_unfinished : int }

let nodes = 8
let fail_at = 5.0
let drain_at = 8.0

(* a node of the first Running job, else of the first job holding nodes *)
let victim_node sched =
  match Fixture.last_node sched (( = ) Sched.Job.Running) with
  | Some node -> Some node
  | None -> Fixture.last_node sched Sched.Job.occupies_nodes

let run ?(faults = true) ?(ckpt_interval = 1.0) () =
  Progs.ensure_registered ();
  let env = Common.setup ~nodes ~cores_per_node:2 ~options:Fixture.store_options () in
  let sched = Sched.Scheduler.create ~ckpt_interval env.Common.cl env.Common.rt in
  let eng = Simos.Cluster.engine env.Common.cl in
  ignore
    (Sched.Scheduler.submit sched
       (Fixture.stream_spec ~name:"stream" ~priority:1 ~count:20000 ~port:6200));
  ignore
    (Sched.Scheduler.submit sched
       (Fixture.counter_spec ~name:"long" ~nodes:2 ~priority:1 ~target:8000));
  ignore
    (Sim.Engine.schedule_at eng ~time:2.0 (fun () ->
         ignore
           (Sched.Scheduler.submit sched
              (Fixture.counter_spec ~name:"big" ~nodes:6 ~priority:5 ~target:2000))));
  if faults then begin
    let victim () = victim_node sched in
    Fixture.at_node env ~time:fail_at (Sched.Scheduler.fail_node sched) victim;
    Fixture.at_node env ~time:drain_at (Sched.Scheduler.drain sched) victim
  end;
  let unfinished = Sched.Scheduler.run ~until:120. sched in
  { d_env = env; d_sched = sched; d_unfinished = unfinished }

(* Violations of the faulted run, judged against the no-fault reference. *)
let check ~reference f =
  Fixture.sched_reference
    ~reference:(reference.d_sched, reference.d_unfinished)
    (f.d_env, f.d_sched, f.d_unfinished)
  @ Fixture.policies_fired f.d_sched

let summary (r : result) =
  let s = r.d_sched in
  Sched.Scheduler.status_lines s
  @ [
      Fixture.sched_counts s;
      Printf.sprintf "makespan %.2fs  lost-work %.2fs" (Sched.Scheduler.makespan s)
        (Sched.Scheduler.total_lost_work s);
    ]
