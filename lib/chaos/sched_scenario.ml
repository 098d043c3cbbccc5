(* Canned scheduler runs, the paper's transparency claim restated for a
   batch cluster: a job displaced by preemption, node loss or a drain
   must still finish with exactly the output of an undisturbed run.
   [play] runs a [plan] with or without its faults, and [judge] holds
   the faulted run to its no-fault reference.  The plans are the
   three-job [demo], the 1000-job [demo1k] and one per scheduler chaos
   seed ([sample], drawn outside [Scenario.sample] so the torture
   corpus keeps its RNG draw order). *)

module Common = Harness.Common

let sprintf = Printf.sprintf
let unless = Fixture.unless

(* where a fail or a drain lands: a fixed node, skipped if it is already
   down, or the last node of the first Running job, else of the first
   job holding nodes *)
type victim = Node of int | Job_node

type plan = {
  nodes : int;
  ckpt_interval : float;
  max_inflight : int;  (* op cap; 0 = unbounded *)
  until : float;  (* virtual-time horizon *)
  submissions : (float * Sched.Job.spec list) list;  (* submitted in list order *)
  fail : (float * victim) option;  (* node fail-stop, store replicas dropped too *)
  drain : (float * victim) option;  (* operator drain: migrate by checkpoint + restart *)
  demands : Sched.Scheduler.t -> string list;  (* violations beyond the reference judge *)
}

type result = { env : Common.env; sched : Sched.Scheduler.t; unfinished : int }

(* ------------------------------------------------------------------ *)
(* Job shapes *)

let counter_spec ~name ~nodes ~priority ~target =
  let out i = sprintf "/data/%s_%d" name i in
  {
    Sched.Job.sp_name = name;
    sp_nodes = nodes;
    sp_priority = priority;
    sp_est_runtime = float_of_int target *. 1e-3;
    sp_procs = nodes;
    sp_launch =
      (fun a -> List.init nodes (fun i -> (a.(i), "p:counter", [ string_of_int target; out i ])));
    sp_outputs = (fun a -> List.init nodes (fun i -> (a.(i), out i)));
  }

(* a server/client TCP pair streaming [count] records *)
let stream_spec ~name ~priority ~count ~port =
  let out = sprintf "/data/%s" name in
  {
    Sched.Job.sp_name = name;
    sp_nodes = 2;
    sp_priority = priority;
    sp_est_runtime = float_of_int count *. 2e-4;
    sp_procs = 2;
    sp_launch =
      (fun a ->
        [
          (a.(0), "p:stream-server", [ string_of_int port; string_of_int count; out ]);
          (a.(1), "p:stream-client", [ string_of_int a.(0); string_of_int port; string_of_int count ]);
        ]);
    sp_outputs = (fun a -> [ (a.(0), out) ]);
  }

(* one 4 MB memhog process running [iters] iterations *)
let memhog_spec ~name ~priority ~iters ~out =
  {
    Sched.Job.sp_name = name;
    sp_nodes = 1;
    sp_priority = priority;
    sp_est_runtime = float_of_int iters *. 5e-3;
    sp_procs = 1;
    sp_launch = (fun a -> [ (a.(0), "p:memhog", [ "4"; string_of_int iters; out ]) ]);
    sp_outputs = (fun a -> [ (a.(0), out) ]);
  }

(* ------------------------------------------------------------------ *)
(* Play *)

(* the last allocated node of the first job whose phase satisfies [ok] *)
let last_node sched ok =
  List.find_map
    (fun (j : Sched.Job.t) ->
      match j.Sched.Job.alloc with
      | Some a when ok j.Sched.Job.phase -> Some a.(Array.length a - 1)
      | _ -> None)
    (Sched.Scheduler.jobs sched)

let victim_node env sched = function
  | Node n -> if Simos.Cluster.node_up env.Common.cl n then Some n else None
  | Job_node -> (
    match last_node sched (( = ) Sched.Job.Running) with
    | Some n -> Some n
    | None -> last_node sched Sched.Job.occupies_nodes)

(* Engine ties break by insertion order, so the order of the calls below
   is part of every plan's outcome. *)
let play ~faults p =
  let env = Common.setup ~nodes:p.nodes ~cores_per_node:2 ~options:Fixture.store_options () in
  let sched =
    Sched.Scheduler.create ~ckpt_interval:p.ckpt_interval ~max_inflight:p.max_inflight
      env.Common.cl env.Common.rt
  in
  let at time f = ignore (Sim.Engine.schedule_at (Simos.Cluster.engine env.Common.cl) ~time f) in
  List.iter
    (fun (time, specs) ->
      let submit () = List.iter (fun s -> ignore (Sched.Scheduler.submit sched s)) specs in
      if time <= 0. then submit () else at time submit)
    p.submissions;
  if faults then begin
    let inject act =
      Option.iter (fun (time, v) -> at time (fun () -> Option.iter act (victim_node env sched v)))
    in
    inject (Sched.Scheduler.fail_node sched) p.fail;
    inject (Sched.Scheduler.drain sched) p.drain
  end;
  { env; sched; unfinished = Sched.Scheduler.run ~until:p.until sched }

(* ------------------------------------------------------------------ *)
(* Judge *)

let job_outputs sched =
  List.map
    (fun (j : Sched.Job.t) -> (j.Sched.Job.id, j.Sched.Job.outputs))
    (Sched.Scheduler.jobs sched)

(* Violations of a faulted run, judged against its no-fault reference:
   every job finished with the reference's exact verdict bytes, the
   scheduler's invariants held, the store still backs its catalog, the
   cluster is quiescent, and the plan's own demands hold. *)
let judge p ~reference r =
  let pp outs = String.concat ";" (List.map (fun (path, v) -> path ^ "=" ^ v) outs) in
  let want = job_outputs reference.sched in
  unless (reference.unfinished = 0)
    (sprintf "reference run left %d job(s) unfinished" reference.unfinished)
  @ (if r.unfinished = 0 then []
     else
       sprintf "faulted run left %d job(s) unfinished" r.unfinished
       :: List.map (( ^ ) "  ") (Sched.Scheduler.status_lines r.sched))
  @ List.concat_map
      (fun (j : Sched.Job.t) ->
        match j.Sched.Job.phase with
        | Sched.Job.Done -> []
        | ph ->
          [
            sprintf "job %d (%s) ended %s" j.Sched.Job.id j.Sched.Job.spec.Sched.Job.sp_name
              (Sched.Job.phase_name ph);
          ])
      (Sched.Scheduler.jobs r.sched)
  @ List.map (sprintf "sched invariant: %s") (Sched.Scheduler.violations r.sched)
  @ List.concat_map
      (fun (id, outs) ->
        match List.assoc_opt id want with
        | Some w ->
          unless (w = outs)
            (sprintf "job %d output diverged from no-fault reference (%s vs %s)" id (pp w) (pp outs))
        | None -> [ sprintf "job %d absent from the reference run" id ])
      (job_outputs r.sched)
  @ Invariant.store_replication r.env.Common.rt
  @ Invariant.quiescent r.env
  @ p.demands r.sched

(* the demos inject all three policies: each must have fired *)
let policies_fired sched =
  unless (Sched.Scheduler.preemptions sched >= 1) "no preemption happened"
  @ unless (Sched.Scheduler.node_failures sched >= 1) "node failure was never injected"
  @ unless (Sched.Scheduler.drains sched >= 1) "drain was never injected"
  @ unless (Sched.Scheduler.restarts sched >= 1) "no job ever restarted from a checkpoint image"

(* the policy counts, then what the faults cost *)
let counts s =
  sprintf "preemptions %d  node-failures %d  drains %d  restarts %d  relaunches %d"
    (Sched.Scheduler.preemptions s) (Sched.Scheduler.node_failures s) (Sched.Scheduler.drains s)
    (Sched.Scheduler.restarts s) (Sched.Scheduler.relaunches s)

let cost s =
  sprintf "makespan %.2fs  lost-work %.2fs" (Sched.Scheduler.makespan s)
    (Sched.Scheduler.total_lost_work s)

let summary r = Sched.Scheduler.status_lines r.sched @ [ counts r.sched; cost r.sched ]

(* a run too large for a job table: outcome counts instead *)
let census r =
  let jobs = Sched.Scheduler.jobs r.sched in
  let count ok = List.length (List.filter (fun (j : Sched.Job.t) -> ok j.Sched.Job.phase) jobs) in
  [
    sprintf "jobs %d  done %d  failed %d  unfinished %d" (List.length jobs)
      (count (( = ) Sched.Job.Done))
      (count (function Sched.Job.Failed _ -> true | _ -> false))
      r.unfinished;
    counts r.sched;
    cost r.sched ^ sprintf "  peak-ops-inflight %d" (Sched.Scheduler.peak_ops_inflight r.sched);
  ]

(* ------------------------------------------------------------------ *)
(* Plans *)

(* Three jobs on an eight-node cluster, exercising all three
   checkpoint-driven policies in one run.

     t=0   job 0 "stream"  prio 1, 2 nodes  (server/client TCP pair)
           job 1 "long"    prio 1, 2 nodes  (two counters)
     t=2   job 2 "big"     prio 5, 6 nodes  -> preempts the youngest
           prio-1 job; the victim checkpoints to the store and requeues
     t=5   a node hosting a running job fail-stops -> the job self-heals
           from its newest surviving checkpoint on fresh nodes
     t=8   a node hosting a running job is drained -> the job migrates
           by checkpoint + remap + restart *)
let demo =
  {
    nodes = 8;
    ckpt_interval = 1.0;
    max_inflight = 0;
    until = 120.;
    submissions =
      [
        ( 0.,
          [
            stream_spec ~name:"stream" ~priority:1 ~count:20000 ~port:6200;
            counter_spec ~name:"long" ~nodes:2 ~priority:1 ~target:8000;
          ] );
        (2.0, [ counter_spec ~name:"big" ~nodes:6 ~priority:5 ~target:2000 ]);
      ];
    fail = Some (5.0, Job_node);
    drain = Some (8.0, Job_node);
    demands = policies_fired;
  }

(* The scale scenario: [jobs] small jobs on a [nodes]-node cluster, all
   three policies at once.

     t=0   single-node counter jobs, prio 1: far more work than nodes,
           so the queue stays deep for the whole run
     t=2   four prio-5 jobs arrive -> preempt running prio-1 work
     t=4   a node hosting a running job fail-stops
     t=6   a node hosting a running job is drained

   With every job on its own coordinator domain, the interval
   checkpoints of the ~40 concurrently running jobs go through the op
   queues at once, so the run must overlap at least eight ops; this is
   the scenario behind the [sched.ops-inflight] and
   [sched.makespan-1000job] bench records ([~max_inflight:1] reproduces
   the old serialized scheduler as the baseline). *)
let demo1k ?(jobs = 1000) ?(nodes = 64) ?(max_inflight = 0) () =
  {
    nodes;
    ckpt_interval = 0.25;
    max_inflight;
    until = 3600.;
    submissions =
      [
        ( 0.,
          (* staggered durations (0.6–0.96 s) so finishes spread over the
             run instead of freeing whole cohorts at once *)
          List.init jobs (fun i ->
              counter_spec ~name:(sprintf "j%04d" i) ~nodes:1 ~priority:1
                ~target:(600 + (10 * (i mod 37)))) );
        (* the preemptors are part of the workload, so they run in the
           no-fault reference too; each wants an eighth of the cluster,
           far more than the staggered finishes free in any tick, so
           victims must be preempted *)
        ( 2.0,
          List.init 4 (fun i ->
              counter_spec ~name:(sprintf "pre%d" i) ~nodes:(max 2 (nodes / 8)) ~priority:5
                ~target:800) );
      ];
    fail = Some (4.0, Job_node);
    drain = Some (6.0, Job_node);
    demands =
      (fun s ->
        let peak = Sched.Scheduler.peak_ops_inflight s in
        policies_fired s
        @ unless (peak >= 8) (sprintf "only %d op(s) ever ran concurrently (want >= 8)" peak));
  }

(* One seed draws a mix of three to five jobs with their submit times,
   a node fail-stop (odds 8 in 10), a drain (odds 5 in 10) and the
   checkpoint interval, in that order; returns the plan and its
   description. *)
let sample ~seed =
  let rng = Util.Rng.create (Int64.add 0x5C4ED_FA17L (Int64.of_int seed)) in
  let nodes = 8 in
  let njobs = 3 + Util.Rng.int rng 3 in
  let jobs =
    List.init njobs (fun idx ->
        let kind = Util.Rng.int rng 3 in
        let size =
          match kind with
          | 0 -> Util.Rng.int_in rng 1500 4000  (* counter: compute steps *)
          | 1 -> Util.Rng.int_in rng 200 600  (* memhog: iterations *)
          | _ -> Util.Rng.int_in rng 2000 6000  (* stream: records *)
        in
        let priority = Util.Rng.int rng 6 in
        let submit = Util.Rng.float rng 3.0 in
        let name = sprintf "j%d" idx in
        let what, spec =
          match kind with
          | 0 -> ("counter", counter_spec ~name ~nodes:2 ~priority ~target:size)
          | 1 ->
            ( "memhog",
              memhog_spec ~name ~priority ~iters:size ~out:(sprintf "/chaos/sched_%d" idx) )
          | _ -> ("stream", stream_spec ~name ~priority ~count:size ~port:(6300 + (10 * idx)))
        in
        (sprintf "job%d %s(%d) prio %d @%.2f" idx what size priority submit, (submit, [ spec ])))
  in
  (* the node is drawn before the time *)
  let fault ~odds ~span =
    if Util.Rng.int rng 10 < odds then begin
      let node = Util.Rng.int rng nodes in
      Some (1.5 +. Util.Rng.float rng span, node)
    end
    else None
  in
  let fail = fault ~odds:8 ~span:3.5 in
  let drain = fault ~odds:5 ~span:4.5 in
  let ckpt_interval = 0.5 +. Util.Rng.float rng 1.0 in
  let show what = function Some (t, n) -> sprintf ", %s node %d @%.2f" what n t | None -> "" in
  let at_node = Option.map (fun (t, n) -> (t, Node n)) in
  ( {
      nodes;
      ckpt_interval;
      max_inflight = 0;
      until = 240.;
      submissions = List.map snd jobs;
      fail = at_node fail;
      drain = at_node drain;
      demands = (fun _ -> []);
    },
    sprintf "seed %d: iv %.2f, %s%s%s" seed ckpt_interval
      (String.concat ", " (List.map fst jobs))
      (show "fail" fail) (show "drain" drain) )

(* [run_seeds ~base ~count] plays each seed's plan without and then with
   its faults, logs one line per seed, and returns the failures as
   (seed, description, violations). *)
let run_seeds ?(log = fun (_ : string) -> ()) ~base ~count () =
  List.filter_map
    (fun seed ->
      let p, desc = sample ~seed in
      let reference = play ~faults:false p in
      let violations = judge p ~reference (play ~faults:true p) in
      log
        (sprintf "sched seed %d: %s" seed
           (if violations = [] then "ok" else "FAIL: " ^ String.concat "; " violations));
      if violations = [] then None else Some (seed, desc, violations))
    (List.init count (( + ) base))
