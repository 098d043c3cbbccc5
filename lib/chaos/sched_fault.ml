(* Seeded scheduler chaos: random job mixes under random preemption
   pressure, node loss and drains.

   Lives in its own module — not in [Scenario.sample] — so the pinned
   torture corpus keeps its RNG draw order.  One seed determines the job
   mix, the submit times, the checkpoint interval and the fault
   schedule; [run ~seed] plays the plan twice — once without faults
   (reference), once with — and demands that under faults every job
   still finishes with the reference's exact verdict bytes, no two jobs
   ever share a node slot, the store's replication invariant holds, and
   the cluster is quiescent afterwards. *)

module Common = Harness.Common

let sprintf = Printf.sprintf
let nodes = 8

type jkind = Counter | Memhog | Stream

type plan = {
  p_seed : int;
  p_ckpt_interval : float;
  p_jobs : (jkind * int (* size param *) * int (* priority *) * float (* submit *)) list;
  p_fail : (float * int) option;  (* node fail-stop: time, node *)
  p_drain : (float * int) option;  (* operator drain: time, node *)
}

let sample ~seed =
  let rng = Util.Rng.create (Int64.add 0x5C4ED_FA17L (Int64.of_int seed)) in
  let njobs = 3 + Util.Rng.int rng 3 in
  let jobs =
    List.init njobs (fun _ ->
        let kind =
          match Util.Rng.int rng 3 with 0 -> Counter | 1 -> Memhog | _ -> Stream
        in
        let size =
          match kind with
          | Counter -> Util.Rng.int_in rng 1500 4000  (* compute steps *)
          | Memhog -> Util.Rng.int_in rng 200 600  (* iterations *)
          | Stream -> Util.Rng.int_in rng 2000 6000  (* records *)
        in
        let priority = Util.Rng.int rng 6 in
        let submit = Util.Rng.float rng 3.0 in
        (kind, size, priority, submit))
  in
  let fail =
    if Util.Rng.int rng 10 < 8 then
      Some (1.5 +. Util.Rng.float rng 3.5, Util.Rng.int rng nodes)
    else None
  in
  let drain =
    if Util.Rng.int rng 10 < 5 then
      Some (1.5 +. Util.Rng.float rng 4.5, Util.Rng.int rng nodes)
    else None
  in
  {
    p_seed = seed;
    p_ckpt_interval = 0.5 +. Util.Rng.float rng 1.0;
    p_jobs = jobs;
    p_fail = fail;
    p_drain = drain;
  }

let describe p =
  let job i (kind, size, priority, submit) =
    sprintf "job%d %s(%d) prio %d @%.2f" i
      (match kind with Counter -> "counter" | Memhog -> "memhog" | Stream -> "stream")
      size priority submit
  in
  sprintf "seed %d: iv %.2f, %s%s%s" p.p_seed p.p_ckpt_interval
    (String.concat ", " (List.mapi job p.p_jobs))
    (match p.p_fail with
    | Some (t, n) -> sprintf ", fail node %d @%.2f" n t
    | None -> "")
    (match p.p_drain with
    | Some (t, n) -> sprintf ", drain node %d @%.2f" n t
    | None -> "")

let spec_of ~idx (kind, size, priority, _submit) =
  let name = sprintf "j%d" idx in
  match kind with
  | Counter -> Fixture.counter_spec ~name ~nodes:2 ~priority ~target:size
  | Memhog ->
    let out = sprintf "/chaos/sched_%d" idx in
    {
      Sched.Job.sp_name = name;
      sp_nodes = 1;
      sp_priority = priority;
      sp_est_runtime = float_of_int size *. 5e-3;
      sp_procs = 1;
      sp_launch =
        (fun a -> [ (a.(0), "p:memhog", [ "4"; string_of_int size; out ]) ]);
      sp_outputs = (fun a -> [ (a.(0), out) ]);
    }
  | Stream -> Fixture.stream_spec ~name ~priority ~count:size ~port:(6300 + (10 * idx))

(* Play the plan; [faults] selects whether the fail/drain events fire. *)
let play ~faults p =
  Progs.ensure_registered ();
  let env = Common.setup ~nodes ~cores_per_node:2 ~options:Fixture.store_options () in
  let sched =
    Sched.Scheduler.create ~ckpt_interval:p.p_ckpt_interval env.Common.cl env.Common.rt
  in
  let eng = Simos.Cluster.engine env.Common.cl in
  List.iteri
    (fun idx ((_, _, _, submit) as j) ->
      let spec = spec_of ~idx j in
      if submit <= 0. then ignore (Sched.Scheduler.submit sched spec)
      else
        ignore
          (Sim.Engine.schedule_at eng ~time:submit (fun () ->
               ignore (Sched.Scheduler.submit sched spec))))
    p.p_jobs;
  if faults then begin
    (* the plan names the node; it is skipped if already down *)
    let inject act (time, node) =
      Fixture.at_node env ~time act (fun () ->
          if Simos.Cluster.node_up env.Common.cl node then Some node else None)
    in
    Option.iter (inject (Sched.Scheduler.fail_node sched)) p.p_fail;
    Option.iter (inject (Sched.Scheduler.drain sched)) p.p_drain
  end;
  let unfinished = Sched.Scheduler.run ~until:240. sched in
  (env, sched, unfinished)

type result = { r_seed : int; r_violations : string list; r_plan : plan }

let pass r = r.r_violations = []

let run ~seed () =
  let p = sample ~seed in
  let _, ref_sched, ref_unfinished = play ~faults:false p in
  {
    r_seed = seed;
    r_violations =
      Fixture.sched_reference ~reference:(ref_sched, ref_unfinished) (play ~faults:true p);
    r_plan = p;
  }

(* [run_seeds ~base ~count] plays a block of seeds; returns failures. *)
let run_seeds ?(log = fun (_ : string) -> ()) ~base ~count () =
  let results =
    List.init count (fun i ->
        let seed = base + i in
        let r = run ~seed () in
        log
          (sprintf "sched seed %d: %s%s" seed
             (if pass r then "ok" else "FAIL")
             (if pass r then ""
              else ": " ^ String.concat "; " r.r_violations));
        r)
  in
  List.filter (fun r -> not (pass r)) results
