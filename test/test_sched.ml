(* Tests for the checkpoint-driven batch scheduler: pure policy
   decisions, the canned three-job preempt/fail/drain scenario judged
   against its no-fault reference, end-to-end determinism, and a seeded
   chaos corpus (CHAOS_SEEDS scales the seed count, as for test_chaos). *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* pure policy *)

let test_place () =
  check
    (Alcotest.option (Alcotest.array Alcotest.int))
    "lowest-numbered free nodes"
    (Some [| 1; 3 |])
    (Sched.Policy.place ~free:[ 7; 3; 5; 1 ] ~want:2);
  check
    (Alcotest.option (Alcotest.array Alcotest.int))
    "too few free nodes" None
    (Sched.Policy.place ~free:[ 4 ] ~want:2);
  check
    (Alcotest.option (Alcotest.array Alcotest.int))
    "zero nodes is trivially placeable" (Some [||])
    (Sched.Policy.place ~free:[] ~want:0)

let cd id priority nodes = { Sched.Policy.cd_id = id; cd_priority = priority; cd_nodes = nodes }

let test_victims () =
  let running = [ cd 0 1 2; cd 1 1 2; cd 2 5 4 ] in
  (* equal-priority jobs are not eligible: only the prio-1 pair can fall
     to a prio-5 arrival, lowest priority first, youngest on ties *)
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "youngest of the lowest priority goes first" (Some [ 1 ])
    (Sched.Policy.victims ~running ~need:2 ~priority:5);
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "several victims accumulate" (Some [ 1; 0 ])
    (Sched.Policy.victims ~running ~need:4 ~priority:5);
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "equal priority never preempted" None
    (Sched.Policy.victims ~running ~need:2 ~priority:1);
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "not enough eligible nodes" None
    (Sched.Policy.victims ~running ~need:6 ~priority:5);
  check
    (Alcotest.option (Alcotest.list Alcotest.int))
    "lower priority falls before higher" (Some [ 1; 0; 2 ])
    (Sched.Policy.victims
       ~running:[ cd 0 1 2; cd 1 1 2; cd 2 3 2 ]
       ~need:6 ~priority:9)

let test_queue_order () =
  check
    (Alcotest.list Alcotest.int)
    "priority desc, submit asc, id asc"
    [ 2; 0; 3; 1 ]
    (Sched.Policy.queue_order [ (0, 1, 0.0); (1, 0, 0.0); (2, 5, 3.0); (3, 1, 0.0) ])

(* ------------------------------------------------------------------ *)
(* deadline semantics: both comparisons are inclusive (a poll landing
   exactly on the boundary decides, instead of waiting a whole extra
   tick) *)

let test_deadline_boundaries () =
  Alcotest.(check bool)
    "age exactly at the timeout has timed out" true
    (Sched.Deadline.op_timed_out ~now:61.0 ~since:1.0 ~timeout:60.0);
  Alcotest.(check bool)
    "age just under the timeout has not" false
    (Sched.Deadline.op_timed_out ~now:60.999 ~since:1.0 ~timeout:60.0);
  Alcotest.(check bool)
    "age past the timeout has timed out" true
    (Sched.Deadline.op_timed_out ~now:100.0 ~since:1.0 ~timeout:60.0);
  Alcotest.(check bool)
    "a record stamped at the request instant satisfies the guard" true
    (Sched.Deadline.since_satisfied ~started:5.0 ~since:5.0);
  Alcotest.(check bool)
    "a record from just before the request does not" false
    (Sched.Deadline.since_satisfied ~started:4.999 ~since:5.0);
  Alcotest.(check bool)
    "a later record satisfies the guard" true
    (Sched.Deadline.since_satisfied ~started:6.0 ~since:5.0)

(* ------------------------------------------------------------------ *)
(* restart-script remap: a host occupying several slots of the old
   allocation must spread its images over the same positions of the new
   allocation, not collapse them onto one host *)

let script_testable =
  let pp fmt (s : Dmtcp.Restart_script.t) =
    Format.fprintf fmt "coord %d:%d entries %s" s.Dmtcp.Restart_script.coord_host
      s.Dmtcp.Restart_script.coord_port
      (String.concat "; "
         (List.map
            (fun (h, imgs) -> Printf.sprintf "%d->[%s]" h (String.concat "," imgs))
            s.Dmtcp.Restart_script.entries))
  in
  Alcotest.testable pp ( = )

let test_remap_positional_duplicates () =
  let script =
    {
      Dmtcp.Restart_script.coord_host = 4;
      coord_port = 7811;
      entries = [ (4, [ "/ckpt/a.img"; "/ckpt/b.img" ]); (7, [ "/ckpt/c.img" ]) ];
    }
  in
  let old_alloc = [| 4; 7; 4 |] in
  let new_alloc = [| 1; 2; 3 |] in
  (* node 4 held slots 0 and 2; its two images must land on new slots 0
     and 2 (nodes 1 and 3), one each; node 7 held slot 1 -> node 2 *)
  check script_testable "duplicate-node slots stay distinct"
    {
      Dmtcp.Restart_script.coord_host = 1;
      coord_port = 7811;
      entries = [ (1, [ "/ckpt/a.img" ]); (2, [ "/ckpt/c.img" ]); (3, [ "/ckpt/b.img" ]) ];
    }
    (Dmtcp.Restart_script.remap_positional script ~old_alloc ~new_alloc);
  (* the host-level remap cannot represent this: both of node 4's images
     follow the same host mapping, collapsing two slots onto one node *)
  let collapsed = Dmtcp.Restart_script.remap script (fun h -> if h = 4 then 1 else 2) in
  check script_testable "host-level remap collapses the duplicate slots"
    {
      Dmtcp.Restart_script.coord_host = 1;
      coord_port = 7811;
      entries = [ (1, [ "/ckpt/a.img"; "/ckpt/b.img" ]); (2, [ "/ckpt/c.img" ]) ];
    }
    collapsed;
  (* identity remap round-trips *)
  check script_testable "identity"
    script
    (Dmtcp.Restart_script.remap_positional script ~old_alloc ~new_alloc:old_alloc);
  (* positions beyond the new allocation keep their old host *)
  check script_testable "short new allocation keeps tail in place"
    {
      Dmtcp.Restart_script.coord_host = 9;
      coord_port = 7811;
      entries = [ (2, [ "/ckpt/c.img" ]); (4, [ "/ckpt/b.img" ]); (9, [ "/ckpt/a.img" ]) ];
    }
    (Dmtcp.Restart_script.remap_positional script ~old_alloc ~new_alloc:[| 9; 2 |])

(* ------------------------------------------------------------------ *)
(* conflict-admission property: for random interleavings of enqueues and
   completions, no two conflicting ops are ever in flight together,
   every op starts exactly once, and conflicting ops start in enqueue
   order (with max_inflight=1 the start order is exactly the enqueue
   order — the serialized baseline) *)

let opq_drive ~max_inflight specs schedule =
  (* synthetic op: (id, job, node); conflict = same job or same node *)
  let conflict (_, j1, n1) (_, j2, n2) = j1 = j2 || n1 = n2 in
  let ops = List.mapi (fun i (j, n) -> (i, j, n)) specs in
  let q = Sched.Opq.create ~max_inflight ~conflict ~key:(fun (_, j, _) -> j) () in
  let started = ref [] in
  let start op =
    started := op :: !started;
    true
  in
  let ok = ref true in
  let assert_inflight () =
    let live =
      List.filter (fun (e : _ Sched.Opq.entry) -> not e.Sched.Opq.e_aborted)
        (Sched.Opq.inflight q)
    in
    if max_inflight > 0 && List.length (Sched.Opq.inflight q) > max_inflight then ok := false;
    List.iteri
      (fun i a ->
        List.iteri
          (fun k b ->
            if i < k && conflict a.Sched.Opq.e_op b.Sched.Opq.e_op then ok := false)
          live)
      live
  in
  let picks = ref schedule in
  let complete_one () =
    match Sched.Opq.inflight q with
    | [] -> ()
    | entries ->
      let pick = match !picks with p :: rest -> picks := rest; p | [] -> 0 in
      Sched.Opq.remove q (List.nth entries (pick mod List.length entries))
  in
  List.iteri
    (fun i op ->
      Sched.Opq.enqueue q op;
      Sched.Opq.admit q ~now:(float_of_int i) ~start ();
      assert_inflight ();
      (* complete an in-flight entry every other enqueue, per the plan *)
      if i mod 2 = 1 then begin
        complete_one ();
        Sched.Opq.admit q ~now:(float_of_int i) ~start ();
        assert_inflight ()
      end)
    ops;
  (* drain: admission must always make progress while anything is queued *)
  let guard = ref 0 in
  while (not (Sched.Opq.is_idle q)) && !guard < 10_000 do
    incr guard;
    Sched.Opq.admit q ~now:1e6 ~start ();
    assert_inflight ();
    complete_one ()
  done;
  if not (Sched.Opq.is_idle q) then ok := false;
  (ops, List.rev !started, !ok)

let opq_plan = QCheck.(pair (list_of_size Gen.(int_bound 40) (pair (int_bound 4) (int_bound 5))) (small_list small_nat))

let prop_opq_conflicts =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"opq: conflicting ops serialize in enqueue order"
       opq_plan
       (fun (specs, schedule) ->
         let ops, started, ok = opq_drive ~max_inflight:0 specs schedule in
         let posn = Hashtbl.create 64 in
         List.iteri (fun i op -> Hashtbl.replace posn op i) started;
         let pos op = Option.value ~default:(-1) (Hashtbl.find_opt posn op) in
         ok
         (* every op started exactly once *)
         && List.sort compare started = List.sort compare ops
         (* conflicting pairs start in enqueue (id) order *)
         && List.for_all
              (fun ((i1, j1, n1) as a) ->
                List.for_all
                  (fun ((i2, j2, n2) as b) ->
                    i1 >= i2 || (j1 <> j2 && n1 <> n2) || pos a < pos b)
                  ops)
              ops))

let prop_opq_serialized_baseline =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"opq: max_inflight=1 starts in strict enqueue order"
       opq_plan
       (fun (specs, schedule) ->
         let ops, started, ok = opq_drive ~max_inflight:1 specs schedule in
         ok && started = ops))

(* ------------------------------------------------------------------ *)
(* coalescing regression: a preemption arriving while the victim's
   interval checkpoint is still in flight must reuse that round, not
   issue a second checkpoint (the double-checkpoint bug) *)

let counter_spec = Chaos.Fixture.counter_spec

let test_preempt_coalesces_with_inflight_ckpt () =
  Chaos.Progs.ensure_registered ();
  let options =
    { Dmtcp.Options.default with Dmtcp.Options.store = true; store_replicas = 2 }
  in
  let env = Harness.Common.setup ~nodes:4 ~cores_per_node:2 ~options () in
  let cl = env.Harness.Common.cl in
  (* slow every storage target so a checkpoint round spans many scheduler
     ticks — wide window for the preemptor to land mid-checkpoint *)
  for n = 0 to 3 do
    Storage.Target.set_slowdown (Simos.Cluster.target cl n) 1_000_000.
  done;
  let sched = Sched.Scheduler.create ~ckpt_interval:1.0 cl env.Harness.Common.rt in
  let victim = Sched.Scheduler.submit sched (counter_spec ~name:"victim" ~nodes:2 ~priority:1 ~target:5000) in
  let eng = Simos.Cluster.engine cl in
  let submitted = ref false in
  let rounds_at_submit = ref (-1) in
  let rounds_at_requeue = ref (-1) in
  (* victim's coordinator domain: base_port + job id *)
  let port = 7800 + victim.Sched.Job.id in
  let rec probe () =
    let rounds = Dmtcp.Runtime.ckpt_rounds ~port env.Harness.Common.rt in
    (match (Sched.Scheduler.job sched victim.Sched.Job.id).Sched.Job.phase with
    | Sched.Job.Checkpointing when (not !submitted) && rounds >= 2 ->
      (* the second interval round is in flight (its start has been
         counted) and, with the degraded targets, stays in flight for
         many scheduler ticks: the preemptor's stop must land inside it *)
      submitted := true;
      rounds_at_submit := rounds;
      (* 3 of 4 nodes wanted, only 2 free -> the victim must fall *)
      ignore
        (Sched.Scheduler.submit sched (counter_spec ~name:"pre" ~nodes:3 ~priority:5 ~target:500))
    | Sched.Job.Requeued when !submitted && !rounds_at_requeue < 0 ->
      rounds_at_requeue := rounds
    | _ -> ());
    if !rounds_at_requeue < 0 then ignore (Sim.Engine.schedule eng ~delay:0.01 probe)
  in
  ignore (Sim.Engine.schedule eng ~delay:0.01 probe);
  let unfinished = Sched.Scheduler.run ~until:600. sched in
  check Alcotest.int "all jobs finished" 0 unfinished;
  check (Alcotest.list Alcotest.string) "no invariant violations" []
    (Sched.Scheduler.violations sched);
  Alcotest.(check bool) "preemptor landed mid-checkpoint" true !submitted;
  check Alcotest.int "one preemption" 1 (Sched.Scheduler.preemptions sched);
  Alcotest.(check bool) "victim was requeued" true (!rounds_at_requeue >= 0);
  (* the in-flight interval round IS the stop's checkpoint: between the
     preemption request and the requeue no further round may start in
     the victim's domain.  The double-checkpoint bug issued a second
     [Api.checkpoint] here, giving [rounds_at_submit + 1]. *)
  check Alcotest.int "stop coalesced with the in-flight checkpoint round"
    !rounds_at_submit !rounds_at_requeue;
  check Alcotest.int "victim restarted from the coalesced image" 1
    (Sched.Scheduler.restarts sched)

(* ------------------------------------------------------------------ *)
(* background compaction: the compact_depth option turns the scheduler's
   compactor on; squashing delta chains must change neither the job's
   output nor the store's health.  A drain midway makes the job restart
   on the other node from a chain the compactor has rewritten. *)

let run_store_job ~compact_depth =
  Chaos.Progs.ensure_registered ();
  let options =
    { Dmtcp.Options.default with Dmtcp.Options.store = true; incremental = true; compact_depth }
  in
  let env = Harness.Common.setup ~nodes:2 ~cores_per_node:2 ~options () in
  let cl = env.Harness.Common.cl in
  let sched = Sched.Scheduler.create ~ckpt_interval:0.5 cl env.Harness.Common.rt in
  ignore
    (Sched.Scheduler.submit sched (counter_spec ~name:"long" ~nodes:1 ~priority:1 ~target:5000));
  ignore
    (Sim.Engine.schedule (Simos.Cluster.engine cl) ~delay:3.0 (fun () ->
         Sched.Scheduler.drain sched 0));
  check Alcotest.int "job finished" 0 (Sched.Scheduler.run ~until:600. sched);
  check Alcotest.int "restarted once, after the drain" 1 (Sched.Scheduler.restarts sched);
  (sched, Option.get (Dmtcp.Runtime.store env.Harness.Common.rt))

let test_compaction_from_options () =
  let plain, _ = run_store_job ~compact_depth:0 in
  let compacted, store = run_store_job ~compact_depth:1 in
  check Alcotest.int "compaction off at depth 0" 0 (Sched.Scheduler.compactions plain);
  Alcotest.(check bool) "compactor ran at depth 1" true (Sched.Scheduler.compactions compacted > 0);
  check
    Alcotest.(list (pair int (list (pair string string))))
    "same output as with compaction off" (Chaos.Fixture.job_outputs plain)
    (Chaos.Fixture.job_outputs compacted);
  check Alcotest.(list string) "store verifies clean" [] (Store.verify store)

(* ------------------------------------------------------------------ *)
(* the canned scenario: all three policies, judged against a no-fault
   reference run *)

let test_demo_faulted_matches_reference () =
  let reference = Chaos.Sched_demo.run ~faults:false () in
  let faulted = Chaos.Sched_demo.run ~faults:true () in
  (match Chaos.Sched_demo.check ~reference faulted with
  | [] -> ()
  | violations -> Alcotest.fail (String.concat "; " violations));
  (* the reference run still sees the preemption (the big arrival is not
     a fault) but no node failure, no drain *)
  let rs = reference.Chaos.Sched_demo.d_sched in
  check Alcotest.int "reference preempts too" 1 (Sched.Scheduler.preemptions rs);
  check Alcotest.int "reference has no node failure" 0 (Sched.Scheduler.node_failures rs);
  check Alcotest.int "reference has no drain" 0 (Sched.Scheduler.drains rs);
  Alcotest.(check bool)
    "faults cost lost work" true
    (Sched.Scheduler.total_lost_work faulted.Chaos.Sched_demo.d_sched > 0.);
  Alcotest.(check bool)
    "makespan is positive" true
    (Sched.Scheduler.makespan faulted.Chaos.Sched_demo.d_sched > 0.)

let test_demo_deterministic () =
  let a = Chaos.Sched_demo.run ~faults:true () in
  let b = Chaos.Sched_demo.run ~faults:true () in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))))
    "verdicts identical across runs"
    (Chaos.Fixture.job_outputs a.Chaos.Sched_demo.d_sched)
    (Chaos.Fixture.job_outputs b.Chaos.Sched_demo.d_sched);
  check (Alcotest.float 0.) "makespan identical"
    (Sched.Scheduler.makespan a.Chaos.Sched_demo.d_sched)
    (Sched.Scheduler.makespan b.Chaos.Sched_demo.d_sched);
  check (Alcotest.float 0.) "lost work identical"
    (Sched.Scheduler.total_lost_work a.Chaos.Sched_demo.d_sched)
    (Sched.Scheduler.total_lost_work b.Chaos.Sched_demo.d_sched);
  check Alcotest.int "restart count identical"
    (Sched.Scheduler.restarts a.Chaos.Sched_demo.d_sched)
    (Sched.Scheduler.restarts b.Chaos.Sched_demo.d_sched)

(* scaled-down slice of the 1000-job demo: same shape (deep queue of
   staggered single-node jobs, prio-5 batch, node loss, drain) on a
   smaller cluster, judged against its no-fault reference *)
let test_demo1k_smoke () =
  let reference = Chaos.Sched_demo1k.run ~jobs:150 ~nodes:16 ~faults:false () in
  let faulted = Chaos.Sched_demo1k.run ~jobs:150 ~nodes:16 ~faults:true () in
  (match Chaos.Sched_demo1k.check ~reference faulted with
  | [] -> ()
  | violations -> Alcotest.fail (String.concat "; " violations));
  Alcotest.(check bool)
    "ops overlap in flight (>= 8)" true
    (Sched.Scheduler.peak_ops_inflight faulted.Chaos.Sched_demo1k.k_sched >= 8)

(* ------------------------------------------------------------------ *)
(* seeded chaos corpus *)

let corpus_count () =
  match Sys.getenv_opt "CHAOS_SEEDS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 25)
  | None -> 25

let test_chaos_corpus () =
  let count = corpus_count () in
  let failures = Chaos.Sched_fault.run_seeds ~base:0 ~count () in
  match failures with
  | [] -> ()
  | r :: _ ->
    Alcotest.fail
      (Printf.sprintf "%d/%d seed(s) failed; first: %s — %s" (List.length failures) count
         (Chaos.Sched_fault.describe r.Chaos.Sched_fault.r_plan)
         (String.concat "; " r.Chaos.Sched_fault.r_violations))

let () =
  Alcotest.run "sched"
    [
      ( "policy",
        [
          Alcotest.test_case "place" `Quick test_place;
          Alcotest.test_case "victims" `Quick test_victims;
          Alcotest.test_case "queue order" `Quick test_queue_order;
          Alcotest.test_case "deadline boundaries" `Quick test_deadline_boundaries;
        ] );
      ( "remap",
        [
          Alcotest.test_case "positional remap keeps duplicate-node slots distinct" `Quick
            test_remap_positional_duplicates;
        ] );
      ( "opq",
        [
          prop_opq_conflicts;
          prop_opq_serialized_baseline;
          Alcotest.test_case "preempt coalesces with in-flight checkpoint" `Quick
            test_preempt_coalesces_with_inflight_ckpt;
        ] );
      ( "store",
        [
          Alcotest.test_case "DMTCP_COMPACT_DEPTH drives the compactor" `Quick
            test_compaction_from_options;
        ] );
      ( "demo",
        [
          Alcotest.test_case "faulted run matches no-fault reference" `Quick
            test_demo_faulted_matches_reference;
          Alcotest.test_case "deterministic" `Quick test_demo_deterministic;
          Alcotest.test_case "1000-job demo, scaled-down slice" `Slow test_demo1k_smoke;
        ] );
      ( "chaos",
        [ Alcotest.test_case "seed corpus" `Slow test_chaos_corpus ] );
    ]
