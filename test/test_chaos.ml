(* Tier-1 entry point for the chaos harness.

   The default run tortures a fixed 25-seed corpus (a couple of minutes
   of simulated time, a few seconds of wall clock); set CHAOS_SEEDS to
   widen the sweep, e.g.

     CHAOS_SEEDS=200 dune exec test/test_chaos.exe

   The corpus seeds are pinned: every seed is a complete scenario
   (workload + fault schedule + checkpoint times) derived from nothing
   but the seed, so a failure here is replayable verbatim with

     dmtcp_sim torture --replay SEED [--keep I,J]          *)

let seed_count =
  match Sys.getenv_opt "CHAOS_SEEDS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 25)
  | None -> 25

(* ------------------------------------------------------------------ *)
(* Scenario generation *)

let test_scenario_deterministic () =
  List.iter
    (fun seed ->
      let a = Chaos.Scenario.describe (Chaos.Scenario.sample ~seed) in
      let b = Chaos.Scenario.describe (Chaos.Scenario.sample ~seed) in
      Alcotest.(check string) (Printf.sprintf "seed %d stable" seed) a b)
    [ 0; 1; 17; 48; 78; 199 ]

let test_scenarios_vary () =
  let descs =
    List.init 50 (fun seed -> Chaos.Scenario.describe (Chaos.Scenario.sample ~seed))
  in
  let distinct = List.sort_uniq compare descs in
  Alcotest.(check bool) "50 seeds yield many distinct scenarios" true
    (List.length distinct > 40)

let test_scenario_well_formed () =
  for seed = 0 to 99 do
    let sc = Chaos.Scenario.sample ~seed in
    Alcotest.(check bool) "has launches" true (sc.Chaos.Scenario.sc_launches <> []);
    Alcotest.(check bool) "has outputs" true (sc.Chaos.Scenario.sc_outputs <> []);
    Alcotest.(check bool) "has a checkpoint" true (sc.Chaos.Scenario.sc_ckpts <> []);
    List.iter
      (fun t ->
        Alcotest.(check bool) "ckpt within deadline" true
          (t > 0. && t < sc.Chaos.Scenario.sc_deadline))
      sc.Chaos.Scenario.sc_ckpts
  done

let test_with_faults_filters () =
  let sc = Chaos.Scenario.sample ~seed:78 in
  let n = List.length sc.Chaos.Scenario.sc_events in
  Alcotest.(check bool) "seed 78 has faults" true (n >= 2);
  let kept = Chaos.Scenario.with_faults sc [ 1 ] in
  Alcotest.(check int) "keep [1] leaves one fault" 1
    (List.length kept.Chaos.Scenario.sc_events);
  let none = Chaos.Scenario.with_faults sc [] in
  Alcotest.(check int) "keep [] leaves none" 0 (List.length none.Chaos.Scenario.sc_events)

(* ------------------------------------------------------------------ *)
(* Shrinker (pure, no simulation involved) *)

let test_shrink_to_single_cause () =
  (* failure iff fault 3 is present: minimizes to exactly [3] *)
  let fails keep = List.mem 3 keep in
  Alcotest.(check (list int)) "single cause" [ 3 ]
    (Chaos.Shrink.minimize ~fails [ 0; 1; 2; 3; 4 ])

let test_shrink_conjunction () =
  (* failure needs both 1 and 4 *)
  let fails keep = List.mem 1 keep && List.mem 4 keep in
  Alcotest.(check (list int)) "pair kept" [ 1; 4 ]
    (Chaos.Shrink.minimize ~fails [ 0; 1; 2; 3; 4 ])

let test_shrink_not_failing () =
  let fails _ = false in
  Alcotest.(check (list int)) "non-failure untouched" [ 0; 1 ]
    (Chaos.Shrink.minimize ~fails [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* The torture corpus *)

let test_corpus () =
  let summary = Chaos.Torture.run_seeds ~base:0 ~count:seed_count () in
  if not (Chaos.Torture.all_pass summary) then
    Alcotest.failf "chaos corpus failed:\n%s" (Chaos.Torture.report summary)

let test_run_exercises_recovery () =
  (* seed 5 is pinned as a scenario whose fault schedule forces at least
     one completed checkpoint and one restart-based recovery; if the
     generator or runner drifts, this canary trips before the corpus *)
  let r = Chaos.Runner.run ~seed:5 () in
  Alcotest.(check (list string)) "passes" [] r.Chaos.Runner.r_violations;
  Alcotest.(check bool) "took a checkpoint" true (r.Chaos.Runner.r_ckpts >= 1);
  Alcotest.(check bool) "recovered from a kill" true (r.Chaos.Runner.r_recoveries >= 1)

(* Seeds 483 and 579 kill a stream peer at the resume stage, just after
   the round completes, and the surviving peer writes its EOF verdict
   before the runner's next poll.  Recovery must rewind the outputs to
   the round's first resume, not to that poll, or the restarted server
   writes over the EOF line. *)
let test_kill_after_round_rewinds_outputs () =
  List.iter
    (fun seed ->
      let r = Chaos.Runner.run ~seed () in
      Alcotest.(check (list string)) (Printf.sprintf "seed %d passes" seed) []
        r.Chaos.Runner.r_violations)
    [ 483; 579 ]

let test_run_deterministic () =
  let a = Chaos.Runner.run ~seed:11 () in
  let b = Chaos.Runner.run ~seed:11 () in
  Alcotest.(check string) "same description" a.Chaos.Runner.r_desc b.Chaos.Runner.r_desc;
  Alcotest.(check int) "same ckpts" a.Chaos.Runner.r_ckpts b.Chaos.Runner.r_ckpts;
  Alcotest.(check int) "same recoveries" a.Chaos.Runner.r_recoveries
    b.Chaos.Runner.r_recoveries;
  Alcotest.(check (list string)) "same verdict" a.Chaos.Runner.r_violations
    b.Chaos.Runner.r_violations

(* ------------------------------------------------------------------ *)
(* The harness catches known protocol bugs *)

let with_bug flag f =
  flag := true;
  Fun.protect ~finally:(fun () -> flag := false) f

let check_bug_caught ~name flag =
  with_bug flag (fun () ->
      (* seed 0 deterministically trips both known bugs: its mixed
         workload checkpoints mid-stream, so a skipped drain leaves
         bytes in kernel buffers at the write stage and a dropped
         refill corrupts the restarted stream *)
      let summary = Chaos.Torture.run_seeds ~base:0 ~count:1 () in
      match summary.Chaos.Torture.s_failures with
      | [] -> Alcotest.failf "%s not caught by seed 0" name
      | f :: _ ->
        Alcotest.(check bool)
          (name ^ ": shrunk run still names a violation")
          true
          (f.Chaos.Torture.f_min_violations <> []);
        (* the printed reproducer must actually replay *)
        let r =
          Chaos.Runner.run ~keep:f.Chaos.Torture.f_min_keep
            ~seed:f.Chaos.Torture.f_result.Chaos.Runner.r_seed ()
        in
        Alcotest.(check bool) (name ^ ": reproducer replays") false (Chaos.Runner.pass r))

(* ------------------------------------------------------------------ *)
(* The fault-scenario table (the two proxy rows run in test_proxy) *)

let titles =
  [
    ("replica-loss", ("store-fault", "restart from surviving replica"));
    ("total-loss", ("store-fault", "total replica loss fails cleanly"));
    ("deep-chain", ("delta-fault", "depth-3 chain restart is bit-identical"));
    ("forked-crash", ("delta-fault", "node crash mid-forked checkpoint"));
    ("base-loss", ("delta-fault", "delta base replica loss fails cleanly"));
    ("lazy-kill", ("restore-fault", "node crash mid-lazy-restore"));
    ("stripe-drop", ("restore-fault", "replica drop mid-striped-fetch"));
    ("blacklist", ("plugin-fault", "blacklisted port skipped, dead socket back"));
    ("proc-repoint", ("plugin-fault", "/proc fd re-pointed at restarted pid"));
    ("shm-zero", ("plugin-fault", "external shm zeroed in image only"));
  ]

let scenario_cases =
  List.filter_map
    (fun (name, run) ->
      Option.map
        (fun (group, title) ->
          ( group,
            Alcotest.test_case title `Quick (fun () ->
                Alcotest.(check (list string)) (name ^ " violations") [] (run ())) ))
        (List.assoc_opt name titles))
    Chaos.Fixture.scenarios

let group name =
  (name, List.filter_map (fun (g, c) -> if g = name then Some c else None) scenario_cases)

(* a fault that raises must leave neither its stage kill nor the
   cycle's trace collector installed for the next scenario *)
let test_raising_fault_leaks_nothing () =
  let raising =
    {
      (Chaos.Fixture.hog "/data/leak") with
      Chaos.Fixture.fault =
        (fun env ->
          Chaos.Fixture.with_stage_kill env Dmtcp.Faults.Drain (fun _ -> failwith "fault raised"));
    }
  in
  Alcotest.check_raises "the fault's exception propagates" (Failure "fault raised") (fun () ->
      ignore (Chaos.Fixture.run raising));
  Alcotest.(check bool) "trace collector detached" false (Trace.on ());
  Alcotest.(check (list string)) "next table scenario passes" []
    ((List.assoc "replica-loss" Chaos.Fixture.scenarios) ())

let test_catches_skip_drain () =
  check_bug_caught ~name:"skip-drain" Dmtcp.Faults.bug_skip_drain

let test_catches_drop_refill () =
  check_bug_caught ~name:"drop-refill" Dmtcp.Faults.bug_drop_refill

(* p:dirty's pages come from a 256-entry table; each must equal the
   per-byte formula, written out here *)
let prop_dirty_page_payload =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 21 |])
    (QCheck.Test.make ~count:300 ~name:"dirty page_payload equals the per-byte formula"
       QCheck.(pair (int_range 0 8191) (int_range 0 20000))
       (fun (page, version) ->
         let formula =
           String.init Mem.Page.size (fun i ->
               let v =
                 (i * 131) + ((i lsr 8) * 17) + ((i lsr 16) * 211) + (page * 7919)
                 + (version * 104729)
               in
               Char.chr (v land 0xff))
         in
         Chaos.Progs.Dirty.page_payload ~page ~version = formula))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "chaos"
    [
      ( "scenario",
        [
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
          Alcotest.test_case "seeds vary" `Quick test_scenarios_vary;
          Alcotest.test_case "well-formed" `Quick test_scenario_well_formed;
          Alcotest.test_case "with_faults filters" `Quick test_with_faults_filters;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "single cause" `Quick test_shrink_to_single_cause;
          Alcotest.test_case "conjunction" `Quick test_shrink_conjunction;
          Alcotest.test_case "non-failure untouched" `Quick test_shrink_not_failing;
        ] );
      ( "torture",
        [
          Alcotest.test_case "recovery canary (seed 5)" `Quick test_run_exercises_recovery;
          Alcotest.test_case "run deterministic (seed 11)" `Quick test_run_deterministic;
          Alcotest.test_case "kill just after a round (seeds 483, 579)" `Quick
            test_kill_after_round_rewinds_outputs;
          Alcotest.test_case
            (Printf.sprintf "corpus (%d seeds)" seed_count)
            `Quick test_corpus;
        ] );
      ( "bug-detection",
        [
          Alcotest.test_case "catches skip-drain" `Quick test_catches_skip_drain;
          Alcotest.test_case "catches drop-refill" `Quick test_catches_drop_refill;
        ] );
      group "store-fault";
      group "delta-fault";
      group "restore-fault";
      group "plugin-fault";
      ( "fixture",
        [
          Alcotest.test_case "raising fault leaks nothing" `Quick
            test_raising_fault_leaks_nothing;
        ] );
      ("progs", [ prop_dirty_page_payload ]);
    ]
