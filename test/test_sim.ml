(* Tests for the discrete-event engine: ordering, cancellation, time
   limits, determinism of simultaneous events. *)

let check = Alcotest.check

let test_empty_run () =
  let e = Sim.Engine.create () in
  Sim.Engine.run e;
  check (Alcotest.float 0.) "clock stays at 0" 0. (Sim.Engine.now e)

let test_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let at delay tag = ignore (Sim.Engine.schedule e ~delay (fun () -> log := tag :: !log)) in
  at 3.0 "c";
  at 1.0 "a";
  at 2.0 "b";
  Sim.Engine.run e;
  check Alcotest.(list string) "fires in time order" [ "a"; "b"; "c" ] (List.rev !log);
  check (Alcotest.float 1e-12) "clock at last event" 3.0 (Sim.Engine.now e)

let test_same_time_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Sim.Engine.run e;
  check Alcotest.(list int) "FIFO among simultaneous events" (List.init 10 Fun.id) (List.rev !log)

let test_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Sim.Engine.cancel h;
  Sim.Engine.run e;
  check Alcotest.bool "cancelled event does not fire" false !fired

let test_cancel_twice_ok () =
  let e = Sim.Engine.create () in
  let h = Sim.Engine.schedule e ~delay:1.0 ignore in
  Sim.Engine.cancel h;
  Sim.Engine.cancel h;
  Sim.Engine.run e

let test_nested_scheduling () =
  let e = Sim.Engine.create () in
  let times = ref [] in
  ignore
    (Sim.Engine.schedule e ~delay:1.0 (fun () ->
         times := Sim.Engine.now e :: !times;
         ignore (Sim.Engine.schedule e ~delay:0.5 (fun () -> times := Sim.Engine.now e :: !times))));
  Sim.Engine.run e;
  check Alcotest.(list (float 1e-12)) "nested event at 1.5" [ 1.0; 1.5 ] (List.rev !times)

let test_run_until () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> incr fired));
  ignore (Sim.Engine.schedule e ~delay:5.0 (fun () -> incr fired));
  Sim.Engine.run ~until:2.0 e;
  check Alcotest.int "only the first fired" 1 !fired;
  check (Alcotest.float 1e-12) "clock advanced to limit" 2.0 (Sim.Engine.now e);
  Sim.Engine.run e;
  check Alcotest.int "second fires later" 2 !fired;
  check (Alcotest.float 1e-12) "clock at 5" 5.0 (Sim.Engine.now e)

let test_advance_without_events () =
  let e = Sim.Engine.create () in
  Sim.Engine.advance e ~delay:7.5;
  check (Alcotest.float 1e-12) "advance moves the clock" 7.5 (Sim.Engine.now e)

let test_negative_delay_rejected () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Sim.Engine.schedule e ~delay:(-1.0) ignore))

let test_schedule_in_past_rejected () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:1.0 ignore);
  Sim.Engine.run e;
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Sim.Engine.schedule_at e ~time:0.5 ignore))

let test_step () =
  let e = Sim.Engine.create () in
  let n = ref 0 in
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> incr n));
  ignore (Sim.Engine.schedule e ~delay:2.0 (fun () -> incr n));
  check Alcotest.bool "step fires one" true (Sim.Engine.step e);
  check Alcotest.int "one fired" 1 !n;
  check Alcotest.bool "step fires another" true (Sim.Engine.step e);
  check Alcotest.bool "queue empty" false (Sim.Engine.step e)

(* Cancellation under stress: the scheduler leans hard on cancel (it
   re-arms per-job checkpoint timers on every preempt/drain/restart), so
   cancel must compose with firing order, same-instant FIFO, and
   handlers that cancel their contemporaries. *)

let test_cancel_then_fire_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let at delay tag = Sim.Engine.schedule e ~delay (fun () -> log := tag :: !log) in
  let _a = at 1.0 "a" in
  let b = at 1.0 "b" in
  let _c = at 1.0 "c" in
  let d = at 2.0 "d" in
  let _e' = at 3.0 "e" in
  Sim.Engine.cancel b;
  Sim.Engine.cancel d;
  Sim.Engine.run e;
  check
    Alcotest.(list string)
    "survivors fire in original order" [ "a"; "c"; "e" ] (List.rev !log);
  check (Alcotest.float 1e-12) "clock at last surviving event" 3.0 (Sim.Engine.now e)

let test_cancel_from_handler () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let fired = ref [] in
  (* later same-instant sibling and a future event, both cancelled by the
     first event's handler while already in the heap *)
  let sibling = Sim.Engine.schedule e ~delay:1.0 (fun () -> fired := "sibling" :: !fired) in
  let future = Sim.Engine.schedule e ~delay:2.0 (fun () -> fired := "future" :: !fired) in
  ignore
    (Sim.Engine.schedule e ~delay:1.0 (fun () ->
         log := "killer" :: !log;
         Sim.Engine.cancel sibling;
         Sim.Engine.cancel future));
  (* NB the killer was scheduled after the sibling, so FIFO puts the
     sibling first at t=1 — a same-instant cancel only suppresses events
     that have not yet dispatched *)
  ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> fired := "tail" :: !fired));
  Sim.Engine.run e;
  check
    Alcotest.(list string)
    "pre-dispatch sibling fires, later ones do not" [ "sibling"; "tail" ] (List.rev !fired)

let test_double_cancel_interleaved () =
  let e = Sim.Engine.create () in
  let n = ref 0 in
  let hs = Array.init 8 (fun _ -> Sim.Engine.schedule e ~delay:1.0 (fun () -> incr n)) in
  Array.iter Sim.Engine.cancel hs;
  Array.iter Sim.Engine.cancel hs;
  (* cancelling an already-fired handle must also be a no-op *)
  let h = Sim.Engine.schedule e ~delay:2.0 (fun () -> incr n) in
  Sim.Engine.run e;
  Sim.Engine.cancel h;
  Sim.Engine.cancel h;
  check Alcotest.int "only the live event fired, once" 1 !n;
  check Alcotest.bool "queue drained" false (Sim.Engine.step e)

(* Property: an arbitrary interleaving of schedules and cancels fires
   exactly the surviving events, in nondecreasing time order with FIFO
   ties, and leaves the queue drained (heap invariants hold throughout). *)
let prop_interleaved_cancels =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"engine survives interleaved cancels"
       QCheck.(list (pair (float_bound_exclusive 100.) bool))
       (fun plan ->
         let e = Sim.Engine.create () in
         let fired = ref [] in
         let handles =
           List.mapi
             (fun i (delay, _) ->
               Sim.Engine.schedule e ~delay (fun () -> fired := (delay, i) :: !fired))
             plan
         in
         (* cancel the marked half, interleaved with fresh scheduling *)
         List.iteri
           (fun i ((_, kill), h) ->
             if kill then Sim.Engine.cancel h;
             if i mod 3 = 0 then
               ignore (Sim.Engine.schedule e ~delay:200. ignore))
           (List.combine plan handles);
         Sim.Engine.run e;
         let got = List.rev !fired in
         let survivors =
           List.mapi (fun i (d, kill) -> ((d, i), kill)) plan
           |> List.filter_map (fun (x, kill) -> if kill then None else Some x)
         in
         (* exactly the survivors, dispatched in (time, schedule-order)
            order: one equality asserts set, multiplicity AND ordering *)
         got = List.sort compare survivors))

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "empty run" `Quick test_empty_run;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "cancel twice" `Quick test_cancel_twice_ok;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "advance without events" `Quick test_advance_without_events;
          Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
          Alcotest.test_case "schedule in past rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "cancel-then-fire ordering" `Quick test_cancel_then_fire_ordering;
          Alcotest.test_case "cancel from handler" `Quick test_cancel_from_handler;
          Alcotest.test_case "double cancel interleaved" `Quick test_double_cancel_interleaved;
          prop_interleaved_cancels;
        ] );
    ]
