type event = { mutable cancelled : bool; fn : unit -> unit }
type handle = event

(* Dispatch accounting shared by every engine in the process; reset with
   Trace.Metrics.reset alongside the rest of the registry. *)
let m_dispatches = Trace.Metrics.counter "sim.dispatches"
let m_scheduled = Trace.Metrics.counter "sim.scheduled"

type t = { mutable clock : float; queue : event Util.Heap.t }

let create () = { clock = 0.; queue = Util.Heap.create ~dummy:{ cancelled = true; fn = ignore } () }
let now t = t.clock

let schedule_at t ~time fn =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let ev = { cancelled = false; fn } in
  Util.Heap.push t.queue ~priority:time ev;
  Trace.Metrics.incr m_scheduled;
  ev

let schedule t ~delay fn =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) fn

let cancel (ev : handle) = ev.cancelled <- true

let rec step t =
  match Util.Heap.pop t.queue with
  | None -> false
  | Some (_, ev) when ev.cancelled -> step t
  | Some (time, ev) ->
    t.clock <- time;
    Trace.Metrics.incr m_dispatches;
    ev.fn ();
    true

let run ?until ?(max_events = 50_000_000) t =
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Util.Heap.peek t.queue with
    | None -> continue := false
    | Some (time, ev) -> (
      match until with
      | Some limit when time > limit ->
        t.clock <- max t.clock limit;
        continue := false
      | _ ->
        ignore (Util.Heap.pop t.queue);
        if not ev.cancelled then begin
          t.clock <- time;
          Trace.Metrics.incr m_dispatches;
          ev.fn ();
          incr count;
          if !count > max_events then failwith "Engine.run: max_events exceeded (livelock?)"
        end)
  done;
  match until with
  | Some limit when t.clock < limit && Util.Heap.is_empty t.queue -> t.clock <- limit
  | _ -> ()

let advance t ~delay = run ~until:(t.clock +. delay) t
