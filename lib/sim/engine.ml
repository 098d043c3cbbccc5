type event = { mutable cancelled : bool; fn : unit -> unit }
type handle = event

(* Dispatch accounting shared by every engine in the process; reset with
   Trace.Metrics.reset alongside the rest of the registry. *)
let m_dispatches = Trace.Metrics.counter "sim.dispatches"
let m_scheduled = Trace.Metrics.counter "sim.scheduled"

(* [next] receives each popped event's time unboxed; the clock keeps a
   boxed float, so [now] returns it without allocating. *)
type t = { mutable clock : float; next : float ref; queue : event Util.Heap.t }

let create () =
  {
    clock = 0.;
    next = ref 0.;
    queue = Util.Heap.create ~dummy:{ cancelled = true; fn = ignore } ();
  }

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

let dispatch t ev =
  t.clock <- !(t.next);
  Trace.Metrics.incr m_dispatches;
  ev.fn ()

let rec step t =
  if Util.Heap.is_empty t.queue then false
  else
    let ev = Util.Heap.take_into t.queue t.next in
    if ev.cancelled then step t
    else begin
      dispatch t ev;
      true
    end

(* livelock guard: one [run] dispatching more events than this raises *)
let max_events = 50_000_000

let run ?until t =
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    if Util.Heap.is_empty t.queue then continue := false
    else
      match until with
      | Some limit when Util.Heap.top_above t.queue limit ->
        t.clock <- max t.clock limit;
        continue := false
      | _ ->
        let ev = Util.Heap.take_into t.queue t.next in
        if not ev.cancelled then begin
          dispatch t ev;
          incr count;
          if !count > max_events then failwith "Engine.run: max_events exceeded (livelock?)"
        end
  done;
  match until with
  | Some limit when t.clock < limit && Util.Heap.is_empty t.queue -> t.clock <- limit
  | _ -> ()

let advance t ~delay = run ~until:(t.clock +. delay) t
