(* What the bench reads from the stack besides the public API results:
   counter deltas of the Trace.Metrics registry, host-clock phase spans
   around each call into the stack, and a streaming trace sink that
   aggregates the few event kinds the per-layer metrics need. *)

(* ---------------- host clock ---------------- *)

(* Host seconds at a reference speed.  On a share of a machine, the same
   work takes 30-60 % longer when other tenants load it, for minutes at a
   time, which would swamp any change worth measuring.  So while the
   clock runs, a timer interrupts the process every [period] seconds to
   time a fixed probe, and host time until the next probe is scaled by
   [probe_ref / probe time].  Time spent in probes is not counted.

   The probe is this file's own code and does not allocate: integer work
   on a byte buffer, stores through a buffer the size of the minor heap,
   and a pointer chase through a 512 KiB cycle.  So neither a change to
   the repository's code nor the size of its heap moves the probe; only
   the host's speed does. *)

let period = 0.25

(* the probe's seconds on the reference host, a 2-vCPU Intel Xeon VM
   with nothing else running *)
let probe_ref = 0.005

let scratch = Bytes.create 65536

(* as large as the default minor heap, written through like an
   allocation burst *)
let fill = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 18)

(* Sattolo's shuffle: one cycle through every slot *)
let chase =
  let n = 1 lsl 16 in
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    a.{i} <- i
  done;
  let s = ref 0x2545F491 in
  for i = n - 1 downto 1 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    let j = !s mod i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let probe_work () =
  let h = ref 0 in
  for r = 0 to 14 do
    for i = 0 to Bytes.length scratch - 1 do
      Bytes.unsafe_set scratch i (Char.unsafe_chr (((i * r) + !h) land 0xff));
      h := (!h lsl 1) lxor Char.code (Bytes.unsafe_get scratch ((i * 31) land 0xffff))
    done
  done;
  for r = 0 to 3 do
    for i = 0 to Bigarray.Array1.dim fill - 1 do
      Bigarray.Array1.unsafe_set fill i (i + r + !h)
    done;
    h := !h + Bigarray.Array1.unsafe_get fill (!h land 0xffff)
  done;
  let j = ref 0 in
  for _ = 1 to 300_000 do
    j := Bigarray.Array1.unsafe_get chase !j;
    h := !h + !j
  done;
  !h

type clock = {
  mutable paused : float;  (* wall seconds spent in probes *)
  mutable base : float;  (* the clock's reading at the last probe *)
  mutable since : float;  (* unpaused wall time of the last probe *)
  mutable speed : float;  (* probe_ref / last probe time *)
}

let clock = { paused = 0.; base = 0.; since = 0.; speed = 1. }
let unpaused () = Unix.gettimeofday () -. clock.paused
let host_now () = clock.base +. ((unpaused () -. clock.since) *. clock.speed)
let probe_out = ref 0

let probe () =
  clock.base <- host_now ();
  let t0 = Unix.gettimeofday () in
  (* untimed: bring the cycle back into cache, whatever the program
     evicted *)
  for i = 0 to Bigarray.Array1.dim chase - 1 do
    probe_out := !probe_out + Bigarray.Array1.unsafe_get chase i
  done;
  let t1 = Unix.gettimeofday () in
  probe_out := !probe_out + probe_work ();
  let t2 = Unix.gettimeofday () in
  clock.speed <- probe_ref /. (t2 -. t1);
  clock.paused <- clock.paused +. (t2 -. t0);
  clock.since <- unpaused ()

let set_timer p = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = p; it_value = p })

let start_clock () =
  probe ();
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> probe ()));
  set_timer period

let stop_clock () =
  set_timer 0.;
  Sys.set_signal Sys.sigalrm Sys.Signal_ignore

(* ---------------- counters ---------------- *)

(* The registry's only public reader is its text snapshot: one
   "name value" line per counter or gauge (histogram lines carry
   key=value fields and are skipped). *)
let counters () =
  String.split_on_char '\n' (Trace.Metrics.snapshot_text ())
  |> List.filter_map (fun line ->
         match List.filter (( <> ) "") (String.split_on_char ' ' line) with
         | [ name; v ] -> Option.map (fun f -> (name, f)) (float_of_string_opt v)
         | _ -> None)

let delta ~before ~after name =
  let get l = Option.value ~default:0. (List.assoc_opt name l) in
  get after -. get before

(* ---------------- statistics ---------------- *)

let sorted l = List.sort Float.compare l

(* nearest-rank quantile; 0. for an empty sample *)
let quantile q l =
  match sorted l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    List.nth s (max 0 (min (n - 1) i))

let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let median l =
  match sorted l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* ---------------- host phases ---------------- *)

(* Host seconds per named phase of one pass. *)
type phases = (string, float) Hashtbl.t

let phases () : phases = Hashtbl.create 8

let timed (p : phases) name f =
  let t0 = host_now () in
  Fun.protect
    ~finally:(fun () ->
      let d = host_now () -. t0 in
      Hashtbl.replace p name (d +. Option.value ~default:0. (Hashtbl.find_opt p name)))
    f

let phase (p : phases) name = Option.value ~default:0. (Hashtbl.find_opt p name)

(* ---------------- streaming trace aggregation ---------------- *)

(* Keeps only what the per-layer metrics need, so the millions of "net"
   events of an MPI run are dropped, never stored. *)
type agg = {
  spans : (string, float list) Hashtbl.t;  (* dmtcp stage span -> durations *)
  barrier_at : (int * int, float) Hashtbl.t;  (* (node, pid) -> barrier arrival *)
  mutable barrier_waits : float list;
}

let agg () = { spans = Hashtbl.create 16; barrier_at = Hashtbl.create 64; barrier_waits = [] }

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* A manager announces "mgr/barrier" when it reaches a barrier and its
   next phase ("mgr/elect", ..., "mgr/resume") when the coordinator
   releases it: the gap is that process's wait on the barrier.  A
   "mgr/suspend" opens a new checkpoint and pairs with nothing. *)
let on_manager_phase a (ev : Trace.event) =
  let key = (ev.Trace.node, ev.Trace.pid) in
  (match Hashtbl.find_opt a.barrier_at key with
  | Some t0 ->
    Hashtbl.remove a.barrier_at key;
    if ev.Trace.name <> "mgr/suspend" then a.barrier_waits <- (ev.Trace.time -. t0) :: a.barrier_waits
  | None -> ());
  if ev.Trace.name = "mgr/barrier" then Hashtbl.replace a.barrier_at key ev.Trace.time

let sink a =
  {
    Trace.emit =
      (fun ev ->
        if String.equal ev.Trace.cat "dmtcp" then
          match ev.Trace.kind with
          | Trace.Span d ->
            let l = Option.value ~default:[] (Hashtbl.find_opt a.spans ev.Trace.name) in
            Hashtbl.replace a.spans ev.Trace.name (d :: l)
          | Trace.Instant when starts_with ~prefix:"mgr/" ev.Trace.name -> on_manager_phase a ev
          | _ -> ());
  }

let span_median a name = median (Option.value ~default:[] (Hashtbl.find_opt a.spans name))
