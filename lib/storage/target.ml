type disk = {
  raw_rate : float;
  cached_rate : float;
  cache_bytes : int;
  read_rate : float;
  mutable cache_used : int;
  mutable dirty : int;
}

type san_t = { rate : float; latency : float }

type kind =
  | Disk of disk
  | San of san_t
  | Nfs of { server_rate : float; backend : t }

and t = {
  eng : Sim.Engine.t;
  kind : kind;
  mutable free_at : float;  (* serialization cursor for concurrent writers *)
  mutable slowdown : float; (* fault-injection service-time multiplier *)
  mutable node : int;       (* owning node for trace events; -1 = shared/global *)
}

let set_node t node = t.node <- node

let m_write_bytes = Trace.Metrics.counter "storage.write_bytes"
let m_read_bytes = Trace.Metrics.counter "storage.read_bytes"
let m_write_seconds = Trace.Metrics.counter "storage.write_seconds"
let m_read_seconds = Trace.Metrics.counter "storage.read_seconds"

let trace_io t name ~bytes ~delay =
  if Trace.on () then
    Trace.instant ~node:t.node ~cat:"storage" ~name
      ~args:
        [
          ("dev", match t.kind with Disk _ -> "disk" | San _ -> "san" | Nfs _ -> "nfs");
          ("bytes", string_of_int bytes);
          ("delay", Printf.sprintf "%.9f" delay);
        ]
      ~time:(Sim.Engine.now t.eng) ()

let local_disk eng ?(raw_rate = 100e6) ?(cached_rate = 350e6) ?(cache_bytes = 6_000_000_000)
    ?(read_rate = 300e6) () =
  {
    eng;
    kind = Disk { raw_rate; cached_rate; cache_bytes; read_rate; cache_used = 0; dirty = 0 };
    free_at = 0.;
    slowdown = 1.;
    node = -1;
  }

let san eng ?(rate = 400e6) ?(latency = 1e-3) () =
  { eng; kind = San { rate; latency }; free_at = 0.; slowdown = 1.; node = -1 }

let nfs eng ?(server_rate = 117e6 *. 0.6) ~backend () =
  { eng; kind = Nfs { server_rate; backend }; free_at = 0.; slowdown = 1.; node = -1 }

(* Fault injection: a degraded device multiplies every booked service
   interval; [factor = 1.] restores nominal speed. *)
let set_slowdown t factor = t.slowdown <- Float.max 1. factor

let describe t =
  match t.kind with
  | Disk _ -> "local disk"
  | San _ -> "SAN"
  | Nfs _ -> "NFS"

(* Book [seconds] of service on the target's cursor starting no earlier
   than now; returns the delay from now until completion. *)
let book t seconds =
  let seconds = seconds *. t.slowdown in
  let now = Sim.Engine.now t.eng in
  let start = Float.max now t.free_at in
  t.free_at <- start +. seconds;
  start -. now +. seconds

let rec write_booked t ~bytes =
  match t.kind with
  | Disk d ->
    let cached = min bytes (d.cache_bytes - d.cache_used) in
    let uncached = bytes - cached in
    d.cache_used <- d.cache_used + cached;
    d.dirty <- d.dirty + cached;
    book t ((float_of_int cached /. d.cached_rate) +. (float_of_int uncached /. d.raw_rate))
  | San s -> s.latency +. book t (float_of_int bytes /. s.rate)
  | Nfs { server_rate; backend } ->
    let network = book t (float_of_int bytes /. server_rate) in
    network +. write_booked backend ~bytes

let write t ~bytes =
  let delay = write_booked t ~bytes in
  Trace.Metrics.add m_write_bytes (float_of_int bytes);
  Trace.Metrics.add m_write_seconds delay;
  trace_io t "write" ~bytes ~delay;
  delay

let rec read_booked t ~bytes =
  match t.kind with
  | Disk d -> book t (float_of_int bytes /. d.read_rate)
  | San s -> s.latency +. book t (float_of_int bytes /. s.rate)
  | Nfs { server_rate; backend } ->
    let network = book t (float_of_int bytes /. server_rate) in
    network +. read_booked backend ~bytes

let read t ~bytes =
  let delay = read_booked t ~bytes in
  Trace.Metrics.add m_read_bytes (float_of_int bytes);
  Trace.Metrics.add m_read_seconds delay;
  trace_io t "read" ~bytes ~delay;
  delay

let sync t =
  match t.kind with
  | Disk d ->
    let dur = float_of_int d.dirty /. d.raw_rate in
    d.dirty <- 0;
    dur
  | San _ | Nfs _ -> 0.

let dirty_bytes t =
  match t.kind with
  | Disk d -> d.dirty
  | San _ | Nfs _ -> 0

let rec reset t =
  t.free_at <- 0.;
  t.slowdown <- 1.;
  match t.kind with
  | Disk d ->
    d.cache_used <- 0;
    d.dirty <- 0
  | San _ -> ()
  | Nfs { backend; _ } -> reset backend
