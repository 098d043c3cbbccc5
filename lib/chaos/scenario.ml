(* Seeded scenario generation.

   One [Util.Rng] seed determines everything about a torture scenario:
   the workload (which checkpointable programs run where, reusing the
   harness workload descriptor), the checkpoint request times, and the
   fault schedule.  Replaying a seed replays the scenario exactly;
   shrinking filters the fault schedule by index while keeping the same
   seed, so a minimal reproducer is "seed + kept fault indices". *)

type fault =
  | Kill_at_stage of { victim : int; stage : Dmtcp.Faults.stage }
      (* arm a kill for the [victim mod nprocs]-th checkpointed process;
         it fires when that process reaches [stage] of a checkpoint *)
  | Crash_node of { node : int }
  | Partition of { a : int; b : int; heal_after : float }
  | Latency_spike of { a : int; b : int; factor : float; duration : float }
  | Slow_disk of { node : int; factor : float; duration : float }
  | Packet_loss of { prob : float; duration : float }

type event = { ev_at : float; ev_fault : fault }

type t = {
  sc_seed : int;
  sc_nodes : int;
  sc_workload : Harness.Common.workload;
  sc_launches : (int * string * string list) list;  (* node, prog, argv *)
  sc_outputs : (int * string) list;  (* node, verdict-file path *)
  sc_ckpts : float list;  (* checkpoint requests, offsets from settle *)
  sc_events : event list;  (* fault schedule, offsets from settle *)
  sc_deadline : float;  (* virtual-time budget after settle *)
}

(* Small clusters keep scenarios fast while still crossing real links. *)
let nodes = 4

let fault_to_string = function
  | Kill_at_stage { victim; stage } ->
    Printf.sprintf "kill proc#%d at %s" victim (Dmtcp.Faults.stage_name stage)
  | Crash_node { node } -> Printf.sprintf "crash node %d" node
  | Partition { a; b; heal_after } ->
    Printf.sprintf "partition %d<->%d for %.2fs" a b heal_after
  | Latency_spike { a; b; factor; duration } ->
    Printf.sprintf "latency x%.0f on %d<->%d for %.2fs" factor a b duration
  | Slow_disk { node; factor; duration } ->
    Printf.sprintf "disk x%.0f slower on node %d for %.2fs" factor node duration
  | Packet_loss { prob; duration } ->
    Printf.sprintf "%.0f%% segment loss for %.2fs" (100. *. prob) duration

let describe t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "seed %d: %s, ckpts at [%s]" t.sc_seed t.sc_workload.Harness.Common.w_name
       (String.concat "; " (List.map (Printf.sprintf "%.2f") t.sc_ckpts)));
  if t.sc_events = [] then Buffer.add_string b ", no faults"
  else
    List.iteri
      (fun i e ->
        Buffer.add_string b
          (Printf.sprintf ", fault[%d]@%.2f: %s" i e.ev_at (fault_to_string e.ev_fault)))
      t.sc_events;
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let mk_workload name nprocs =
  {
    Harness.Common.w_name = name;
    w_kind = Harness.Common.Plain;
    w_prog = "";
    w_nprocs = nprocs;
    w_rpn = 1;
    w_extra = [];
    w_warmup = 0.;
  }

let sample_workload rng =
  let port = 6000 + Util.Rng.int rng 100 in
  let counter i =
    let node = Util.Rng.int rng nodes in
    let target = Util.Rng.int_in rng 600 2400 in
    let out = Printf.sprintf "/chaos/out%d" i in
    ((node, "p:counter", [ string_of_int target; out ]), (node, out))
  in
  let stream i =
    let server = Util.Rng.int rng nodes in
    let client = Util.Rng.int rng nodes in
    let count = Util.Rng.int_in rng 1500 5000 in
    let out = Printf.sprintf "/chaos/out%d" i in
    ( [
        (server, "p:stream-server", [ string_of_int port; string_of_int count; out ]);
        (client, "p:stream-client", [ string_of_int server; string_of_int port; string_of_int count ]);
      ],
      (server, out) )
  in
  let pipeline i =
    let node = Util.Rng.int rng nodes in
    let count = Util.Rng.int_in rng 600 3000 in
    let out = Printf.sprintf "/chaos/out%d" i in
    ((node, "p:pipeline", [ string_of_int count; out ]), (node, out))
  in
  match Util.Rng.int rng 4 with
  | 0 ->
    let n = 1 + Util.Rng.int rng 3 in
    let picked = List.init n counter in
    ( mk_workload (Printf.sprintf "counters-%d" n) n,
      List.map fst picked,
      List.map snd picked )
  | 1 ->
    let launches, out = stream 0 in
    (mk_workload "stream" 2, launches, [ out ])
  | 2 ->
    let launch, out = pipeline 0 in
    (mk_workload "pipeline" 2, [ launch ], [ out ])
  | _ ->
    let c_launch, c_out = counter 0 in
    let s_launches, s_out = stream 1 in
    (mk_workload "mixed" 3, (c_launch :: s_launches), [ c_out; s_out ])

let sample_fault rng ~ckpts =
  let at = 0.05 +. Util.Rng.float rng 1.2 in
  match Util.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 ->
    (* kills target a checkpoint in flight: arm just before a sampled
       checkpoint request so the stage is actually reached *)
    let stage = Util.Rng.choose rng (Array.of_list Dmtcp.Faults.all_stages) in
    let victim = Util.Rng.int rng 8 in
    let ck = Util.Rng.choose rng (Array.of_list ckpts) in
    { ev_at = Float.max 0.01 (ck -. 0.01); ev_fault = Kill_at_stage { victim; stage } }
  | 4 ->
    { ev_at = at; ev_fault = Crash_node { node = Util.Rng.int rng nodes } }
  | 5 ->
    let a = Util.Rng.int rng nodes in
    let b = (a + 1 + Util.Rng.int rng (nodes - 1)) mod nodes in
    (* heal within the manager's 1 s reconnect budget so a partition can
       delay but never permanently orphan a restart *)
    { ev_at = at; ev_fault = Partition { a; b; heal_after = 0.1 +. Util.Rng.float rng 0.4 } }
  | 6 ->
    let a = Util.Rng.int rng nodes in
    let b = (a + 1 + Util.Rng.int rng (nodes - 1)) mod nodes in
    {
      ev_at = at;
      ev_fault =
        Latency_spike
          { a; b; factor = 2. +. Util.Rng.float rng 20.; duration = 0.2 +. Util.Rng.float rng 0.6 };
    }
  | 7 ->
    {
      ev_at = at;
      ev_fault =
        Slow_disk
          {
            node = Util.Rng.int rng nodes;
            factor = 3. +. Util.Rng.float rng 30.;
            duration = 0.3 +. Util.Rng.float rng 1.0;
          };
    }
  | _ ->
    {
      ev_at = at;
      ev_fault =
        Packet_loss
          { prob = 0.05 +. Util.Rng.float rng 0.3; duration = 0.2 +. Util.Rng.float rng 0.8 };
    }

let sample ~seed =
  let rng = Util.Rng.create (Int64.add 0x5EED_CAFEL (Int64.of_int seed)) in
  let workload, launches, outputs = sample_workload rng in
  let nck = 1 + Util.Rng.int rng 2 in
  let t1 = 0.1 +. Util.Rng.float rng 0.6 in
  let ckpts =
    if nck = 1 then [ t1 ] else [ t1; t1 +. 0.25 +. Util.Rng.float rng 0.6 ]
  in
  let nfaults = Util.Rng.int rng 4 in
  let events = List.init nfaults (fun _ -> sample_fault rng ~ckpts) in
  {
    sc_seed = seed;
    sc_nodes = nodes;
    sc_workload = workload;
    sc_launches = launches;
    sc_outputs = outputs;
    sc_ckpts = ckpts;
    sc_events = events;
    sc_deadline = 30.;
  }

(* Keep only the fault events whose index is in [keep] (shrinking). *)
let with_faults t keep =
  { t with sc_events = List.filteri (fun i _ -> List.mem i keep) t.sc_events }
