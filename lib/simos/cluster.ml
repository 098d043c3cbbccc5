type storage_config = Local_disks | San_and_nfs of { direct_nodes : int }

type t = {
  eng : Sim.Engine.t;
  fab : Simnet.Fabric.t;
  disc : Simnet.Discovery.t;
  kernels : Kernel.t array;
  targets : Storage.Target.t array;
  up : bool array;  (* administrative node view: false after fail_node *)
  local : Local.t;  (* the run store its kernels and their ctxs share *)
}

let create ?(seed = 0xC1A5_7E2L) ?latency ?bandwidth ?(cores_per_node = 4)
    ?(storage = Local_disks) ~nodes () =
  let eng = Sim.Engine.create () in
  let fab = Simnet.Fabric.create eng ?latency ?bandwidth ~nhosts:nodes () in
  let disc = Simnet.Discovery.create () in
  let targets =
    match storage with
    | Local_disks ->
      Array.init nodes (fun i ->
          let t = Storage.Target.local_disk eng () in
          Storage.Target.set_node t i;
          t)
    | San_and_nfs { direct_nodes } ->
      (* the SAN is shared — its trace events stay node-less *)
      let san = Storage.Target.san eng () in
      (* one NFS server fronts it: the clients share its NIC, so
         concurrent writers queue on the aggregate server rate rather
         than each seeing a private server_rate *)
      let nfs = Storage.Target.nfs eng ~backend:san () in
      Array.init nodes (fun i -> if i < direct_nodes then san else nfs)
  in
  let local = Local.create () in
  let ids = Kernel.ids () in
  let kernels =
    Array.init nodes (fun i ->
        Kernel.create ~node_id:i ~engine:eng ~fabric:fab ~storage:targets.(i) ~local ~ids
          ~cores:cores_per_node
          ~seed:(Int64.add seed (Int64.of_int (31 * (i + 1))))
          ())
  in
  Array.iter (fun k -> Kernel.set_peers k kernels) kernels;
  { eng; fab; disc; kernels; targets; up = Array.make nodes true; local }

let engine t = t.eng
let fabric t = t.fab
let discovery t = t.disc
let local t = t.local
let nodes t = Array.length t.kernels
let kernel t i = t.kernels.(i)
let kernels t = t.kernels
let set_hooks t hooks = Array.iter (fun k -> Kernel.set_hooks k hooks) t.kernels
let run ?until t = Sim.Engine.run ?until t.eng
let now t = Sim.Engine.now t.eng

let target t i = t.targets.(i)

(* Fail-stop node crash: every process on the node dies as if the machine
   lost power.  Exit hooks still run (the DMTCP runtime unregisters the
   victims); peers observe connection resets/EOF. *)
let crash_node t i = List.iter (fun p -> Kernel.kill_process t.kernels.(i) p) (Kernel.processes t.kernels.(i))

(* Administrative node view.  [crash_node] models a reboot (processes die,
   node returns); [fail_node] additionally marks the node down for good,
   so schedulers stop placing work there. *)
let node_up t i = t.up.(i)

let up_nodes t =
  Array.to_list (Array.mapi (fun i u -> (i, u)) t.up)
  |> List.filter_map (fun (i, u) -> if u then Some i else None)

let fail_node t i =
  t.up.(i) <- false;
  crash_node t i

let all_processes t =
  Array.to_list t.kernels
  |> List.concat_map (fun k -> List.map (fun p -> (k, p)) (Kernel.processes k))

let reset_storage t = Array.iter Storage.Target.reset t.targets
