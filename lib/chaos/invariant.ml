(* Invariant checkers for the chaos harness.

   Each checker returns a list of human-readable violations (empty =
   invariant holds).  They are pure observers: they never mutate
   simulation state, so running them from a [Dmtcp.Faults.on_stage]
   callback is safe. *)

let sprintf = Printf.sprintf

(* At the write stage (between global barriers 3 and 4) every drained
   connection must be quiet: the drain stage's flush tokens guarantee
   that no checkpointed socket still holds bytes in its receive buffer,
   its send buffer, or in flight on the wire (paper §4.3 step 4).  Any
   residue here would be lost by the checkpoint image. *)
let drain_residue rt =
  let check_proc (node, pid, (ps : Dmtcp.Runtime.pstate)) =
    match Dmtcp.Runtime.proc_of rt ~node ~pid with
    | None -> []
    | Some proc ->
      Dmtcp.Conn_table.entries ps.Dmtcp.Runtime.conns
      |> List.concat_map (fun (fd, _entry) ->
             match Simos.Kernel.fd_desc proc fd with
             | Some { Simos.Fdesc.kind = Simos.Fdesc.Sock s; _ }
               when Simnet.Fabric.state s = Simnet.Fabric.Established
                    && Dmtcp.Runtime.peer_entry rt s <> None ->
               let r = Simnet.Fabric.recv_buffered s in
               let w = Simnet.Fabric.send_buffered s in
               let fl = Simnet.Fabric.in_flight s in
               if r + w + fl > 0 then
                 [
                   sprintf
                     "drain residue at write stage: node %d pid %d fd %d still holds %d recv + \
                      %d send + %d in-flight bytes"
                     node pid fd r w fl;
                 ]
               else []
             | _ -> [])
  in
  List.concat_map check_proc (Dmtcp.Runtime.hijacked_processes rt)

(* Connection-table hygiene: every entry points at a live fd of socket
   kind with the recorded open-file-description id, and every
   established socket's peer endpoint is owned by some checkpointed
   process (no dangling socket ids that a restart could never
   rewire). *)
let conn_tables rt =
  let check_proc (node, pid, (ps : Dmtcp.Runtime.pstate)) =
    match Dmtcp.Runtime.proc_of rt ~node ~pid with
    | None -> [ sprintf "conn-table: pstate registered for dead process node %d pid %d" node pid ]
    | Some proc ->
      Dmtcp.Conn_table.entries ps.Dmtcp.Runtime.conns
      |> List.concat_map (fun (fd, (entry : Dmtcp.Conn_table.entry)) ->
             match Simos.Kernel.fd_desc proc fd with
             | None ->
               [ sprintf "conn-table: node %d pid %d fd %d has an entry but no open fd" node pid fd ]
             | Some desc ->
               if desc.Simos.Fdesc.desc_id <> entry.Dmtcp.Conn_table.desc_id then
                 [
                   sprintf
                     "conn-table: node %d pid %d fd %d description id mismatch (table %d, kernel %d)"
                     node pid fd entry.Dmtcp.Conn_table.desc_id desc.Simos.Fdesc.desc_id;
                 ]
               else (
                 match desc.Simos.Fdesc.kind with
                 | Simos.Fdesc.Sock s
                   when Simnet.Fabric.state s = Simnet.Fabric.Established
                        && Dmtcp.Runtime.peer_entry rt s = None
                        && not (Simnet.Fabric.peer_gone s) ->
                   (* a half-closed socket legitimately has no peer entry:
                      its stream ends at the in-flight FIN *)
                   [
                     sprintf
                       "conn-table: node %d pid %d fd %d: established socket's peer is not owned \
                        by any checkpointed process (dangling socket id)"
                       node pid fd;
                   ]
                 | Simos.Fdesc.Sock _ -> []
                 | _ ->
                   [
                     sprintf "conn-table: node %d pid %d fd %d entry points at a %s, not a socket"
                       node pid fd (Simos.Fdesc.kind_name desc);
                   ]))
  in
  List.concat_map check_proc (Dmtcp.Runtime.hijacked_processes rt)

(* Replicated-store hygiene: every block referenced by a catalog
   manifest must still exist in the block table, match its
   content-address, and keep at least one replica on a surviving node —
   otherwise the store claims a restart point it can no longer produce.
   Vacuously holds when the runtime was installed without the store. *)
let store_replication rt =
  match Dmtcp.Runtime.store rt with
  | None -> []
  | Some store -> List.map (fun e -> "store: " ^ e) (Store.verify store)

(* After a scenario completes and the fabric settles, nothing must be
   leaked: no checkpointed process still alive, no stray non-coordinator
   process, exactly one coordinator, and the coordinator itself holding
   only its listening socket (all dead client fds reaped). *)
let quiescent (env : Harness.Common.env) =
  let leftovers = Dmtcp.Runtime.hijacked_processes env.Harness.Common.rt in
  let leak =
    if leftovers = [] then []
    else
      [
        sprintf "leak: %d checkpointed process(es) still alive after completion: %s"
          (List.length leftovers)
          (String.concat ", "
             (List.map (fun (n, p, _) -> sprintf "node %d pid %d" n p) leftovers));
      ]
  in
  let coords = ref 0 in
  let coord_fds = ref 0 in
  let strangers = ref [] in
  List.iter
    (fun ((k : Simos.Kernel.t), (p : Simos.Kernel.process)) ->
      match p.Simos.Kernel.cmdline with
      | prog :: _ when prog = Dmtcp.Coordinator.name ->
        incr coords;
        coord_fds := !coord_fds + Simos.Kernel.Fdtbl.length p.Simos.Kernel.fdtable
      | prog :: _ ->
        strangers :=
          sprintf "node %d pid %d (%s)" (Simos.Kernel.node_id k) p.Simos.Kernel.pid prog
          :: !strangers
      | [] ->
        strangers :=
          sprintf "node %d pid %d (<anonymous>)" (Simos.Kernel.node_id k) p.Simos.Kernel.pid
          :: !strangers)
    (Simos.Cluster.all_processes env.Harness.Common.cl);
  let coord_violation =
    if !coords > 1 then [ sprintf "leak: %d coordinators alive after completion" !coords ]
    else if !coords = 1 && !coord_fds > 2 then
      (* listening socket only (one slot of slack for an accept raced
         with our final settle window) *)
      [ sprintf "fd leak: coordinator holds %d fds after completion" !coord_fds ]
    else []
  in
  leak @ (if !strangers = [] then [] else [ sprintf "leak: stray processes after completion: %s" (String.concat ", " !strangers) ]) @ coord_violation
