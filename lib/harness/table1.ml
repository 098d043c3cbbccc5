type stages = (string * float) list

type result = {
  ckpt_uncompressed : stages;
  ckpt_compressed : stages;
  ckpt_forked : stages;
  restart_uncompressed : stages;
  restart_compressed : stages;
}

(* Stage durations come from the trace: the "dmtcp" spans each process
   emits for the stages it ran ([Dmtcp.Faults.span]) are their only
   record, so querying the trace here yields the same numbers the
   [dmtcp_sim trace] CLI reports.  The restart refill row is the
   re-injection alone, as the paper's: restart/refill-barrier is not in
   the table. *)
let stage_means events =
  Trace.Query.stage_stats ~cat:"dmtcp" events
  |> List.map (fun (name, s) -> (name, Util.Stats.mean s))

let with_env ~algo ~forked ~nprocs f =
  let options = { Dmtcp.Options.default with Dmtcp.Options.algo; forked } in
  let env = Common.setup ~nodes:8 ~options () in
  let w =
    {
      Common.w_name = "mg-table1";
      w_kind = Common.Openmpi;
      w_prog = "nas:mg";
      w_nprocs = nprocs;
      w_rpn = (nprocs + 7) / 8;
      w_extra = [ "1000000" ];
      w_warmup = 1.0;
    }
  in
  Common.start_workload env w;
  let coll = Trace.collector () in
  let r = Trace.with_sink (Trace.collector_sink coll) (fun () -> f env) in
  Common.teardown env;
  (r, Trace.events coll)

let forked_pending rt =
  List.exists
    (fun (_, _, ps) -> ps.Dmtcp.Runtime.forked_pending)
    (Dmtcp.Runtime.hijacked_processes rt)

(* With [forked] on, a round starts once the previous round's children
   have landed their images, or after [forked_landing] simulated
   seconds: at most one child is in flight, so an earlier start would
   make the write stage wait for the last child instead of timing the
   forked pause. *)
let forked_landing = 60.

let measure_ckpt_stages ~algo ~forked ~reps ~nprocs =
  let (), events =
    with_env ~algo ~forked ~nprocs (fun env ->
        for _ = 1 to reps do
          if forked then
            Common.run_until ~every:0.01 env ~timeout:forked_landing (fun () ->
                not (forked_pending env.Common.rt));
          Simos.Cluster.reset_storage env.Common.cl;
          Common.run_for env 0.3;
          Dmtcp.Api.checkpoint_now env.Common.rt
        done)
  in
  stage_means events

let measure_restart_stages ~algo ~reps ~nprocs =
  let (), events =
    with_env ~algo ~forked:false ~nprocs (fun env ->
        for _ = 1 to reps do
          Simos.Cluster.reset_storage env.Common.cl;
          Common.run_for env 0.3;
          Dmtcp.Api.checkpoint_now env.Common.rt;
          let script = Dmtcp.Api.restart_script env.Common.rt in
          Dmtcp.Api.kill_computation env.Common.rt;
          Simos.Cluster.reset_storage env.Common.cl;
          Dmtcp.Api.restart env.Common.rt script;
          Dmtcp.Api.await_restart env.Common.rt;
          Common.run_for env 0.5
        done)
  in
  stage_means events

let run ?(reps = 3) ?(nprocs = 32) () =
  {
    ckpt_uncompressed = measure_ckpt_stages ~algo:Compress.Algo.Null ~forked:false ~reps ~nprocs;
    ckpt_compressed = measure_ckpt_stages ~algo:Compress.Algo.Deflate ~forked:false ~reps ~nprocs;
    ckpt_forked = measure_ckpt_stages ~algo:Compress.Algo.Deflate ~forked:true ~reps ~nprocs;
    restart_uncompressed = measure_restart_stages ~algo:Compress.Algo.Null ~reps ~nprocs;
    restart_compressed = measure_restart_stages ~algo:Compress.Algo.Deflate ~reps ~nprocs;
  }

let get stages name = match List.assoc_opt name stages with Some v -> v | None -> 0.

let fmt v = Printf.sprintf "%.4f" v

let to_text r =
  let ckpt_stage_names =
    [
      ("Suspend user threads", "ckpt/suspend");
      ("Elect FD leaders", "ckpt/elect");
      ("Drain kernel buffers", "ckpt/drain");
      ("Write checkpoint", "ckpt/write");
      ("Refill kernel buffers", "ckpt/refill");
    ]
  in
  let ckpt_rows =
    List.map
      (fun (label, key) ->
        [ label; fmt (get r.ckpt_uncompressed key); fmt (get r.ckpt_compressed key); fmt (get r.ckpt_forked key) ])
      ckpt_stage_names
    @ [
        (let total s = List.fold_left (fun acc (_, key) -> acc +. get s key) 0. ckpt_stage_names in
         [ "Total"; fmt (total r.ckpt_uncompressed); fmt (total r.ckpt_compressed); fmt (total r.ckpt_forked) ]);
      ]
  in
  let restart_stage_names =
    [
      ("Restore files and ptys", "restart/files");
      ("Reconnect sockets", "restart/reconnect");
      ("Restore memory/threads", "restart/mem");
      ("Refill kernel buffers", "restart/refill");
    ]
  in
  let restart_rows =
    List.map
      (fun (label, key) ->
        [ label; fmt (get r.restart_uncompressed key); fmt (get r.restart_compressed key) ])
      restart_stage_names
    @ [
        (let total s =
           List.fold_left (fun acc (_, key) -> acc +. get s key) 0. restart_stage_names
         in
         [ "Total"; fmt (total r.restart_uncompressed); fmt (total r.restart_compressed) ]);
      ]
  in
  "== Table 1a: Checkpoint stage breakdown, NAS/MG under OpenMPI (s) ==\n"
  ^ Util.Table.render ~header:[ "Stage"; "Uncompressed"; "Compressed"; "Fork Compr." ] ckpt_rows
  ^ "\n== Table 1b: Restart stage breakdown (s) ==\n"
  ^ Util.Table.render ~header:[ "Stage"; "Uncompressed"; "Compressed" ] restart_rows
