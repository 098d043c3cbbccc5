(* A small, fixed checkpoint/restart scenario whose trace the [trace]
   subcommand renders.  Everything is virtual-time deterministic, so two
   runs produce byte-identical JSONL and metrics snapshots — which is
   exactly what `dmtcp_sim trace --check-determinism` asserts. *)

let workload =
  {
    Common.w_name = "trace-demo";
    w_kind = Common.Openmpi;
    w_prog = "nas:mg";
    w_nprocs = 4;
    w_rpn = 1;
    w_extra = [ "1000000" ];
    w_warmup = 0.5;
  }

let run (options : Dmtcp.Options.t) =
  Trace.Metrics.reset ();
  let coll = Trace.collector () in
  Trace.with_sink (Trace.collector_sink coll) (fun () ->
      let env = Common.setup ~nodes:4 ~options () in
      Common.start_workload env workload;
      Common.run_for env 0.3;
      Dmtcp.Api.checkpoint_now env.Common.rt;
      if options.Dmtcp.Options.incremental then begin
        (* chain two deltas onto the full base, so the traced restart
           resolves a depth-2 chain *)
        Common.run_for env 0.2;
        Dmtcp.Api.checkpoint_now env.Common.rt;
        Common.run_for env 0.2;
        Dmtcp.Api.checkpoint_now env.Common.rt
      end;
      let script = Dmtcp.Api.restart_script env.Common.rt in
      Dmtcp.Api.kill_computation env.Common.rt;
      Simos.Cluster.reset_storage env.Common.cl;
      Dmtcp.Api.restart env.Common.rt script;
      Dmtcp.Api.await_restart env.Common.rt;
      Common.run_for env 0.3;
      Common.teardown env);
  (Trace.events coll, Trace.Metrics.snapshot_text ())
