(* Rank-image shape under the rank/proxy split.  The kill-mid-collective
   scenarios themselves are rows of [Fixture.scenarios]; `dmtcp_sim mpi
   run` and the micro benchmark read the same image statistics. *)

(* decode every image the restart script names, on its host: (established
   socket specs, drained bytes) summed over the job's rank images *)
let image_stats env (script : Dmtcp.Restart_script.t) =
  List.fold_left
    (fun acc (host, paths) ->
      List.fold_left
        (fun (estab, drained) path ->
          match Harness.Common.read_file env ~node:host path with
          | None -> (estab, drained)
          | Some bytes ->
            let e, d = Dmtcp.Ckpt_image.(socket_stats (decode bytes)) in
            (estab + e, drained + d))
        acc paths)
    (0, 0) script.Dmtcp.Restart_script.entries
