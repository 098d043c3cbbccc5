(* Rank-image shape under the rank/proxy split.  The kill-mid-collective
   scenarios themselves are rows of [Fixture.scenarios]; `dmtcp_sim mpi
   run` and the micro benchmark read the same image statistics. *)

module Common = Harness.Common

(* decode every image the restart script names: (established socket
   specs, drained bytes) summed over the job's rank images *)
let image_stats env (script : Dmtcp.Restart_script.t) =
  List.fold_left
    (fun (estab, drained) (host, paths) ->
      List.fold_left
        (fun (estab, drained) path ->
          match Common.read_file env ~node:host path with
          | None -> (estab, drained)
          | Some bytes ->
            let image = Dmtcp.Ckpt_image.decode bytes in
            List.fold_left
              (fun (estab, drained) (_, _, info) ->
                match info with
                | Dmtcp.Ckpt_image.FSock { state = Dmtcp.Ckpt_image.S_established; drained = d; _ }
                  ->
                  (estab + 1, drained + String.length d)
                | Dmtcp.Ckpt_image.FSock { drained = d; _ } -> (estab, drained + String.length d)
                | _ -> (estab, drained))
              (estab, drained) image.Dmtcp.Ckpt_image.fds)
        (estab, drained) paths)
    (0, 0) script.Dmtcp.Restart_script.entries
