let is_enabled (ctx : Simos.Program.ctx) = ctx.getenv Options.hijack_key <> None

(* the runtime of this process's cluster, when the process runs under
   DMTCP and one is installed *)
let runtime (ctx : Simos.Program.ctx) = if is_enabled ctx then Runtime.find ctx else None

let with_runtime ctx f = Option.iter f (runtime ctx)

let delay_checkpoints (ctx : Simos.Program.ctx) =
  with_runtime ctx (fun rt -> Runtime.enter_critical rt ~node:ctx.node_id ~pid:ctx.pid)

let allow_checkpoints (ctx : Simos.Program.ctx) =
  with_runtime ctx (fun rt -> Runtime.leave_critical rt ~node:ctx.node_id ~pid:ctx.pid)

let request_checkpoint (ctx : Simos.Program.ctx) =
  with_runtime ctx (fun rt ->
      let k = Runtime.kernel_of rt ~node:ctx.node_id in
      ignore
        (Simos.Kernel.spawn k ~prog:Launcher.command_name
           ~argv:[ "--checkpoint" ]
           ~env:(Options.to_env (Runtime.options rt))
           ()))

let last_known_status ctx = Option.bind (runtime ctx) Runtime.last_status

let set_hooks rt ~prog ?pre_ckpt ?post_ckpt () =
  Hashtbl.replace (Runtime.aware_hooks rt) prog (pre_ckpt, post_ckpt)

let run_pre_ckpt rt ~prog =
  match Hashtbl.find_opt (Runtime.aware_hooks rt) prog with
  | Some (Some f, _) -> f ()
  | _ -> ()

let run_post_ckpt rt ~prog =
  match Hashtbl.find_opt (Runtime.aware_hooks rt) prog with
  | Some (_, Some f) -> f ()
  | _ -> ()
