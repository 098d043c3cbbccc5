module W = Util.Codec.Writer
module R = Util.Codec.Reader

let prog_name = "apps:desktop"

type profile = {
  p_name : string;
  mb : float;
  mix : Workload_mem.mix;
  threads : int;
  children : string list;
  pty : bool;
  regions : int;
}

(* Resident sizes are tuned so that the *compressed* image sizes land near
   Figure 3b (which reports sizes with compression enabled). *)
let interp name mb =
  { p_name = name; mb = mb *. 1.6; mix = Workload_mem.mostly_text; threads = 0; children = []; pty = true; regions = 6 }

let numeric name mb threads =
  { p_name = name; mb = mb *. 1.6; mix = Workload_mem.mostly_numeric; threads; children = []; pty = true; regions = 12 }

let figure3 =
  [
    interp "bc" 1.4;
    { (interp "emacs" 13.0) with mix = Workload_mem.mostly_code; regions = 20 };
    interp "ghci" 7.5;
    { (interp "ghostscript" 9.0) with mix = Workload_mem.mostly_code };
    { (numeric "gnuplot" 3.4 0) with regions = 8 };
    interp "gst" 5.0;
    { (interp "lynx" 3.2) with pty = true };
    numeric "macaulay2" 8.0 0;
    { (numeric "matlab" 34.0 3) with regions = 30 };
    interp "mzscheme" 4.2;
    interp "ocaml" 3.6;
    numeric "octave" 9.5 0;
    interp "perl" 4.1;
    interp "php" 6.0;
    interp "python" 5.2;
    interp "ruby" 4.3;
    interp "slsh" 2.4;
    interp "sqlite" 1.9;
    interp "tclsh" 2.1;
    {
      p_name = "tightvnc+twm";
      mb = 22.0;
      mix = Workload_mem.mostly_code;
      threads = 1;
      children = [ "twm"; "xterm" ];
      pty = false;
      regions = 16;
    };
    {
      p_name = "vim/cscope";
      mb = 5.5;
      mix = Workload_mem.mostly_text;
      threads = 0;
      children = [ "cscope" ];
      pty = true;
      regions = 6;
    };
  ]

(* internal child profiles *)
let extras =
  [
    { p_name = "twm"; mb = 4.0; mix = Workload_mem.mostly_code; threads = 0; children = []; pty = false; regions = 6 };
    { p_name = "xterm"; mb = 3.0; mix = Workload_mem.mostly_code; threads = 0; children = []; pty = true; regions = 5 };
    { p_name = "cscope"; mb = 1.5; mix = Workload_mem.mostly_text; threads = 0; children = []; pty = false; regions = 3 };
  ]

let runcms =
  {
    p_name = "runcms";
    mb = 680.0;
    (* 540 shared libraries: code + relocation text, with the large
       zero-filled bss/arena tail that makes the paper's image gzip to a
       third of its resident size *)
    mix = { Workload_mem.f_text = 0.15; f_code = 0.35; f_numeric = 0.05; f_random = 0.05 };
    threads = 2;
    children = [];
    pty = false;
    regions = 540;
  }

let all = figure3 @ extras @ [ runcms ]
let find name = List.find_opt (fun p -> p.p_name = name) all

(* ------------------------------------------------------------------ *)

module Worker = struct
  (* alternates bursts of compute with sleep, like a GUI helper thread *)
  type state = bool  (* just computed? *)

  let name = "apps:desktop-worker"
  let encode w b = W.bool w b
  let decode r = R.bool r
  let init ~argv:_ = false

  let step (ctx : Simos.Program.ctx) computed =
    if computed then Simos.Program.Block (false, Simos.Program.Sleep_until (ctx.now () +. 0.2))
    else Simos.Program.Compute (true, 2e-3)
end

module App = struct
  type state =
    | D_boot
    | D_forking of int * string list  (* (pty fd, children left to fork) *)
    | D_child of string               (* child profile to boot as *)
    | D_idle of { pty_fd : int }

  let name = prog_name

  let encode w = function
    | D_boot -> W.u8 w 0
    | D_forking (pty_fd, rest) ->
      W.u8 w 1;
      W.varint w pty_fd;
      W.list W.string w rest
    | D_child p ->
      W.u8 w 2;
      W.string w p
    | D_idle { pty_fd } ->
      W.u8 w 3;
      W.varint w pty_fd

  let decode r =
    match R.u8 r with
    | 0 -> D_boot
    | 1 ->
      let pty_fd = R.varint r in
      D_forking (pty_fd, R.list R.string r)
    | 2 -> D_child (R.string r)
    | _ -> D_idle { pty_fd = R.varint r }

  let init ~argv:_ = D_boot

  let profile_of (ctx : Simos.Program.ctx) st =
    let name =
      match st with
      | D_child p -> p
      | _ -> ( match ctx.argv with _ :: p :: _ -> p | _ -> "bc")
    in
    match find name with
    | Some p -> p
    | None -> interp name 4.0

  let boot (ctx : Simos.Program.ctx) profile =
    (* footprint split across library-like regions *)
    let total = int_of_float (profile.mb *. 1_000_000.) in
    let per_region = max Mem.Page.size (total / max 1 profile.regions) in
    for i = 0 to profile.regions - 1 do
      ignore
        (Workload_mem.alloc ctx ~bytes:per_region ~mix:profile.mix
           ~seed:((Hashtbl.hash profile.p_name * 97) + i))
    done;
    for _ = 1 to profile.threads do
      ignore (ctx.spawn_thread ~prog:Worker.name ~argv:[])
    done;
    let pty_fd =
      if profile.pty then begin
        let _master, slave = ctx.open_pty () in
        ignore (ctx.write_fd slave (Printf.sprintf "%s> " profile.p_name));
        slave
      end
      else -1
    in
    (* a pipe to each child, exercising pipe promotion in process trees *)
    pty_fd

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | D_boot ->
      let profile = profile_of ctx st in
      let pty_fd = boot ctx profile in
      if profile.children = [] then Simos.Program.Continue (D_idle { pty_fd })
      else Simos.Program.Continue (D_forking (pty_fd, profile.children))
    | D_forking (pty_fd, []) -> Simos.Program.Continue (D_idle { pty_fd })
    | D_forking (pty_fd, child :: rest) ->
      let _rfd, _wfd = ctx.pipe () in
      Simos.Program.Fork { parent = D_forking (pty_fd, rest); child = D_child child }
    | D_child p ->
      let profile = profile_of ctx (D_child p) in
      let pty_fd = boot ctx profile in
      Simos.Program.Continue (D_idle { pty_fd })
    | D_idle _ ->
      (* interactive programs mostly sleep with occasional activity *)
      Simos.Program.Block
        (st, Simos.Program.Sleep_until (ctx.now () +. 0.25))
  [@@warning "-27"]
end

let () =
  Simos.Program.register (module App : Simos.Program.S);
  Simos.Program.register (module Worker : Simos.Program.S)
