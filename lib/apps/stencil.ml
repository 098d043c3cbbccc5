module W = Util.Codec.Writer
module R = Util.Codec.Reader

(* simulated CPU seconds per floating-point operation *)
let flop_cost = 2e-9

let stencil_prog = "mpi:stencil"
let bsp_prog = "mpi:bsp"

(* ------------------------------------------------------------------ *)
(* Framework: like Nas.Make but transport-aware — the first extra argv
   word selects the Mpi backend ("direct" | "proxy"), and results are
   written with full float precision so direct-vs-proxy runs can be
   compared byte-for-byte. *)

type 'k kout = K_compute of 'k * float | K_wait of 'k | K_done of float * bool

module type KERNEL = sig
  type kstate

  val prog_name : string
  val short : string
  val mem_bytes : int
  val neighbors : size:int -> int -> int list
  val kinit : rank:int -> size:int -> extra:string list -> kstate
  val encode_k : W.t -> kstate -> unit
  val decode_k : R.t -> kstate
  val kstep : Simos.Program.ctx -> Mpi.t -> kstate -> kstate kout
end

module Make (K : KERNEL) : Simos.Program.S = struct
  type state =
    | F_boot
    | F_init of Mpi.t * K.kstate
    | F_run of Mpi.t * K.kstate
    | F_flush of Mpi.t * bool
    | F_notify of Launchers.notify * bool

  let name = K.prog_name

  let encode w = function
    | F_boot -> W.u8 w 0
    | F_init (comm, k) ->
      W.u8 w 1;
      Mpi.encode w comm;
      K.encode_k w k
    | F_run (comm, k) ->
      W.u8 w 2;
      Mpi.encode w comm;
      K.encode_k w k
    | F_flush (comm, ok) ->
      W.u8 w 4;
      Mpi.encode w comm;
      W.bool w ok
    | F_notify (n, ok) ->
      W.u8 w 3;
      Launchers.encode_notify w n;
      W.bool w ok

  let decode r =
    match R.u8 r with
    | 0 -> F_boot
    | 1 ->
      let comm = Mpi.decode r in
      let k = K.decode_k r in
      F_init (comm, k)
    | 2 ->
      let comm = Mpi.decode r in
      let k = K.decode_k r in
      F_run (comm, k)
    | 4 ->
      let comm = Mpi.decode r in
      let ok = R.bool r in
      F_flush (comm, ok)
    | _ ->
      let n = Launchers.decode_notify r in
      let ok = R.bool r in
      F_notify (n, ok)

  let init ~argv:_ = F_boot

  let split_transport = function
    | tr :: rest -> (Mpi.transport_of_string tr, rest)
    | [] -> (Mpi.Direct, [])

  let result_path (ctx : Simos.Program.ctx) =
    let _, _, base_port, _, _, _, _ = Launchers.parse_rank_args (List.tl ctx.argv) in
    Printf.sprintf "/result/%s-%d" K.short base_port

  let step (ctx : Simos.Program.ctx) st =
    match st with
    | F_boot ->
      let rank, size, base_port, rpn, _, _, extra = Launchers.parse_rank_args (List.tl ctx.argv) in
      let transport, extra = split_transport extra in
      ignore
        (Workload_mem.alloc ctx ~bytes:K.mem_bytes ~mix:Workload_mem.mostly_numeric
           ~seed:((rank * 7919) + 13));
      let comm =
        Mpi.create ~rank ~size ~base_port ~ranks_per_node:rpn ~transport
          ~neighbors:(K.neighbors ~size) ()
      in
      Simos.Program.Continue (F_init (comm, K.kinit ~rank ~size ~extra))
    | F_init (comm, k) -> (
      match Mpi.init_step ctx comm with
      | `Ready -> Simos.Program.Continue (F_run (comm, k))
      | `Pending ->
        Simos.Program.Block (F_init (comm, k), Simos.Program.Sleep_until (ctx.now () +. 2e-3)))
    | F_run (comm, k) -> (
      Mpi.progress ctx comm;
      match K.kstep ctx comm k with
      | K_compute (k, dt) -> Simos.Program.Compute (F_run (comm, k), dt)
      | K_wait k -> Simos.Program.Block (F_run (comm, k), Mpi.wait ctx comm)
      | K_done (value, ok) ->
        if Mpi.rank comm = 0 then begin
          match ctx.open_file (result_path ctx) with
          | Ok fd ->
            (* full precision: chaos verdicts and the direct-vs-proxy
               check compare these bytes for equality *)
            ignore
              (ctx.write_fd fd
                 (Printf.sprintf "%s %s %.17g" (String.uppercase_ascii K.short)
                    (if ok then "VERIFIED" else "FAILED")
                    value));
            ctx.close_fd fd
          | Error _ -> ()
        end;
        (* exit only once every produced payload is in its destination's
           hands: an exiting rank takes its resend buffer with it *)
        Simos.Program.Continue (F_flush (comm, ok)))
    | F_flush (comm, ok) ->
      Mpi.progress ctx comm;
      if Mpi.quiesced comm then begin
        let _, _, _, _, nhost, nport, _ = Launchers.parse_rank_args (List.tl ctx.argv) in
        Simos.Program.Continue (F_notify (Launchers.notify_start ~host:nhost ~port:nport, ok))
      end
      else Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 1e-3))
    | F_notify (n, ok) -> (
      match Launchers.notify_step ctx n with
      | `Done -> Simos.Program.Exit (if ok then 0 else 1)
      | `Pending -> Simos.Program.Block (st, Simos.Program.Sleep_until (ctx.now () +. 1e-3)))
end

let ring ~size r = List.filter (fun n -> n >= 0 && n < size && n <> r) [ r - 1; r + 1 ]

(* ------------------------------------------------------------------ *)
(* Iterative 1-D Jacobi solver with deep-halo exchange: each superstep
   trades [h] boundary cells with ring neighbours, runs [h] relaxation
   sweeps off the fresh ghosts, and allreduces the residual sum.
   Numerically deterministic, so direct and proxy transports must agree
   bit-for-bit. *)

module Jacobi = struct
  type kstate = {
    cells : int;  (* interior cells per rank *)
    h : int;      (* halo depth = sweeps per superstep *)
    steps : int;  (* supersteps *)
    think : float;  (* extra compute seconds per superstep: the flop
                       count alone finishes in microseconds of simulated
                       time, faster than checkpoints or even the process
                       census can observe the job *)
    step_no : int;
    u : float array;  (* h ghosts | cells interior | h ghosts *)
    phase : int;      (* 0 send halos, 1 await halos, 2 reduce *)
    got_left : bool;
    got_right : bool;
    coll : Mpi.Coll.st option;
  }

  let prog_name = stencil_prog
  let short = "stencil"
  let mem_bytes = 4_000_000
  let neighbors ~size r = ring ~size r

  let kinit ~rank ~size:_ ~extra =
    let geti i d = match List.nth_opt extra i with Some s -> int_of_string s | None -> d in
    let getf i d = match List.nth_opt extra i with Some s -> float_of_string s | None -> d in
    let cells = max 2 (geti 0 64) in
    let h = max 1 (geti 1 4) in
    let steps = max 1 (geti 2 8) in
    let think = getf 3 0.01 in
    let n = cells + (2 * h) in
    let u =
      Array.init n (fun i ->
          if i < h || i >= h + cells then 0.
          else
            let gi = (rank * cells) + i - h in
            if gi mod 7 = 0 then 1.0 else float_of_int (gi mod 5) /. 4.0)
    in
    {
      cells;
      h;
      steps;
      think;
      step_no = 0;
      u;
      phase = 0;
      got_left = false;
      got_right = false;
      coll = None;
    }

  let encode_k w k =
    W.uvarint w k.cells;
    W.uvarint w k.h;
    W.uvarint w k.steps;
    W.f64 w k.think;
    W.uvarint w k.step_no;
    W.array W.f64 w k.u;
    W.uvarint w k.phase;
    W.bool w k.got_left;
    W.bool w k.got_right;
    W.option Mpi.Coll.encode w k.coll

  let decode_k r =
    let cells = R.uvarint r in
    let h = R.uvarint r in
    let steps = R.uvarint r in
    let think = R.f64 r in
    let step_no = R.uvarint r in
    let u = R.array R.f64 r in
    let phase = R.uvarint r in
    let got_left = R.bool r in
    let got_right = R.bool r in
    let coll = R.option Mpi.Coll.decode r in
    { cells; h; steps; think; step_no; u; phase; got_left; got_right; coll }

  let pack = Array.fold_left (fun acc v -> acc ^ Mpi.f64_str v) ""

  let unpack s =
    Array.init (String.length s / 8) (fun i -> Mpi.str_f64 (String.sub s (i * 8) 8))

  let sweeps k =
    let n = Array.length k.u in
    let u = Array.copy k.u in
    for _ = 1 to k.h do
      let u' = Array.copy u in
      for i = 1 to n - 2 do
        u'.(i) <- (0.25 *. u.(i - 1)) +. (0.5 *. u.(i)) +. (0.25 *. u.(i + 1))
      done;
      Array.blit u' 0 u 0 n
    done;
    u

  let interior_sum k u =
    let s = ref 0. in
    for i = k.h to k.h + k.cells - 1 do
      s := !s +. u.(i)
    done;
    !s

  let kstep ctx comm k =
    let rank = Mpi.rank comm and size = Mpi.size comm in
    match k.phase with
    | 0 ->
      if rank > 0 then
        Mpi.send comm ~dst:(rank - 1) ~tag:'h' (pack (Array.sub k.u k.h k.h));
      if rank < size - 1 then
        Mpi.send comm ~dst:(rank + 1) ~tag:'h' (pack (Array.sub k.u k.cells k.h));
      K_wait { k with phase = 1; got_left = rank = 0; got_right = rank = size - 1 }
    | 1 ->
      let k = ref k in
      if (not !k.got_left) && rank > 0 then (
        match Mpi.recv comm ~src:(rank - 1) ~tag:'h' with
        | Some s ->
          Array.blit (unpack s) 0 !k.u 0 !k.h;
          k := { !k with got_left = true }
        | None -> ());
      if (not !k.got_right) && rank < size - 1 then (
        match Mpi.recv comm ~src:(rank + 1) ~tag:'h' with
        | Some s ->
          Array.blit (unpack s) 0 !k.u (!k.h + !k.cells) !k.h;
          k := { !k with got_right = true }
        | None -> ());
      let k = !k in
      if not (k.got_left && k.got_right) then K_wait k
      else begin
        (* physical boundaries: Dirichlet ghosts *)
        if rank = 0 then Array.fill k.u 0 k.h 1.0;
        if rank = size - 1 then Array.fill k.u (k.h + k.cells) k.h 0.0;
        let u = sweeps k in
        let local = interior_sum k u in
        let flops = float_of_int (4 * (Array.length u - 2) * k.h) in
        K_compute
          ( { k with u; phase = 2; coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum local)) },
            (flops *. flop_cost) +. k.think )
      end
    | _ -> (
      match k.coll with
      | None -> K_done (0., false)
      | Some coll -> (
        match Mpi.Coll.step ctx comm coll with
        | `Pending -> K_wait { k with coll = Some coll }
        | `Done total ->
          if k.step_no + 1 >= k.steps then K_done (total, Float.is_finite total)
          else
            K_compute
              ( { k with step_no = k.step_no + 1; phase = 0; coll = None },
                1e-4 )))
end

(* ------------------------------------------------------------------ *)
(* Bulk-synchronous phase program: each phase exchanges patterned
   payloads with ring neighbours, verifies them, optionally straggles
   (one designated slow rank per straggling phase — the others sit
   inside the closing allreduce for the whole delay, which is exactly
   where the chaos scenarios aim their node kill), then allreduces a
   checksum. *)

module Bsp = struct
  type kstate = {
    phases : int;
    bytes : int;          (* payload bytes per neighbour message *)
    straggle_every : int; (* 0 = never *)
    straggle_secs : float;
    phase_no : int;
    stage : int;  (* 0 send, 1 collect, 2 straggle, 3 reduce *)
    got_left : bool;
    got_right : bool;
    straggled : bool;
    checksum : float;
    ok : bool;
    coll : Mpi.Coll.st option;
  }

  let prog_name = bsp_prog
  let short = "bsp"
  let mem_bytes = 2_000_000
  let neighbors ~size r = ring ~size r

  let kinit ~rank:_ ~size:_ ~extra =
    let geti i d = match List.nth_opt extra i with Some s -> int_of_string s | None -> d in
    let getf i d = match List.nth_opt extra i with Some s -> float_of_string s | None -> d in
    {
      phases = max 1 (geti 0 6);
      bytes = max 1 (geti 1 2048);
      straggle_every = geti 2 0;
      straggle_secs = getf 3 0.3;
      phase_no = 0;
      stage = 0;
      got_left = false;
      got_right = false;
      straggled = false;
      checksum = 0.;
      ok = true;
      coll = None;
    }

  let encode_k w k =
    W.uvarint w k.phases;
    W.uvarint w k.bytes;
    W.uvarint w k.straggle_every;
    W.f64 w k.straggle_secs;
    W.uvarint w k.phase_no;
    W.uvarint w k.stage;
    W.bool w k.got_left;
    W.bool w k.got_right;
    W.bool w k.straggled;
    W.f64 w k.checksum;
    W.bool w k.ok;
    W.option Mpi.Coll.encode w k.coll

  let decode_k r =
    let phases = R.uvarint r in
    let bytes = R.uvarint r in
    let straggle_every = R.uvarint r in
    let straggle_secs = R.f64 r in
    let phase_no = R.uvarint r in
    let stage = R.uvarint r in
    let got_left = R.bool r in
    let got_right = R.bool r in
    let straggled = R.bool r in
    let checksum = R.f64 r in
    let ok = R.bool r in
    let coll = R.option Mpi.Coll.decode r in
    {
      phases;
      bytes;
      straggle_every;
      straggle_secs;
      phase_no;
      stage;
      got_left;
      got_right;
      straggled;
      checksum;
      ok;
      coll;
    }

  let payload ~phase ~src ~bytes =
    String.init bytes (fun j -> Char.chr (((phase * 31) + (src * 17) + j) land 0xff))

  let payload_sum s = String.fold_left (fun acc c -> acc + Char.code c) 0 s

  let straggler k ~rank ~size =
    k.straggle_every > 0
    && k.phase_no mod k.straggle_every = 0
    && rank = k.phase_no / k.straggle_every mod size

  let kstep ctx comm k =
    let rank = Mpi.rank comm and size = Mpi.size comm in
    match k.stage with
    | 0 ->
      let p = payload ~phase:k.phase_no ~src:rank ~bytes:k.bytes in
      if rank > 0 then Mpi.send comm ~dst:(rank - 1) ~tag:'d' p;
      if rank < size - 1 then Mpi.send comm ~dst:(rank + 1) ~tag:'d' p;
      K_wait { k with stage = 1; got_left = rank = 0; got_right = rank = size - 1 }
    | 1 ->
      let k = ref k in
      let collect src set =
        match Mpi.recv comm ~src ~tag:'d' with
        | Some s ->
          let want = payload ~phase:!k.phase_no ~src ~bytes:!k.bytes in
          k :=
            set
              {
                !k with
                ok = !k.ok && s = want;
                checksum = !k.checksum +. float_of_int (payload_sum s);
              }
        | None -> ()
      in
      if (not !k.got_left) && rank > 0 then
        collect (rank - 1) (fun k -> { k with got_left = true });
      if (not !k.got_right) && rank < size - 1 then
        collect (rank + 1) (fun k -> { k with got_right = true });
      let k = !k in
      if k.got_left && k.got_right then K_compute ({ k with stage = 2; straggled = false }, 1e-4)
      else K_wait k
    | 2 ->
      if straggler k ~rank ~size && not k.straggled then
        (* the designated slow rank computes while everyone else has
           already entered the allreduce *)
        K_compute ({ k with straggled = true }, k.straggle_secs)
      else
        K_compute
          ( {
              k with
              stage = 3;
              coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum k.checksum));
            },
            1e-4 )
    | _ -> (
      match k.coll with
      | None -> K_done (0., false)
      | Some coll -> (
        match Mpi.Coll.step ctx comm coll with
        | `Pending -> K_wait { k with coll = Some coll }
        | `Done total ->
          if k.phase_no + 1 >= k.phases then K_done (total, k.ok)
          else
            K_compute
              ( { k with phase_no = k.phase_no + 1; stage = 0; checksum = 0.; coll = None },
                1e-4 )))
end

module Jacobi_prog = Make (Jacobi)
module Bsp_prog = Make (Bsp)

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    Simos.Program.register (module Jacobi_prog : Simos.Program.S);
    Simos.Program.register (module Bsp_prog : Simos.Program.S)
  end
