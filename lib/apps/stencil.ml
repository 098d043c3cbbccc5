module W = Util.Codec.Writer
module R = Util.Codec.Reader

let stencil_prog = "mpi:stencil"
let bsp_prog = "mpi:bsp"

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
  let mem_mix = Workload_mem.mostly_numeric
  let neighbors = Nas.ring_neighbors

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
      let got_left, got_right =
        Nas.send_ring comm ~tag:'h'
          ~lo:(pack (Array.sub k.u k.h k.h))
          ~hi:(pack (Array.sub k.u k.cells k.h))
      in
      Nas.K_wait { k with phase = 1; got_left; got_right }
    | 1 ->
      let got_left, got_right =
        Nas.recv_ring comm ~tag:'h' (k.got_left, k.got_right)
          ~lo:(fun s -> Array.blit (unpack s) 0 k.u 0 k.h)
          ~hi:(fun s -> Array.blit (unpack s) 0 k.u (k.h + k.cells) k.h)
      in
      let k = { k with got_left; got_right } in
      if not (got_left && got_right) then Nas.K_wait k
      else begin
        (* physical boundaries: Dirichlet ghosts *)
        if rank = 0 then Array.fill k.u 0 k.h 1.0;
        if rank = size - 1 then Array.fill k.u (k.h + k.cells) k.h 0.0;
        let u = sweeps k in
        let local = interior_sum k u in
        let flops = float_of_int (4 * (Array.length u - 2) * k.h) in
        Nas.K_compute
          ( { k with u; phase = 2; coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum local)) },
            (flops *. Nas.flop_cost) +. k.think )
      end
    | _ -> (
      match k.coll with
      | None -> Nas.K_done (0., false)
      | Some coll ->
        Nas.drive_coll ctx comm coll
          ~wrap:(fun c -> { k with coll = Some c })
          ~on_done:(fun total ->
            if k.step_no + 1 >= k.steps then Nas.K_done (total, Float.is_finite total)
            else Nas.K_compute ({ k with step_no = k.step_no + 1; phase = 0; coll = None }, 1e-4)))
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
  let mem_mix = Workload_mem.mostly_numeric
  let neighbors = Nas.ring_neighbors

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
      let got_left, got_right = Nas.send_ring comm ~tag:'d' ~lo:p ~hi:p in
      Nas.K_wait { k with stage = 1; got_left; got_right }
    | 1 ->
      let ok = ref k.ok and checksum = ref k.checksum in
      let collect src s =
        ok := !ok && s = payload ~phase:k.phase_no ~src ~bytes:k.bytes;
        checksum := !checksum +. float_of_int (payload_sum s)
      in
      (* the ring hands over left before right, so the checksum's float
         sum keeps its order *)
      let got_left, got_right =
        Nas.recv_ring comm ~tag:'d' (k.got_left, k.got_right) ~lo:(collect (rank - 1))
          ~hi:(collect (rank + 1))
      in
      let k = { k with got_left; got_right; ok = !ok; checksum = !checksum } in
      if got_left && got_right then Nas.K_compute ({ k with stage = 2; straggled = false }, 1e-4)
      else Nas.K_wait k
    | 2 ->
      if straggler k ~rank ~size && not k.straggled then
        (* the designated slow rank computes while everyone else has
           already entered the allreduce *)
        Nas.K_compute ({ k with straggled = true }, k.straggle_secs)
      else
        Nas.K_compute
          ( {
              k with
              stage = 3;
              coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum k.checksum));
            },
            1e-4 )
    | _ -> (
      match k.coll with
      | None -> Nas.K_done (0., false)
      | Some coll ->
        Nas.drive_coll ctx comm coll
          ~wrap:(fun c -> { k with coll = Some c })
          ~on_done:(fun total ->
            if k.phase_no + 1 >= k.phases then Nas.K_done (total, k.ok)
            else
              Nas.K_compute
                ( { k with phase_no = k.phase_no + 1; stage = 0; checksum = 0.; coll = None },
                  1e-4 )))
end

module Jacobi_prog = Nas.Make (Jacobi)
module Bsp_prog = Nas.Make (Bsp)

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    Simos.Program.register (module Jacobi_prog : Simos.Program.S);
    Simos.Program.register (module Bsp_prog : Simos.Program.S)
  end
