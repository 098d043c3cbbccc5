module W = Util.Codec.Writer
module R = Util.Codec.Reader

(* simulated CPU seconds per floating-point operation *)
let flop_cost = 2e-9

(* ------------------------------------------------------------------ *)
(* Kernel framework: boot (parse rank args, pick the transport, allocate
   the footprint), MPI init, kernel loop, result line, exit flush,
   completion notification. *)

type 'k kout = K_compute of 'k * float | K_wait of 'k | K_done of float * bool

module type KERNEL = sig
  type kstate

  val prog_name : string
  val short : string
  val mem_bytes : int
  val mem_mix : Workload_mem.mix
  val neighbors : rank:int -> size:int -> int list
  val kinit : rank:int -> size:int -> extra:string list -> kstate
  val encode_k : W.t -> kstate -> unit
  val decode_k : R.t -> kstate
  val kstep : Simos.Program.ctx -> Mpi.t -> kstate -> kstate kout
end

(* an optional leading extra word names the transport; kernel extras
   are numbers, so they never match *)
let split_transport = function
  | w :: rest as extra -> (
    match Mpi.transport_of_string w with
    | tr -> (tr, rest)
    | exception Invalid_argument _ -> (Mpi.Direct, extra))
  | [] -> (Mpi.Direct, [])

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

  let result_path (ctx : Simos.Program.ctx) =
    let _, _, base_port, _, _, _, _ = Launchers.parse_rank_args (List.tl ctx.argv) in
    Printf.sprintf "/result/%s-%d" K.short base_port

  let step_rank (ctx : Simos.Program.ctx) st =
    match st with
    | F_boot ->
      let rank, size, base_port, rpn, _, _, extra = Launchers.parse_rank_args (List.tl ctx.argv) in
      let transport, extra = split_transport extra in
      ignore
        (Workload_mem.alloc ctx ~bytes:K.mem_bytes ~mix:K.mem_mix ~seed:((rank * 7919) + 13));
      let comm =
        Mpi.create ~rank ~size ~base_port ~ranks_per_node:rpn ~transport
          ~neighbors:(fun r -> K.neighbors ~rank:r ~size)
          ()
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

  (* Bytes a peer sent that the framing rejects (a rank header outside
     the job, a frame length below 1) end this rank only, as a damaged
     image ends its restarter. *)
  let step ctx st =
    try step_rank ctx st
    with Util.Codec.Reader.Corrupt msg ->
      ctx.log (Printf.sprintf "%s: %s" K.prog_name msg);
      Simos.Program.Exit Dmtcp.Exit_code.corrupt_image
end

let ring_neighbors ~rank ~size =
  List.filter (fun r -> r >= 0 && r < size && r <> rank) [ rank - 1; rank + 1 ]

let all_neighbors ~rank ~size = List.init size Fun.id |> List.filter (fun r -> r <> rank)

(* Ring exchange: [lo] travels to rank-1 and [hi] to rank+1; the
   returned flags start a side with no neighbour as already arrived *)
let send_ring comm ~tag ~lo ~hi =
  let rank = Mpi.rank comm and size = Mpi.size comm in
  if rank > 0 then Mpi.send comm ~dst:(rank - 1) ~tag lo;
  if rank < size - 1 then Mpi.send comm ~dst:(rank + 1) ~tag hi;
  (rank = 0, rank = size - 1)

let recv_ring comm ~tag (got_lo, got_hi) ~lo ~hi =
  let rank = Mpi.rank comm in
  let side got src take =
    got || Option.fold (Mpi.recv comm ~src ~tag) ~none:false ~some:(fun p -> take p; true)
  in
  (* lo strictly before hi: a caller may fold both payloads in order *)
  let got_lo = side got_lo (rank - 1) lo in
  (got_lo, side got_hi (rank + 1) hi)

(* The one-float halo of CG, MG and the ADI kernels: the neighbours'
   boundary values and whether each has arrived in this exchange. *)
type halo = { lo : float; hi : float; got_lo : bool; got_hi : bool }

let no_halo = { lo = 0.; hi = 0.; got_lo = false; got_hi = false }

let encode_halo w h =
  W.f64 w h.lo;
  W.f64 w h.hi;
  W.bool w h.got_lo;
  W.bool w h.got_hi

let decode_halo r =
  let lo = R.f64 r in
  let hi = R.f64 r in
  let got_lo = R.bool r in
  let got_hi = R.bool r in
  { lo; hi; got_lo; got_hi }

(* post this rank's boundary values, [first] to rank-1 and [last] to
   rank+1, and push them toward the wire *)
let send_halo ctx comm h ~first ~last =
  let got_lo, got_hi = send_ring comm ~tag:'h' ~lo:(Mpi.f64_str first) ~hi:(Mpi.f64_str last) in
  Mpi.progress ctx comm;
  { h with got_lo; got_hi }

let recv_halo comm h =
  let lo = ref h.lo and hi = ref h.hi in
  let got_lo, got_hi =
    recv_ring comm ~tag:'h' (h.got_lo, h.got_hi)
      ~lo:(fun p -> lo := Mpi.str_f64 p)
      ~hi:(fun p -> hi := Mpi.str_f64 p)
  in
  { lo = !lo; hi = !hi; got_lo; got_hi }

let drive_coll ctx comm coll ~on_done ~wrap =
  match Mpi.Coll.step ctx comm coll with
  | `Done v -> on_done v
  | `Pending -> K_wait (wrap coll)

(* ------------------------------------------------------------------ *)
(* Baseline: "hello world" — init, one barrier, exit. *)

module Baseline = struct
  (* "hello world": one barrier per round, idling in between, so the
     process set stays alive while checkpoints are measured *)
  type kstate = { rounds : int; round : int; coll : Mpi.Coll.st option }

  let prog_name = "nas:baseline"
  let short = "baseline"
  let mem_bytes = 10_000_000
  let mem_mix = Workload_mem.mostly_code
  let neighbors ~rank:_ ~size:_ = []

  let kinit ~rank:_ ~size:_ ~extra =
    let rounds = match extra with s :: _ -> int_of_string s | [] -> 1 in
    { rounds; round = 0; coll = None }

  let encode_k w k =
    W.uvarint w k.rounds;
    W.uvarint w k.round;
    W.option Mpi.Coll.encode w k.coll

  let decode_k r =
    let rounds = R.uvarint r in
    let round = R.uvarint r in
    let coll = R.option Mpi.Coll.decode r in
    { rounds; round; coll }

  let kstep ctx comm k =
    match k.coll with
    | None -> K_compute ({ k with coll = Some (Mpi.Coll.start Mpi.Coll.barrier) }, 50e-3)
    | Some coll ->
      drive_coll ctx comm coll
        ~wrap:(fun c -> { k with coll = Some c })
        ~on_done:(fun _ ->
          if k.round + 1 >= k.rounds then K_done (0., true)
          else K_compute ({ k with round = k.round + 1; coll = None }, 1e-4))
end

(* ------------------------------------------------------------------ *)
(* EP: Monte-Carlo estimation of pi; embarrassingly parallel with one
   final reduction. *)

module Ep = struct
  type kstate = {
    samples : int;
    chunk : int;
    done_ : int;
    hits : int;
    rng_state : int64;
    coll : Mpi.Coll.st option;
  }

  let prog_name = "nas:ep"
  let short = "ep"
  let mem_bytes = 6_000_000
  let mem_mix = Workload_mem.mostly_numeric
  let neighbors ~rank:_ ~size:_ = []

  let kinit ~rank ~size:_ ~extra =
    let samples = match extra with s :: _ -> int_of_string s | [] -> 400_000 in
    {
      samples;
      chunk = 8_192;
      done_ = 0;
      hits = 0;
      rng_state = Int64.of_int ((rank * 2654435761) + 1);
      coll = None;
    }

  let encode_k w k =
    W.uvarint w k.samples;
    W.uvarint w k.chunk;
    W.uvarint w k.done_;
    W.uvarint w k.hits;
    W.i64 w k.rng_state;
    W.option Mpi.Coll.encode w k.coll

  let decode_k r =
    let samples = R.uvarint r in
    let chunk = R.uvarint r in
    let done_ = R.uvarint r in
    let hits = R.uvarint r in
    let rng_state = R.i64 r in
    let coll = R.option Mpi.Coll.decode r in
    { samples; chunk; done_; hits; rng_state; coll }

  let kstep ctx comm k =
    match k.coll with
    | Some coll ->
      drive_coll ctx comm coll
        ~wrap:(fun c -> { k with coll = Some c })
        ~on_done:(fun total_hits ->
          let total = float_of_int (k.samples * Mpi.size comm) in
          let pi = 4.0 *. total_hits /. total in
          K_done (pi, Float.abs (pi -. Float.pi) < 0.02))
    | None ->
      if k.done_ < k.samples then begin
        let rng = Util.Rng.of_state k.rng_state in
        let n = min k.chunk (k.samples - k.done_) in
        let hits = ref 0 in
        for _ = 1 to n do
          let x = Util.Rng.float rng 1.0 and y = Util.Rng.float rng 1.0 in
          if (x *. x) +. (y *. y) <= 1.0 then incr hits
        done;
        (* modelled at ~1 us/sample so that long EP runs do not dominate
           the simulation's host CPU time *)
        K_compute
          ( {
              k with
              done_ = k.done_ + n;
              hits = k.hits + !hits;
              rng_state = Util.Rng.state rng;
            },
            float_of_int n *. 1e-6 )
      end
      else
        K_compute
          ({ k with coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum (float_of_int k.hits))) }, 1e-5)
end

(* ------------------------------------------------------------------ *)
(* IS: integer bucket sort.  Keys are range-partitioned; each rank mails
   every other rank its keys, sorts what it receives, and the bucket
   property plus local sortedness gives global order.  The allocation is
   deliberately oversized and zero-filled (paper §5.4). *)

module Is = struct
  type kstate = {
    nkeys : int;
    key_range : int;
    rounds : int;  (* sort rounds remaining (long-run mode) *)
    round : int;
    phase : int;  (* 0 generate, 1 exchange, 2 collect, 3 sort+verify, 4 reduce *)
    keys : float array;     (* generated keys (as floats for codec reuse) *)
    received : float array; (* keys received for my bucket *)
    got_from : int;         (* peers heard from *)
    ok : bool;
    coll : Mpi.Coll.st option;
  }

  let prog_name = "nas:is"
  let short = "is"
  let mem_bytes = 70_000_000
  let mem_mix = { Workload_mem.all_zero with Workload_mem.f_numeric = 0.12 }
  let neighbors ~rank ~size = all_neighbors ~rank ~size

  let kinit ~rank:_ ~size:_ ~extra =
    let nkeys, rounds =
      match extra with
      | [ n ] -> (int_of_string n, 1)
      | n :: rnd :: _ -> (int_of_string n, int_of_string rnd)
      | [] -> (20_000, 1)
    in
    {
      nkeys;
      key_range = 1 lsl 16;
      rounds;
      round = 0;
      phase = 0;
      keys = [||];
      received = [||];
      got_from = 0;
      ok = true;
      coll = None;
    }

  let encode_k w k =
    W.uvarint w k.nkeys;
    W.uvarint w k.key_range;
    W.uvarint w k.rounds;
    W.uvarint w k.round;
    W.uvarint w k.phase;
    W.array W.f64 w k.keys;
    W.array W.f64 w k.received;
    W.uvarint w k.got_from;
    W.bool w k.ok;
    W.option Mpi.Coll.encode w k.coll

  let decode_k r =
    let nkeys = R.uvarint r in
    let key_range = R.uvarint r in
    let rounds = R.uvarint r in
    let round = R.uvarint r in
    let phase = R.uvarint r in
    let keys = R.array R.f64 r in
    let received = R.array R.f64 r in
    let got_from = R.uvarint r in
    let ok = R.bool r in
    let coll = R.option Mpi.Coll.decode r in
    { nkeys; key_range; rounds; round; phase; keys; received; got_from; ok; coll }

  let owner k size key = min (size - 1) (int_of_float key * size / k.key_range)

  let pack_keys keys =
    let w = W.create ~capacity:(Array.length keys * 3) () in
    W.array (fun w v -> W.uvarint w (int_of_float v)) w keys;
    W.contents w

  let unpack_keys payload = R.array (fun r -> float_of_int (R.uvarint r)) (R.of_string payload)

  (* Sort in place, as [Array.stable_sort Float.compare] would.  When
     every key is an integer in [0, key_range), and so has one bit
     pattern per value, and their span fits [max_span] counters, count
     them; keys restored from an image are outside input, so anything
     else takes the comparison sort. *)
  let max_span = 1 lsl 16

  let sort_keys k a =
    let range = float_of_int k.key_range in
    let countable x = x >= 0. && x < range && Float.is_integer x && not (Float.sign_bit x) in
    if not (Array.for_all countable a) || Array.length a = 0 then Array.stable_sort Float.compare a
    else begin
      let lo = int_of_float (Array.fold_left Float.min Float.infinity a) in
      let hi = int_of_float (Array.fold_left Float.max Float.neg_infinity a) in
      if hi - lo >= max_span then Array.stable_sort Float.compare a
      else begin
        let counts = Array.make (hi - lo + 1) 0 in
        Array.iter (fun x -> let i = int_of_float x - lo in counts.(i) <- counts.(i) + 1) a;
        let j = ref 0 in
        Array.iteri
          (fun i n ->
            Array.fill a !j n (float_of_int (lo + i));
            j := !j + n)
          counts
      end
    end

  let kstep ctx comm k =
    let size = Mpi.size comm and rank = Mpi.rank comm in
    match k.phase with
    | 0 ->
      let rng = Util.Rng.create (Int64.of_int ((rank * 104729) + 7 + (k.round * 65537))) in
      let keys = Array.init k.nkeys (fun _ -> float_of_int (Util.Rng.int rng k.key_range)) in
      K_compute ({ k with keys; phase = 1 }, float_of_int k.nkeys *. 10. *. flop_cost)
    | 1 ->
      (* mail each peer its bucket (self keys go straight to received) *)
      let fill = Array.make size 0 in
      Array.iter (fun key -> let o = owner k size key in fill.(o) <- fill.(o) + 1) k.keys;
      let buckets = Array.map (fun n -> Array.make n 0.) fill in
      (* each bucket lists its keys newest first: the key met first
         takes the bucket's last cell *)
      Array.iter
        (fun key ->
          let o = owner k size key in
          fill.(o) <- fill.(o) - 1;
          buckets.(o).(fill.(o)) <- key)
        k.keys;
      for dst = 0 to size - 1 do
        if dst <> rank then Mpi.send comm ~dst ~tag:'D' (pack_keys buckets.(dst))
      done;
      Mpi.progress ctx comm;
      K_compute
        ( { k with phase = 2; received = buckets.(rank); keys = [||] },
          float_of_int k.nkeys *. 4. *. flop_cost )
    | 2 ->
      (* collect one message from every peer *)
      let got = ref k.got_from in
      let received = ref k.received in
      let progressed = ref true in
      while !progressed do
        match Mpi.recv_any comm ~tag:'D' with
        | Some (_, payload) ->
          received := Array.append !received (unpack_keys payload);
          incr got
        | None -> progressed := false
      done;
      if !got >= size - 1 then
        K_compute ({ k with phase = 3; received = !received; got_from = !got }, 1e-5)
      else K_wait { k with received = !received; got_from = !got }
    | 3 ->
      sort_keys k k.received;
      (* verify: locally sorted (by construction) and inside my range *)
      let lo = float_of_int (rank * k.key_range / size) in
      let hi = float_of_int ((rank + 1) * k.key_range / size) in
      let ok = Array.for_all (fun key -> key >= lo && (key < hi || rank = size - 1)) k.received in
      let n = Array.length k.received in
      let sort_cost = float_of_int (max 1 n) *. log (float_of_int (max 2 n)) *. 3. *. flop_cost in
      K_compute
        ( {
            k with
            phase = 4;
            ok;
            coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum (if ok then 0. else 1.)));
          },
          sort_cost )
    | _ -> (
      match k.coll with
      | None -> K_done (0., false)
      | Some coll ->
        drive_coll ctx comm coll
          ~wrap:(fun c -> { k with coll = Some c })
          ~on_done:(fun failures ->
            let ok = failures = 0. in
            if ok && k.round + 1 < k.rounds then
              K_compute
                ( {
                    k with
                    round = k.round + 1;
                    phase = 0;
                    keys = [||];
                    received = [||];
                    got_from = 0;
                    coll = None;
                  },
                  1e-5 )
            else K_done (float_of_int (Array.length k.received), ok)))
end

(* ------------------------------------------------------------------ *)
(* CG: conjugate gradient on a distributed symmetric tridiagonal system
   A = tridiag(-1, 2.5, -1), b = A * ones, so the solution is ones.
   Halo exchange for the matvec, allreduce for the dot products. *)

module Cg = struct
  type kstate = {
    n_local : int;
    max_iter : int;
    repeats : int;  (* outer loop: re-solve from scratch, for long runs *)
    iter : int;
    phase : int;  (* 0 send halo, 1 recv halo + matvec, 2 pAp coll, 3 rr coll, 4 verify coll *)
    x : float array;
    rvec : float array;
    p : float array;
    ap : float array;
    rr_old : float;
    halo : halo;  (* p values from rank-1 and rank+1 *)
    coll : Mpi.Coll.st option;
  }

  let prog_name = "nas:cg"
  let short = "cg"
  let mem_bytes = 20_000_000
  let mem_mix = Workload_mem.mostly_numeric
  let neighbors ~rank ~size = ring_neighbors ~rank ~size

  (* b = A*ones: interior rows 0.5, global boundary rows 1.5 *)
  let b_at ~rank ~size ~n_local i =
    let gi = (rank * n_local) + i in
    let n_global = size * n_local in
    if gi = 0 || gi = n_global - 1 then 1.5 else 0.5

  let kinit ~rank ~size ~extra =
    let n_local = 64 in
    let max_iter, repeats =
      match extra with
      | [ it ] -> (int_of_string it, 1)
      | it :: rep :: _ -> (int_of_string it, int_of_string rep)
      | [] -> (400, 1)
    in
    let b = Array.init n_local (b_at ~rank ~size ~n_local) in
    {
      n_local;
      max_iter;
      repeats;
      iter = 0;
      phase = 0;
      x = Array.make n_local 0.;
      rvec = Array.copy b;      (* r = b - A*0 = b *)
      p = Array.copy b;
      ap = Array.make n_local 0.;
      rr_old = Float.nan;       (* computed on first pass *)
      halo = no_halo;
      coll = None;
    }

  let encode_k w k =
    W.uvarint w k.n_local;
    W.uvarint w k.max_iter;
    W.uvarint w k.repeats;
    W.uvarint w k.iter;
    W.uvarint w k.phase;
    W.array W.f64 w k.x;
    W.array W.f64 w k.rvec;
    W.array W.f64 w k.p;
    W.array W.f64 w k.ap;
    W.f64 w k.rr_old;
    encode_halo w k.halo;
    W.option Mpi.Coll.encode w k.coll

  let decode_k r =
    let n_local = R.uvarint r in
    let max_iter = R.uvarint r in
    let repeats = R.uvarint r in
    let iter = R.uvarint r in
    let phase = R.uvarint r in
    let x = R.array R.f64 r in
    let rvec = R.array R.f64 r in
    let p = R.array R.f64 r in
    let ap = R.array R.f64 r in
    let rr_old = R.f64 r in
    let halo = decode_halo r in
    let coll = R.option Mpi.Coll.decode r in
    { n_local; max_iter; repeats; iter; phase; x; rvec; p; ap; rr_old; halo; coll }

  let dot a b =
    let s = ref 0. in
    Array.iteri (fun i v -> s := !s +. (v *. b.(i))) a;
    !s

  let iter_cost n = float_of_int (n * 12) *. flop_cost

  let kstep ctx comm k =
    let rank = Mpi.rank comm and size = Mpi.size comm in
    match k.phase with
    | 0 ->
      (* kick off the rr_old allreduce on the very first pass *)
      if Float.is_nan k.rr_old && k.coll = None then
        K_compute
          ( { k with coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum (dot k.rvec k.rvec))) },
            iter_cost k.n_local )
      else if Float.is_nan k.rr_old then (
        match k.coll with
        | Some coll ->
          drive_coll ctx comm coll
            ~wrap:(fun c -> { k with coll = Some c })
            ~on_done:(fun rr -> K_compute ({ k with rr_old = rr; coll = None }, 1e-6))
        | None -> assert false)
      else
        let halo = send_halo ctx comm k.halo ~first:k.p.(0) ~last:k.p.(k.n_local - 1) in
        K_compute ({ k with phase = 1; halo }, 1e-6)
    | 1 ->
      let k = { k with halo = recv_halo comm k.halo } in
      if k.halo.got_lo && k.halo.got_hi then begin
        (* Ap = tridiag(-1, 2.5, -1) * p with halo values *)
        let n = k.n_local in
        for i = 0 to n - 1 do
          let lo = if i = 0 then k.halo.lo else k.p.(i - 1) in
          let hi = if i = n - 1 then k.halo.hi else k.p.(i + 1) in
          let lo = if rank = 0 && i = 0 then 0. else lo in
          let hi = if rank = size - 1 && i = n - 1 then 0. else hi in
          k.ap.(i) <- (2.5 *. k.p.(i)) -. lo -. hi
        done;
        K_compute
          ( {
              k with
              phase = 2;
              coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum (dot k.p k.ap)));
            },
            iter_cost k.n_local )
      end
      else K_wait k
    | 2 -> (
      match k.coll with
      | None -> K_done (0., false)
      | Some coll ->
        drive_coll ctx comm coll
          ~wrap:(fun c -> { k with coll = Some c })
          ~on_done:(fun pap ->
            let alpha = k.rr_old /. pap in
            for i = 0 to k.n_local - 1 do
              k.x.(i) <- k.x.(i) +. (alpha *. k.p.(i));
              k.rvec.(i) <- k.rvec.(i) -. (alpha *. k.ap.(i))
            done;
            K_compute
              ( {
                  k with
                  phase = 3;
                  coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum (dot k.rvec k.rvec)));
                },
                iter_cost k.n_local )))
    | 3 -> (
      match k.coll with
      | None -> K_done (0., false)
      | Some coll ->
        drive_coll ctx comm coll
          ~wrap:(fun c -> { k with coll = Some c })
          ~on_done:(fun rr_new ->
            if rr_new < 1e-18 || k.iter + 1 >= k.max_iter then begin
              (* verify: x should be ones *)
              let err = ref 0. in
              Array.iter (fun v -> err := !err +. Float.abs (v -. 1.0)) k.x;
              K_compute
                ( {
                    k with
                    phase = 4;
                    coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum !err));
                  },
                  1e-5 )
            end
            else begin
              let beta = rr_new /. k.rr_old in
              for i = 0 to k.n_local - 1 do
                k.p.(i) <- k.rvec.(i) +. (beta *. k.p.(i))
              done;
              K_compute
                ({ k with phase = 0; iter = k.iter + 1; rr_old = rr_new; coll = None }, 1e-6)
            end))
    | _ -> (
      match k.coll with
      | None -> K_done (0., false)
      | Some coll ->
        drive_coll ctx comm coll
          ~wrap:(fun c -> { k with coll = Some c })
          ~on_done:(fun total_err ->
            let n_global = float_of_int (k.n_local * Mpi.size comm) in
            let ok = total_err /. n_global < 1e-6 in
            if k.repeats > 1 && ok then begin
              (* long-run mode: solve again from scratch *)
              let rank = Mpi.rank comm and size = Mpi.size comm in
              let b = Array.init k.n_local (b_at ~rank ~size ~n_local:k.n_local) in
              K_compute
                ( {
                    k with
                    repeats = k.repeats - 1;
                    iter = 0;
                    phase = 0;
                    x = Array.make k.n_local 0.;
                    rvec = Array.copy b;
                    p = Array.copy b;
                    rr_old = Float.nan;
                    coll = None;
                  },
                  1e-5 )
            end
            else K_done (total_err, ok)))
end

(* ------------------------------------------------------------------ *)
(* MG: two-level multigrid for -u'' = f (1-D Poisson), distributed
   Jacobi smoothing with halo exchange, coarse correction solved on rank
   0 (one coarse point per rank). *)

module Mg = struct
  type kstate = {
    n_local : int;
    cycles : int;
    cycle : int;
    smooth_left : int;
    phase : int;
      (* 0 send halo, 1 recv+smooth, 2 send coarse residual, 3 coarse solve/recv,
         4 final residual coll, 5 done-check *)
    u : float array;
    f : float array;
    halo : halo;
    r0 : float;  (* initial residual norm *)
    coarse : float array;  (* rank 0 only: gathered coarse residuals *)
    coarse_got : int;
    coll : Mpi.Coll.st option;
  }

  let prog_name = "nas:mg"
  let short = "mg"
  let mem_bytes = 55_000_000
  let mem_mix = Workload_mem.mostly_numeric
  let neighbors ~rank ~size = ring_neighbors ~rank ~size

  let kinit ~rank ~size:_ ~extra =
    let n_local = 64 in
    let cycles = match extra with s :: _ -> int_of_string s | [] -> 30 in
    let rng = Util.Rng.create (Int64.of_int (rank + 31337)) in
    {
      n_local;
      cycles;
      cycle = 0;
      smooth_left = 4;
      phase = 0;
      u = Array.make n_local 0.;
      f = Array.init n_local (fun _ -> Util.Rng.float rng 1.0);
      halo = no_halo;
      r0 = Float.nan;
      coarse = [||];
      coarse_got = 0;
      coll = None;
    }

  let encode_k w k =
    W.uvarint w k.n_local;
    W.uvarint w k.cycles;
    W.uvarint w k.cycle;
    W.uvarint w k.smooth_left;
    W.uvarint w k.phase;
    W.array W.f64 w k.u;
    W.array W.f64 w k.f;
    encode_halo w k.halo;
    W.f64 w k.r0;
    W.array W.f64 w k.coarse;
    W.uvarint w k.coarse_got;
    W.option Mpi.Coll.encode w k.coll

  let decode_k r =
    let n_local = R.uvarint r in
    let cycles = R.uvarint r in
    let cycle = R.uvarint r in
    let smooth_left = R.uvarint r in
    let phase = R.uvarint r in
    let u = R.array R.f64 r in
    let f = R.array R.f64 r in
    let halo = decode_halo r in
    let r0 = R.f64 r in
    let coarse = R.array R.f64 r in
    let coarse_got = R.uvarint r in
    let coll = R.option Mpi.Coll.decode r in
    { n_local; cycles; cycle; smooth_left; phase; u; f; halo; r0; coarse; coarse_got; coll }

  (* residual r = f - A u, A = tridiag(-1, 2, -1) (h = 1) *)
  let residual k ~rank ~size i =
    let n = k.n_local in
    let lo = if i = 0 then (if rank = 0 then 0. else k.halo.lo) else k.u.(i - 1) in
    let hi = if i = n - 1 then (if rank = size - 1 then 0. else k.halo.hi) else k.u.(i + 1) in
    k.f.(i) -. ((2. *. k.u.(i)) -. lo -. hi)

  let local_res_norm k ~rank ~size =
    let s = ref 0. in
    for i = 0 to k.n_local - 1 do
      let r = residual k ~rank ~size i in
      s := !s +. (r *. r)
    done;
    !s

  (* restriction P^T r for block-constant aggregation: the *signed sum*
     of local residuals.  With A = tridiag(-1,2,-1), P^T A P is again
     tridiag(-1,2,-1), so the coarse solve below is the exact Galerkin
     coarse-grid correction. *)
  let local_res_sum k ~rank ~size =
    let s = ref 0. in
    for i = 0 to k.n_local - 1 do
      s := !s +. residual k ~rank ~size i
    done;
    !s

  let smooth_cost n = float_of_int (n * 6) *. flop_cost

  let kstep ctx comm k =
    let rank = Mpi.rank comm and size = Mpi.size comm in
    match k.phase with
    | 0 ->
      let halo = send_halo ctx comm k.halo ~first:k.u.(0) ~last:k.u.(k.n_local - 1) in
      K_compute ({ k with phase = 1; halo }, 1e-6)
    | 1 ->
      let k = { k with halo = recv_halo comm k.halo } in
      if k.halo.got_lo && k.halo.got_hi then begin
        (* one weighted-Jacobi sweep *)
        let n = k.n_local in
        let next = Array.make n 0. in
        for i = 0 to n - 1 do
          let lo = if i = 0 then (if rank = 0 then 0. else k.halo.lo) else k.u.(i - 1) in
          let hi = if i = n - 1 then (if rank = size - 1 then 0. else k.halo.hi) else k.u.(i + 1) in
          next.(i) <- (0.333 *. k.u.(i)) +. (0.667 *. ((k.f.(i) +. lo +. hi) /. 2.))
        done;
        Array.blit next 0 k.u 0 n;
        if k.smooth_left > 1 then
          K_compute ({ k with phase = 0; smooth_left = k.smooth_left - 1 }, smooth_cost n)
        else K_compute ({ k with phase = 2 }, smooth_cost n)
      end
      else K_wait k
    | 2 ->
      (* restrict: signed residual sum, sent to rank 0 *)
      let sum = local_res_sum k ~rank ~size in
      if rank = 0 then begin
        let coarse = Array.make size 0. in
        coarse.(0) <- sum;
        K_compute ({ k with phase = 3; coarse; coarse_got = 1 }, 1e-5)
      end
      else begin
        Mpi.send comm ~dst:0 ~tag:'c' (Mpi.f64_str sum);
        Mpi.progress ctx comm;
        K_compute ({ k with phase = 3 }, 1e-5)
      end
    | 3 ->
      if rank = 0 then begin
        let k = ref k in
        let progressed = ref true in
        while !progressed do
          match Mpi.recv_any comm ~tag:'c' with
          | Some (src, p) ->
            !k.coarse.(src) <- Mpi.str_f64 p;
            k := { !k with coarse_got = !k.coarse_got + 1 }
          | None -> progressed := false
        done;
        let k = !k in
        if k.coarse_got >= size then begin
          (* coarse solve: tridiagonal Thomas on the size-point system *)
          let n = size in
          let c' = Array.make n 0. and d' = Array.make n 0. in
          for i = 0 to n - 1 do
            let b = 2. and a = -1. and c = -1. in
            if i = 0 then begin
              c'.(0) <- c /. b;
              d'.(0) <- k.coarse.(0) /. b
            end
            else begin
              let m = b -. (a *. c'.(i - 1)) in
              c'.(i) <- c /. m;
              d'.(i) <- (k.coarse.(i) -. (a *. d'.(i - 1))) /. m
            end
          done;
          let corr = Array.make n 0. in
          corr.(n - 1) <- d'.(n - 1);
          for i = n - 2 downto 0 do
            corr.(i) <- d'.(i) -. (c'.(i) *. corr.(i + 1))
          done;
          (* scatter corrections *)
          for dst = 1 to size - 1 do
            Mpi.send comm ~dst ~tag:'s' (Mpi.f64_str corr.(dst))
          done;
          Mpi.progress ctx comm;
          (* apply own correction (prolongation = block-constant) *)
          for i = 0 to k.n_local - 1 do
            k.u.(i) <- k.u.(i) +. corr.(0)
          done;
          K_compute
            ( { k with phase = 4; coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum (local_res_norm k ~rank ~size))) },
              float_of_int (size * 8) *. flop_cost )
        end
        else K_wait k
      end
      else begin
        match Mpi.recv comm ~src:0 ~tag:'s' with
        | Some p ->
          let corr = Mpi.str_f64 p in
          for i = 0 to k.n_local - 1 do
            k.u.(i) <- k.u.(i) +. corr
          done;
          K_compute
            ( { k with phase = 4; coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum (local_res_norm k ~rank ~size))) },
              smooth_cost k.n_local )
        | None -> K_wait k
      end
    | _ -> (
      match k.coll with
      | None -> K_done (0., false)
      | Some coll ->
        drive_coll ctx comm coll
          ~wrap:(fun c -> { k with coll = Some c })
          ~on_done:(fun res ->
            let k = { k with coll = None; coarse_got = 0; smooth_left = 4; phase = 0 } in
            if Float.is_nan k.r0 then
              K_compute ({ k with r0 = res; cycle = k.cycle + 1 }, 1e-6)
            else if k.cycle + 1 >= k.cycles then
              (* verify: the V-cycles reduced the residual substantially *)
              K_done (res, res < k.r0 /. 10.)
            else K_compute ({ k with cycle = k.cycle + 1 }, 1e-6)))
end

(* ------------------------------------------------------------------ *)
(* LU: pipelined SSOR — forward then backward Gauss–Seidel sweeps over a
   distributed tridiagonal system; rank r's forward sweep waits for rank
   r-1's boundary value (a genuine wavefront dependency). *)

module Lu = struct
  type kstate = {
    n_local : int;
    iters : int;
    iter : int;
    phase : int;  (* 0 forward wait/sweep, 1 backward wait/sweep, 2 residual coll *)
    u : float array;
    f : float array;
    halo_lo : float;  (* boundary value received in the forward sweep *)
    halo_hi : float;  (* boundary value received in the backward sweep *)
    r0 : float;
    coll : Mpi.Coll.st option;
  }

  let prog_name = "nas:lu"
  let short = "lu"
  let mem_bytes = 30_000_000
  let mem_mix = Workload_mem.mostly_numeric
  let neighbors ~rank ~size = ring_neighbors ~rank ~size

  let kinit ~rank ~size:_ ~extra =
    let n_local = 64 in
    let iters = match extra with s :: _ -> int_of_string s | [] -> 60 in
    let rng = Util.Rng.create (Int64.of_int (rank + 4242)) in
    {
      n_local;
      iters;
      iter = 0;
      phase = 0;
      u = Array.make n_local 0.;
      f = Array.init n_local (fun _ -> Util.Rng.float rng 1.0);
      halo_lo = 0.;
      halo_hi = 0.;
      r0 = Float.nan;
      coll = None;
    }

  let encode_k w k =
    W.uvarint w k.n_local;
    W.uvarint w k.iters;
    W.uvarint w k.iter;
    W.uvarint w k.phase;
    W.array W.f64 w k.u;
    W.array W.f64 w k.f;
    W.f64 w k.halo_lo;
    W.f64 w k.halo_hi;
    W.f64 w k.r0;
    W.option Mpi.Coll.encode w k.coll

  let decode_k r =
    let n_local = R.uvarint r in
    let iters = R.uvarint r in
    let iter = R.uvarint r in
    let phase = R.uvarint r in
    let u = R.array R.f64 r in
    let f = R.array R.f64 r in
    let halo_lo = R.f64 r in
    let halo_hi = R.f64 r in
    let r0 = R.f64 r in
    let coll = R.option Mpi.Coll.decode r in
    { n_local; iters; iter; phase; u; f; halo_lo; halo_hi; r0; coll }

  (* residual of the coupled operator, using the boundary values the
     sweeps actually used *)
  let res_norm k =
    let n = k.n_local in
    let s = ref 0. in
    for i = 0 to n - 1 do
      let lo = if i = 0 then k.halo_lo else k.u.(i - 1) in
      let hi = if i = n - 1 then k.halo_hi else k.u.(i + 1) in
      let r = k.f.(i) -. ((2. *. k.u.(i)) -. lo -. hi) in
      s := !s +. (r *. r)
    done;
    !s

  let sweep_cost n = float_of_int (n * 5) *. flop_cost

  let kstep ctx comm k =
    let rank = Mpi.rank comm and size = Mpi.size comm in
    match k.phase with
    | 0 ->
      (* forward: need the updated boundary from rank-1 *)
      let boundary =
        if rank = 0 then Some 0.
        else
          match Mpi.recv comm ~src:(rank - 1) ~tag:'f' with
          | Some p -> Some (Mpi.str_f64 p)
          | None -> None
      in
      (match boundary with
      | None -> K_wait k
      | Some lo ->
        let n = k.n_local in
        let prev = ref lo in
        for i = 0 to n - 1 do
          let hi = if i = n - 1 then k.halo_hi else k.u.(i + 1) in
          k.u.(i) <- (k.f.(i) +. !prev +. hi) /. 2.;
          prev := k.u.(i)
        done;
        if rank < size - 1 then begin
          Mpi.send comm ~dst:(rank + 1) ~tag:'f' (Mpi.f64_str k.u.(n - 1));
          Mpi.progress ctx comm
        end;
        K_compute ({ k with phase = 1; halo_lo = lo }, sweep_cost n))
    | 1 ->
      (* backward: boundary from rank+1 *)
      let boundary =
        if rank = size - 1 then Some 0.
        else
          match Mpi.recv comm ~src:(rank + 1) ~tag:'b' with
          | Some p -> Some (Mpi.str_f64 p)
          | None -> None
      in
      (match boundary with
      | None -> K_wait k
      | Some hi_b ->
        let n = k.n_local in
        let next = ref hi_b in
        for i = n - 1 downto 0 do
          let lo = if i = 0 then k.halo_lo else k.u.(i - 1) in
          k.u.(i) <- (k.f.(i) +. lo +. !next) /. 2.;
          next := k.u.(i)
        done;
        if rank > 0 then begin
          Mpi.send comm ~dst:(rank - 1) ~tag:'b' (Mpi.f64_str k.u.(0));
          Mpi.progress ctx comm
        end;
        let k = { k with halo_hi = hi_b } in
        K_compute
          ( {
              k with
              phase = 2;
              coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum (res_norm k)));
            },
            sweep_cost n ))
    | _ -> (
      match k.coll with
      | None -> K_done (0., false)
      | Some coll ->
        drive_coll ctx comm coll
          ~wrap:(fun c -> { k with coll = Some c })
          ~on_done:(fun res ->
            let k = { k with coll = None; phase = 0 } in
            if Float.is_nan k.r0 then K_compute ({ k with r0 = res; iter = k.iter + 1 }, 1e-6)
            else if k.iter + 1 >= k.iters then K_done (res, res < k.r0)
            else K_compute ({ k with iter = k.iter + 1 }, 1e-6)))
end

(* ------------------------------------------------------------------ *)
(* SP and BT share an ADI-style skeleton: halo exchange, a local line
   solve, and a residual allreduce; they differ in the line solver. *)

module type LINE_SOLVER = sig
  val prog_name : string
  val short : string
  val mem_bytes : int

  (** [solve f lo hi u] overwrites [u] with the solution of the local
      line system given boundary couplings [lo], [hi]; returns the flop
      count. *)
  val solve : float array -> float -> float -> float array -> int
end

module Adi (S : LINE_SOLVER) = struct
  type kstate = {
    n_local : int;
    iters : int;
    iter : int;
    phase : int;  (* 0 send halo, 1 recv + solve, 2 residual coll *)
    u : float array;
    f : float array;
    halo : halo;
    r0 : float;
    coll : Mpi.Coll.st option;
  }

  let prog_name = S.prog_name
  let short = S.short
  let mem_bytes = S.mem_bytes
  let mem_mix = Workload_mem.mostly_numeric
  let neighbors ~rank ~size = ring_neighbors ~rank ~size

  let kinit ~rank ~size:_ ~extra =
    let n_local = 60 in
    let iters = match extra with s :: _ -> int_of_string s | [] -> 50 in
    let rng = Util.Rng.create (Int64.of_int (rank + 90210)) in
    {
      n_local;
      iters;
      iter = 0;
      phase = 0;
      u = Array.make n_local 0.;
      f = Array.init n_local (fun _ -> Util.Rng.float rng 1.0);
      halo = no_halo;
      r0 = Float.nan;
      coll = None;
    }

  let encode_k w k =
    W.uvarint w k.n_local;
    W.uvarint w k.iters;
    W.uvarint w k.iter;
    W.uvarint w k.phase;
    W.array W.f64 w k.u;
    W.array W.f64 w k.f;
    encode_halo w k.halo;
    W.f64 w k.r0;
    W.option Mpi.Coll.encode w k.coll

  let decode_k r =
    let n_local = R.uvarint r in
    let iters = R.uvarint r in
    let iter = R.uvarint r in
    let phase = R.uvarint r in
    let u = R.array R.f64 r in
    let f = R.array R.f64 r in
    let halo = decode_halo r in
    let r0 = R.f64 r in
    let coll = R.option Mpi.Coll.decode r in
    { n_local; iters; iter; phase; u; f; halo; r0; coll }

  let kstep ctx comm k =
    let rank = Mpi.rank comm and size = Mpi.size comm in
    match k.phase with
    | 0 ->
      let halo = send_halo ctx comm k.halo ~first:k.u.(0) ~last:k.u.(k.n_local - 1) in
      K_compute ({ k with phase = 1; halo }, 1e-6)
    | 1 ->
      let k = { k with halo = recv_halo comm k.halo } in
      if k.halo.got_lo && k.halo.got_hi then begin
        (* preconditioned refinement: u <- u + P^-1 (f - A u), with P the
           local penta/block-tridiagonal solver and A the coupled global
           tridiagonal operator *)
        let n = k.n_local in
        let rvec =
          Array.init n (fun i ->
              let lo = if i = 0 then (if rank = 0 then 0. else k.halo.lo) else k.u.(i - 1) in
              let hi =
                if i = n - 1 then (if rank = size - 1 then 0. else k.halo.hi) else k.u.(i + 1)
              in
              k.f.(i) -. ((2. *. k.u.(i)) -. lo -. hi))
        in
        let res = Array.fold_left (fun acc r -> acc +. (r *. r)) 0. rvec in
        let d = Array.make n 0. in
        let flops = S.solve rvec 0. 0. d in
        for i = 0 to n - 1 do
          k.u.(i) <- k.u.(i) +. d.(i)
        done;
        K_compute
          ( { k with phase = 2; coll = Some (Mpi.Coll.start (Mpi.Coll.allreduce_sum res)) },
            float_of_int (flops + (n * 5)) *. flop_cost )
      end
      else K_wait k
    | _ -> (
      match k.coll with
      | None -> K_done (0., false)
      | Some coll ->
        drive_coll ctx comm coll
          ~wrap:(fun c -> { k with coll = Some c })
          ~on_done:(fun res ->
            let k = { k with coll = None; phase = 0 } in
            if Float.is_nan k.r0 then K_compute ({ k with r0 = res; iter = k.iter + 1 }, 1e-6)
            else if k.iter + 1 >= k.iters then K_done (res, res < k.r0)
            else K_compute ({ k with iter = k.iter + 1 }, 1e-6)))
end

(* SP: scalar pentadiagonal line solve (bands -1/4, -1, 3, -1, -1/4),
   diagonally dominant, via banded Gaussian elimination. *)
module Sp_solver = struct
  let prog_name = "nas:sp"
  let short = "sp"
  let mem_bytes = 40_000_000

  let solve f lo hi u =
    let n = Array.length f in
    (* working copies of the five bands *)
    let a2 = Array.make n (-0.25)
    and a1 = Array.make n (-1.0)
    and b = Array.make n 3.0
    and c1 = Array.make n (-1.0)
    and c2 = Array.make n (-0.25) in
    let rhs = Array.init n (fun i -> f.(i) +. (if i = 0 then lo else 0.) +. (if i = n - 1 then hi else 0.)) in
    (* forward elimination *)
    for i = 0 to n - 2 do
      (* eliminate a1.(i+1) *)
      let m = a1.(i + 1) /. b.(i) in
      b.(i + 1) <- b.(i + 1) -. (m *. c1.(i));
      c1.(i + 1) <- c1.(i + 1) -. (m *. c2.(i));
      rhs.(i + 1) <- rhs.(i + 1) -. (m *. rhs.(i));
      (* eliminate a2.(i+2) *)
      if i + 2 < n then begin
        let m2 = a2.(i + 2) /. b.(i) in
        a1.(i + 2) <- a1.(i + 2) -. (m2 *. c1.(i));
        b.(i + 2) <- b.(i + 2) -. (m2 *. c2.(i));
        rhs.(i + 2) <- rhs.(i + 2) -. (m2 *. rhs.(i))
      end
    done;
    (* back substitution *)
    u.(n - 1) <- rhs.(n - 1) /. b.(n - 1);
    if n > 1 then u.(n - 2) <- (rhs.(n - 2) -. (c1.(n - 2) *. u.(n - 1))) /. b.(n - 2);
    for i = n - 3 downto 0 do
      u.(i) <- (rhs.(i) -. (c1.(i) *. u.(i + 1)) -. (c2.(i) *. u.(i + 2))) /. b.(i)
    done;
    n * 14
end

(* BT: block tridiagonal with 3x3 blocks, solved by block Thomas with
   explicit 3x3 inverses. *)
module Bt_solver = struct
  let prog_name = "nas:bt"
  let short = "bt"
  let mem_bytes = 50_000_000

  (* 3x3 helpers over flat float arrays of length 9 (row-major) *)
  let mat_mul a b =
    let c = Array.make 9 0. in
    for i = 0 to 2 do
      for j = 0 to 2 do
        for k = 0 to 2 do
          c.((i * 3) + j) <- c.((i * 3) + j) +. (a.((i * 3) + k) *. b.((k * 3) + j))
        done
      done
    done;
    c

  let mat_vec a v =
    Array.init 3 (fun i -> (a.(i * 3) *. v.(0)) +. (a.((i * 3) + 1) *. v.(1)) +. (a.((i * 3) + 2) *. v.(2)))

  let mat_sub a b = Array.init 9 (fun i -> a.(i) -. b.(i))
  let vec_sub a b = Array.init 3 (fun i -> a.(i) -. b.(i))

  let mat_inv m =
    let det =
      (m.(0) *. ((m.(4) *. m.(8)) -. (m.(5) *. m.(7))))
      -. (m.(1) *. ((m.(3) *. m.(8)) -. (m.(5) *. m.(6))))
      +. (m.(2) *. ((m.(3) *. m.(7)) -. (m.(4) *. m.(6))))
    in
    let d = 1.0 /. det in
    [|
      ((m.(4) *. m.(8)) -. (m.(5) *. m.(7))) *. d;
      ((m.(2) *. m.(7)) -. (m.(1) *. m.(8))) *. d;
      ((m.(1) *. m.(5)) -. (m.(2) *. m.(4))) *. d;
      ((m.(5) *. m.(6)) -. (m.(3) *. m.(8))) *. d;
      ((m.(0) *. m.(8)) -. (m.(2) *. m.(6))) *. d;
      ((m.(2) *. m.(3)) -. (m.(0) *. m.(5))) *. d;
      ((m.(3) *. m.(7)) -. (m.(4) *. m.(6))) *. d;
      ((m.(1) *. m.(6)) -. (m.(0) *. m.(7))) *. d;
      ((m.(0) *. m.(4)) -. (m.(1) *. m.(3))) *. d;
    |]

  (* Block system: D u_i + L u_{i-1} + U u_{i+1} = f_i per 3-block, with
     D diagonally dominant. The scalar grid of length n is reinterpreted
     as n/3 blocks of 3 (n is chosen divisible by 3). *)
  let solve f lo hi u =
    let n = Array.length f in
    let nb = n / 3 in
    let diag = [| 4.; -0.5; 0.; -0.5; 4.; -0.5; 0.; -0.5; 4. |] in
    let off = [| -1.; 0.; 0.; 0.; -1.; 0.; 0.; 0.; -1. |] in
    let rhs =
      Array.init nb (fun bi ->
          Array.init 3 (fun j ->
              let i = (bi * 3) + j in
              f.(i) +. (if i = 0 then lo else 0.) +. (if i = n - 1 then hi else 0.)))
    in
    (* block Thomas *)
    let cprime = Array.make nb [||] in
    let dprime = Array.make nb [||] in
    let inv0 = mat_inv diag in
    cprime.(0) <- mat_mul inv0 off;
    dprime.(0) <- mat_vec inv0 rhs.(0);
    for i = 1 to nb - 1 do
      let denom = mat_sub diag (mat_mul off cprime.(i - 1)) in
      let inv = mat_inv denom in
      cprime.(i) <- mat_mul inv off;
      dprime.(i) <- mat_vec inv (vec_sub rhs.(i) (mat_vec off dprime.(i - 1)))
    done;
    let sol = Array.make nb [||] in
    sol.(nb - 1) <- dprime.(nb - 1);
    for i = nb - 2 downto 0 do
      sol.(i) <- vec_sub dprime.(i) (mat_vec cprime.(i) sol.(i + 1))
    done;
    for bi = 0 to nb - 1 do
      for j = 0 to 2 do
        u.((bi * 3) + j) <- sol.(bi).(j)
      done
    done;
    nb * 150
end

module Sp = Adi (Sp_solver)
module Bt = Adi (Bt_solver)

module P_baseline = Make (Baseline)
module P_ep = Make (Ep)
module P_is = Make (Is)
module P_cg = Make (Cg)
module P_mg = Make (Mg)
module P_lu = Make (Lu)
module P_sp = Make (Sp)
module P_bt = Make (Bt)

let catalog =
  [
    (Baseline.prog_name, Baseline.mem_bytes);
    (Ep.prog_name, Ep.mem_bytes);
    (Is.prog_name, Is.mem_bytes);
    (Cg.prog_name, Cg.mem_bytes);
    (Mg.prog_name, Mg.mem_bytes);
    (Lu.prog_name, Lu.mem_bytes);
    (Sp.prog_name, Sp.mem_bytes);
    (Bt.prog_name, Bt.mem_bytes);
  ]

let () =
  List.iter Simos.Program.register
    [
      (module P_baseline : Simos.Program.S);
      (module P_ep);
      (module P_is);
      (module P_cg);
      (module P_mg);
      (module P_lu);
      (module P_sp);
      (module P_bt);
    ]
