module W = Util.Codec.Writer
module R = Util.Codec.Reader

let prog_name = "apps:synthetic"

module K = struct
  type kstate = {
    mb : int;
    rounds : int;
    round : int;
    allocated : bool;
    coll : Mpi.Coll.st option;
  }

  let prog_name = prog_name
  let short = "synthetic"

  (* the footprint is allocated from kstep (it is argv-dependent), so the
     framework-level allocation is a token amount *)
  let mem_bytes = 1_000_000
  let mem_mix = Workload_mem.mostly_code
  let neighbors ~rank:_ ~size:_ = []

  let kinit ~rank:_ ~size:_ ~extra =
    let mb, rounds =
      match extra with
      | [ mb ] -> (int_of_string mb, 10_000)
      | mb :: rounds :: _ -> (int_of_string mb, int_of_string rounds)
      | [] -> (64, 10_000)
    in
    { mb; rounds; round = 0; allocated = false; coll = None }

  let encode_k w k =
    W.uvarint w k.mb;
    W.uvarint w k.rounds;
    W.uvarint w k.round;
    W.bool w k.allocated;
    W.option Mpi.Coll.encode w k.coll

  let decode_k r =
    let mb = R.uvarint r in
    let rounds = R.uvarint r in
    let round = R.uvarint r in
    let allocated = R.bool r in
    let coll = R.option Mpi.Coll.decode r in
    { mb; rounds; round; allocated; coll }

  let kstep ctx comm k =
    if not k.allocated then begin
      ignore
        (Workload_mem.alloc ctx ~bytes:(k.mb * 1_000_000) ~mix:Workload_mem.all_random
           ~seed:(Mpi.rank comm + 1));
      Nas.K_compute ({ k with allocated = true }, float_of_int k.mb *. 1e-4)
    end
    else
      match k.coll with
      | Some coll ->
        Nas.drive_coll ctx comm coll
          ~wrap:(fun c -> { k with coll = Some c })
          ~on_done:(fun _ ->
            if k.round + 1 >= k.rounds then Nas.K_done (float_of_int k.round, true)
            else Nas.K_compute ({ k with coll = None; round = k.round + 1 }, 20e-3))
      | None -> Nas.K_compute ({ k with coll = Some (Mpi.Coll.start Mpi.Coll.barrier) }, 1e-4)
end

module P = Nas.Make (K)

let () = Simos.Program.register (module P : Simos.Program.S)
