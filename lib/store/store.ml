(* Replicated content-addressed checkpoint store.

   Checkpoint images are chunked by the caller (at DMZ2 frame
   boundaries) and each chunk is addressed by its (CRC-32, length)
   digest.  A chunk is written to storage targets once, no matter how
   many generations reference it: successive checkpoints of the same
   process pay only for the frames their dirtied pages re-encoded.  New
   chunks are replicated to [replicas] targets on distinct nodes; the
   writer waits for a [quorum] of them, and the rest complete in the
   background (their service time is booked on the target cursor either
   way).  A per-cluster catalog maps (lineage, generation, image name)
   to the chunk list, and a generational GC keeps the newest [keep]
   generations per lineage, reclaiming chunks nothing references.

   Two byte currencies flow through here, as everywhere in the
   simulation: the *real* bytes of the encoded image (small OCaml
   strings, what gets content-addressed and restored bit-identically)
   and the *simulated* bytes of the modeled checkpoint (what storage
   delays are computed from).  Every put carries the image's simulated
   size; per-chunk bookings scale real chunk lengths by
   sim_bytes/real_len so the delay a deduplicated generation pays is
   proportional to the bytes it actually ships. *)

module Digest = struct
  type t = { crc : int32; fnv : int64; len : int }

  (* (crc, len) alone is NOT collision-resistant for checkpoint chunks:
     image prefixes end in a CRC-32 of the metadata they carry, and
     CRC(m ++ CRC(m)) is a constant residue — every same-length prefix
     chunk hashes alike, so dedup would splice one process's identity
     onto another's image.  An independent FNV-1a 64 component breaks
     the algebra. *)
  let fnv1a64 s =
    let h = ref 0xcbf29ce484222325L in
    for i = 0 to String.length s - 1 do
      let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
      h := Int64.mul (Int64.logxor !h c) 0x100000001b3L
    done;
    !h

  let of_chunk c =
    { crc = Util.Crc32.digest c; fnv = fnv1a64 c; len = String.length c }

  let to_string d = Printf.sprintf "%08lx:%d" d.crc d.len
  let equal (a : t) b = a.crc = b.crc && a.fnv = b.fnv && a.len = b.len
  let compare (a : t) b = compare (a.crc, a.fnv, a.len) (b.crc, b.fnv, b.len)
end

exception Missing_blocks of string list

type block = {
  b_bytes : string;
  mutable b_refs : int;        (* manifest references (occurrences) *)
  mutable b_replicas : int list;  (* nodes holding a copy, primary first *)
  b_sim_len : int;             (* modeled bytes booked per copy at write *)
}

type manifest = {
  m_lineage : string;
  m_generation : int;
  m_name : string;             (* image filename, unique per upid *)
  m_program : string;
  m_blocks : Digest.t list;    (* in image order *)
  m_real_len : int;
  m_sim_bytes : int;
  m_base : string option;      (* delta images: name of the base image *)
}

type stats = {
  blocks_written : int;
  blocks_deduped : int;
  blocks_replicated : int;     (* extra copies beyond the primary *)
  blocks_gcd : int;
  bytes_written : int;         (* modeled bytes, primary copy *)
  bytes_deduped : int;         (* modeled bytes dedup avoided writing *)
  bytes_reclaimed : int;       (* modeled bytes freed by GC/overwrite *)
}

type gc_report = { gc_manifests : int; gc_blocks : int; gc_bytes : int }

type t = {
  eng : Sim.Engine.t;
  targets : Storage.Target.t array;
  replicas : int;
  quorum : int;
  keep : int;
  blocks : (Digest.t, block) Hashtbl.t;
  mutable manifests : manifest list;  (* newest first *)
  dead : (int, unit) Hashtbl.t;       (* nodes whose disks are lost *)
  pins : (string, int) Hashtbl.t;     (* lineage -> generation GC must keep *)
  mutable st : stats;
}

let zero_stats =
  {
    blocks_written = 0;
    blocks_deduped = 0;
    blocks_replicated = 0;
    blocks_gcd = 0;
    bytes_written = 0;
    bytes_deduped = 0;
    bytes_reclaimed = 0;
  }

let m_blocks_written = Trace.Metrics.counter "store.blocks_written"
let m_blocks_deduped = Trace.Metrics.counter "store.blocks_deduped"
let m_blocks_replicated = Trace.Metrics.counter "store.blocks_replicated"
let m_blocks_gcd = Trace.Metrics.counter "store.blocks_gcd"
let m_bytes_written = Trace.Metrics.counter "store.bytes_written"
let m_bytes_deduped = Trace.Metrics.counter "store.bytes_deduped"
let m_bytes_reclaimed = Trace.Metrics.counter "store.bytes_reclaimed"

let trace_store t name args =
  if Trace.on () then
    Trace.instant ~cat:"store" ~name:("store/" ^ name) ~args ~time:(Sim.Engine.now t.eng) ()

let create ?(replicas = 2) ?quorum ?(keep = 2) ~engine ~targets () =
  if Array.length targets = 0 then invalid_arg "Store.create: no targets";
  let replicas = max 1 (min replicas (Array.length targets)) in
  let quorum =
    match quorum with
    | Some q -> max 1 (min q replicas)
    | None -> (replicas / 2) + 1  (* majority *)
  in
  {
    eng = engine;
    targets;
    replicas;
    quorum;
    keep = max 0 keep;
    blocks = Hashtbl.create 256;
    manifests = [];
    dead = Hashtbl.create 4;
    pins = Hashtbl.create 8;
    st = zero_stats;
  }

let replicas t = t.replicas
let quorum t = t.quorum
let keep t = t.keep
let stats t = t.st
let manifests t = t.manifests
let find t ~name = List.find_opt (fun m -> m.m_name = name) t.manifests

let node_alive t node = node >= 0 && node < Array.length t.targets && not (Hashtbl.mem t.dead node)

(* Replica placement: the writing node first (restart normally happens
   where the checkpoint was taken), then the next alive nodes ring-wise,
   all distinct. *)
let placement t ~primary =
  let n = Array.length t.targets in
  let rec go acc i want tries =
    if want = 0 || tries = 0 then List.rev acc
    else
      let i = i mod n in
      if node_alive t i && not (List.mem i acc) then go (i :: acc) (i + 1) (want - 1) (tries - 1)
      else go acc (i + 1) want (tries - 1)
  in
  go [] primary t.replicas n

let scaled scale len = int_of_float ((float_of_int len *. scale) +. 0.5)

(* Drop one manifest's references; blocks nothing references any more
   are reclaimed from every replica.  Shared by GC and same-name
   overwrite (interval checkpoints re-put the same image name). *)
let release_manifest t m =
  let freed_blocks = ref 0 and freed_bytes = ref 0 in
  List.iter
    (fun d ->
      match Hashtbl.find_opt t.blocks d with
      | None -> ()
      | Some b ->
        b.b_refs <- b.b_refs - 1;
        if b.b_refs <= 0 then begin
          Hashtbl.remove t.blocks d;
          incr freed_blocks;
          freed_bytes := !freed_bytes + b.b_sim_len
        end)
    m.m_blocks;
  Trace.Metrics.add m_blocks_gcd (float_of_int !freed_blocks);
  Trace.Metrics.add m_bytes_reclaimed (float_of_int !freed_bytes);
  t.st <-
    {
      t.st with
      blocks_gcd = t.st.blocks_gcd + !freed_blocks;
      bytes_reclaimed = t.st.bytes_reclaimed + !freed_bytes;
    };
  (!freed_blocks, !freed_bytes)

let put ?base t ~node ~lineage ~generation ~name ~program ~sim_bytes ~chunks =
  if not (node_alive t node) then invalid_arg "Store.put: writing node's disk is gone";
  let real_len = List.fold_left (fun acc c -> acc + String.length c) 0 chunks in
  let scale = if real_len = 0 then 0. else float_of_int sim_bytes /. float_of_int real_len in
  (* same-name re-put (interval checkpoint at the same generation):
     replace the old manifest — but only release it AFTER the new
     chunks are deduped/increfed, so the shared blocks survive the
     swap instead of being freed and immediately re-shipped *)
  let replaced = find t ~name in
  let digests = List.map Digest.of_chunk chunks in
  (* completion delay accumulated per replica node; sequential bookings
     on one target serialize on its cursor, so the last booking's delay
     is that node's completion time *)
  let completion = Hashtbl.create 8 in
  let repl = placement t ~primary:node in
  let new_blocks = ref 0 and dup_blocks = ref 0 in
  let new_bytes = ref 0 and dup_bytes = ref 0 in
  List.iter2
    (fun d chunk ->
      match Hashtbl.find_opt t.blocks d with
      | Some b ->
        b.b_refs <- b.b_refs + 1;
        incr dup_blocks;
        dup_bytes := !dup_bytes + scaled scale (String.length chunk)
      | None ->
        let sim_len = scaled scale (String.length chunk) in
        Hashtbl.add t.blocks d { b_bytes = chunk; b_refs = 1; b_replicas = repl; b_sim_len = sim_len };
        incr new_blocks;
        new_bytes := !new_bytes + sim_len;
        List.iter
          (fun r ->
            let delay = Storage.Target.write t.targets.(r) ~bytes:sim_len in
            Hashtbl.replace completion r delay)
          repl)
    digests chunks;
  (match replaced with
  | Some old ->
    ignore (release_manifest t old);
    t.manifests <- List.filter (fun m -> m.m_name <> name) t.manifests
  | None -> ());
  (* catalog update: a small metadata write on the primary *)
  let manifest_bytes = 64 + (16 * List.length digests) in
  let meta_delay = Storage.Target.write t.targets.(node) ~bytes:manifest_bytes in
  Hashtbl.replace completion node (Float.max meta_delay (Option.value ~default:0. (Hashtbl.find_opt completion node)));
  t.manifests <-
    {
      m_lineage = lineage;
      m_generation = generation;
      m_name = name;
      m_program = program;
      m_blocks = digests;
      m_real_len = real_len;
      m_sim_bytes = sim_bytes;
      m_base = base;
    }
    :: t.manifests;
  Trace.Metrics.add m_blocks_written (float_of_int !new_blocks);
  Trace.Metrics.add m_blocks_deduped (float_of_int !dup_blocks);
  Trace.Metrics.add m_bytes_written (float_of_int !new_bytes);
  Trace.Metrics.add m_bytes_deduped (float_of_int !dup_bytes);
  (let extra = !new_blocks * (List.length repl - 1) in
   Trace.Metrics.add m_blocks_replicated (float_of_int extra);
   t.st <-
     {
       t.st with
       blocks_written = t.st.blocks_written + !new_blocks;
       blocks_deduped = t.st.blocks_deduped + !dup_blocks;
       blocks_replicated = t.st.blocks_replicated + extra;
       bytes_written = t.st.bytes_written + !new_bytes;
       bytes_deduped = t.st.bytes_deduped + !dup_bytes;
     });
  trace_store t "put"
    [
      ("name", name);
      ("lineage", lineage);
      ("gen", string_of_int generation);
      ("new", string_of_int !new_blocks);
      ("dedup", string_of_int !dup_blocks);
    ];
  (* quorum semantics: the put completes when the [quorum]-th replica
     node finishes its writes; the rest drain in the background *)
  let delays = Hashtbl.fold (fun _ d acc -> d :: acc) completion [] |> List.sort compare in
  let nth = min (t.quorum - 1) (List.length delays - 1) in
  if delays = [] then 0. else List.nth delays (max 0 nth)

(* Missing-block census for one manifest: digests with no surviving
   replica (or evicted from the table entirely). *)
let missing_of t m =
  List.filter_map
    (fun d ->
      match Hashtbl.find_opt t.blocks d with
      | Some b when b.b_replicas <> [] -> None
      | _ -> Some (Digest.to_string d))
    m.m_blocks
  |> List.sort_uniq compare

let contains t ~name =
  match find t ~name with None -> false | Some m -> missing_of t m = []

(* Reassemble without booking any storage time: inspection/debugging. *)
let peek t ~name =
  match find t ~name with
  | None -> None
  | Some m ->
    if missing_of t m <> [] then None
    else begin
      let buf = Buffer.create m.m_real_len in
      List.iter
        (fun d ->
          match Hashtbl.find_opt t.blocks d with
          | Some b -> Buffer.add_string buf b.b_bytes
          | None -> ())
        m.m_blocks;
      Some (Buffer.contents buf)
    end

let fetch t ~node ~name =
  match find t ~name with
  | None -> None
  | Some m ->
    let missing = missing_of t m in
    if missing <> [] then raise (Missing_blocks missing);
    let scale =
      if m.m_real_len = 0 then 0. else float_of_int m.m_sim_bytes /. float_of_int m.m_real_len
    in
    let buf = Buffer.create m.m_real_len in
    let completion = Hashtbl.create 8 in
    let remote = ref 0 in
    List.iter
      (fun d ->
        let b = Hashtbl.find t.blocks d in
        Buffer.add_string buf b.b_bytes;
        (* stripe: each block reads from the least-loaded surviving
           replica (the reader's own disk wins ties, then lowest node
           id), so an N-replica image streams from all N targets in
           parallel; per-target queuing stays honest through the
           target's serialization cursor *)
        let load r = Option.value ~default:0. (Hashtbl.find_opt completion r) in
        let pref r = (load r, (if r = node then 0 else 1), r) in
        let src =
          List.fold_left
            (fun best r -> if pref r < pref best then r else best)
            (List.hd b.b_replicas) (List.tl b.b_replicas)
        in
        if src <> node then incr remote;
        (* this image's share of its modeled bytes: [b_sim_len] was
           scaled by whichever image first wrote the block *)
        let delay =
          Storage.Target.read t.targets.(src) ~bytes:(scaled scale (String.length b.b_bytes))
        in
        Hashtbl.replace completion src delay)
      m.m_blocks;
    let delay = Hashtbl.fold (fun _ d acc -> Float.max d acc) completion 0. in
    trace_store t "fetch"
      [
        ("name", name);
        ("blocks", string_of_int (List.length m.m_blocks));
        ("remote", string_of_int !remote);
      ];
    Some (Buffer.contents buf, delay)

(* Pins: a scheduler holding a preempted job's image as its only copy
   marks the (lineage, generation) so no GC — generational retention or
   an operator `store gc` — can collect it, even when pid reuse piles
   another job's generations onto the same lineage. *)
let pin t ~lineage ~generation =
  Hashtbl.replace t.pins lineage generation;
  trace_store t "pin" [ ("lineage", lineage); ("generation", string_of_int generation) ]

let unpin t ~lineage =
  if Hashtbl.mem t.pins lineage then begin
    Hashtbl.remove t.pins lineage;
    trace_store t "unpin" [ ("lineage", lineage) ]
  end

let pinned t ~lineage = Hashtbl.find_opt t.pins lineage

let pin_protects t m =
  match Hashtbl.find_opt t.pins m.m_lineage with
  | Some g -> m.m_generation >= g
  | None -> false

(* Generational retention: keep the newest [keep] generations of one
   lineage (a re-put same-generation manifest is already deduped by
   name), release everything older. *)
let gc_lineage ?keep t ~lineage =
  let keep = match keep with Some k -> k | None -> t.keep in
  if keep <= 0 then { gc_manifests = 0; gc_blocks = 0; gc_bytes = 0 }
  else begin
    let mine = List.filter (fun m -> m.m_lineage = lineage) t.manifests in
    let gens =
      List.map (fun m -> m.m_generation) mine
      |> List.sort_uniq compare |> List.rev
    in
    match List.nth_opt gens (keep - 1) with
    | None -> { gc_manifests = 0; gc_blocks = 0; gc_bytes = 0 }
    | Some oldest_kept ->
      (* The keep-set is every manifest inside the retention window or
         under a pin, closed under delta-base references: a kept delta
         keeps the whole chain it resolves through, even when a base
         sits in a generation older than the cut.  The walk stops at a
         base missing from the lineage and at a cycle. *)
      let by_name = Hashtbl.create 16 in
      List.iter
        (fun m -> if not (Hashtbl.mem by_name m.m_name) then Hashtbl.add by_name m.m_name m)
        mine;
      let keep_names = Hashtbl.create 16 in
      List.iter
        (fun m ->
          if m.m_generation >= oldest_kept || pin_protects t m then begin
            let chain =
              Util.Chain.walk ~base_of:(fun b -> b.m_base) ~load:(Hashtbl.find_opt by_name)
                m.m_base
            in
            List.iter
              (fun name -> Hashtbl.replace keep_names name ())
              (m.m_name :: List.map fst chain.Util.Chain.links)
          end)
        mine;
      let doomed = List.filter (fun m -> not (Hashtbl.mem keep_names m.m_name)) mine in
      if doomed = [] then { gc_manifests = 0; gc_blocks = 0; gc_bytes = 0 }
      else begin
        let blocks = ref 0 and bytes = ref 0 in
        List.iter
          (fun m ->
            let fb, fby = release_manifest t m in
            blocks := !blocks + fb;
            bytes := !bytes + fby)
          doomed;
        t.manifests <-
          List.filter
            (fun m -> not (m.m_lineage = lineage && not (Hashtbl.mem keep_names m.m_name)))
            t.manifests;
        let r = { gc_manifests = List.length doomed; gc_blocks = !blocks; gc_bytes = !bytes } in
        trace_store t "gc"
          [
            ("lineage", lineage);
            ("manifests", string_of_int r.gc_manifests);
            ("blocks", string_of_int r.gc_blocks);
          ];
        r
      end
  end

let gc ?keep t =
  let lineages = List.map (fun m -> m.m_lineage) t.manifests |> List.sort_uniq compare in
  List.fold_left
    (fun acc l ->
      let r = gc_lineage ?keep t ~lineage:l in
      {
        gc_manifests = acc.gc_manifests + r.gc_manifests;
        gc_blocks = acc.gc_blocks + r.gc_blocks;
        gc_bytes = acc.gc_bytes + r.gc_bytes;
      })
    { gc_manifests = 0; gc_blocks = 0; gc_bytes = 0 }
    lineages

(* Fail-stop disk loss: every replica on the node is gone.  Distinct
   from a process crash — the simulated VFS survives those. *)
let drop_node t node =
  Hashtbl.replace t.dead node ();
  Hashtbl.iter (fun _ b -> b.b_replicas <- List.filter (fun r -> r <> node) b.b_replicas) t.blocks;
  trace_store t "drop-node" [ ("node", string_of_int node) ]

let block_count t = Hashtbl.length t.blocks

let replica_count t ~digest =
  match Hashtbl.find_opt t.blocks digest with Some b -> List.length b.b_replicas | None -> 0

(* Catalog self-check: every referenced block must exist, match its
   digest, and have at least one surviving replica. *)
let verify t =
  List.concat_map
    (fun m ->
      (match m.m_base with
      | Some b when not (List.exists (fun m2 -> m2.m_name = b) t.manifests) ->
        [ Printf.sprintf "%s: delta base %s missing from catalog" m.m_name b ]
      | _ -> [])
      @
      List.filter_map
        (fun d ->
          match Hashtbl.find_opt t.blocks d with
          | None ->
            Some (Printf.sprintf "%s: block %s missing from table" m.m_name (Digest.to_string d))
          | Some b ->
            if b.b_replicas = [] then
              Some (Printf.sprintf "%s: block %s has no surviving replica" m.m_name (Digest.to_string d))
            else if not (Digest.equal (Digest.of_chunk b.b_bytes) d) then
              Some (Printf.sprintf "%s: block %s content does not match digest" m.m_name (Digest.to_string d))
            else None)
        (List.sort_uniq Digest.compare m.m_blocks))
    t.manifests
