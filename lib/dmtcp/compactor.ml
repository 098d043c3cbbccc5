(* Background delta-chain compaction.

   Incremental checkpointing bounds chain depth at *write* time (the
   manager's delta_chain constant), but preempted or idle lineages can
   still sit behind long chains: every restart replays the whole chain
   and the GC keep-set must close over it.  The compactor squashes a deep chain
   from the store side: it resolves the delta to its full MTCP image
   (the same chain walk restart performs), re-encodes it as a
   self-contained full image, and re-puts it at the SAME catalog name —
   so every reference to the image (restart scripts, child deltas using
   it as a base, pins) keeps working, now at chain depth 0.  PR 6's
   delta codec guarantees the reconstruction encodes byte-identically
   to the full image a non-incremental checkpoint would have written,
   so the re-put dedups against any full frames already stored.

   Write time for the consolidated image is booked on the storage
   targets like any other put — background work still consumes disk
   bandwidth honestly. *)

let m_compactions = Trace.Metrics.counter "store.compactions"

(* Manifests whose chain is deeper than [depth], newest first.  Only
   deltas qualify; compacting one shortens every chain that resolves
   through it. *)
let candidates store ~depth =
  List.filter
    (fun (m : Store.manifest) ->
      m.Store.m_base <> None && Image_chain.catalog_depth store ~name:m.Store.m_name > depth)
    (Store.manifests store)

(* Chain bases come from the store catalog only, with no storage time
   booked: the compactor reads through [peek], and its cost model is the
   consolidated write, which dominates. *)
let load store name =
  Option.map
    (fun bytes -> (Ckpt_image.decode bytes, Image_chain.Store))
    (Store.peek store ~name)

(* Squash one manifest into a consolidated full image at the same
   catalog name.  Returns the booked write delay, or [None] when the
   chain cannot be resolved (missing blocks, damage) — compaction is an
   optimization and must never turn a degraded-but-restartable chain
   into a failure, so every error path leaves the catalog untouched. *)
let compact_one store ~node (m : Store.manifest) =
  match Store.peek store ~name:m.Store.m_name with
  | None -> None
  | Some bytes -> (
    match
      let img = Ckpt_image.decode bytes in
      let chain = Image_chain.images ~load:(load store) img in
      let mtcp = Image_chain.mtcp ~name:m.Store.m_name img chain in
      let full =
        {
          img with
          Ckpt_image.delta_base = None;
          mtcp_blob = Mtcp.Image.encode ~algo:img.Ckpt_image.algo mtcp;
          sizes = Mtcp.Image.sizes img.Ckpt_image.algo mtcp;
        }
      in
      (full, Ckpt_image.encode full)
    with
    | exception _ -> None
    | full, enc ->
      let delay =
        Store.put store ~compacted:true ~node ~lineage:m.Store.m_lineage
          ~generation:m.Store.m_generation ~name:m.Store.m_name ~program:m.Store.m_program
          ~sim_bytes:full.Ckpt_image.sizes.Mtcp.Image.compressed
          ~chunks:(Ckpt_image.chunk enc)
      in
      Trace.Metrics.incr m_compactions;
      Some delay)

(* One compaction pass: squash up to [max] over-deep chains, then GC
   each touched lineage — with the chain cut, generations that were
   only alive as somebody's base become reclaimable (pins are respected
   by the GC as always). *)
let run ?(max = 1) store ~node ~depth =
  let rec go n acc = function
    | [] -> acc
    | _ when n = 0 -> acc
    | (m : Store.manifest) :: rest -> (
      match compact_one store ~node m with
      | None -> go n acc rest
      | Some _ ->
        ignore (Store.gc_lineage store ~lineage:m.Store.m_lineage);
        go (n - 1) (m.Store.m_name :: acc) rest)
  in
  List.rev (go max [] (candidates store ~depth))
