module Ckpt_image = Dmtcp.Ckpt_image
module Conn_id = Dmtcp.Conn_id
module Conn_table = Dmtcp.Conn_table
module Image_chain = Dmtcp.Image_chain
module Restart_script = Dmtcp.Restart_script
module Runtime = Dmtcp.Runtime
module Upid = Dmtcp.Upid

let bf = Printf.bprintf

let describe_fd buf (fd, desc_key, info) =
  match info with
  | Ckpt_image.FFile { path; offset } ->
    bf buf "  fd %-3d file    %s @%d (desc %d)\n" fd path offset desc_key
  | Ckpt_image.FSock { state; kind; role; conn_id; drained; _ } ->
    let state_s =
      match state with
      | Ckpt_image.S_established -> "established"
      | Ckpt_image.S_listening { port; unix_path; _ } -> (
        match port, unix_path with
        | Some p, _ -> Printf.sprintf "listening :%d" p
        | _, Some path -> Printf.sprintf "listening %s" path
        | None, None -> "listening")
      | Ckpt_image.S_other -> "unconnected"
    in
    let kind_s =
      match kind with
      | Conn_table.Tcp -> "tcp"
      | Conn_table.Unixsock -> "unix"
      | Conn_table.Pair -> "pair"
    in
    let role_s =
      match role with
      | Conn_table.Connector -> "connector"
      | Conn_table.Acceptor -> "acceptor"
      | Conn_table.Pair_a -> "pair-a"
      | Conn_table.Pair_b -> "pair-b"
    in
    bf buf "  fd %-3d socket  %s %s %s id=%s drained=%dB (desc %d)\n" fd kind_s state_s role_s
      (Conn_id.to_key conn_id) (String.length drained) desc_key
  | Ckpt_image.FPty { master; pty_key } ->
    bf buf "  fd %-3d pty-%s   key=%d (desc %d)\n" fd (if master then "m" else "s") pty_key desc_key

let page_census space =
  let zero = ref 0 and mat = ref 0 in
  let by_class = Hashtbl.create 8 in
  List.iter
    (fun (r : Mem.Region.t) ->
      Array.iter
        (fun page ->
          match page with
          | Mem.Page.Zero -> incr zero
          | Mem.Page.Materialized _ -> incr mat
          | Mem.Page.Synthetic { cls; _ } ->
            Hashtbl.replace by_class cls
              (1 + Option.value ~default:0 (Hashtbl.find_opt by_class cls)))
        r.Mem.Region.pages)
    (Mem.Address_space.regions space);
  (!zero, !mat, Hashtbl.fold (fun c n acc -> (c, n) :: acc) by_class [] |> List.sort compare)

let describe ~chain (img : Ckpt_image.t) =
  let buf = Buffer.create 1024 in
  bf buf "=== checkpoint image: %s ===\n" (Ckpt_image.filename img);
  bf buf "program: %s   upid: %s   vpid: %d%s\n" img.Ckpt_image.program
    (Upid.to_string img.Ckpt_image.upid)
    img.Ckpt_image.vpid
    (if img.Ckpt_image.parent_vpid <> 0 then Printf.sprintf "   parent vpid: %d" img.Ckpt_image.parent_vpid
     else "");
  let sizes = img.Ckpt_image.sizes in
  bf buf "image: %s on disk (%s resident, %s untouched), scheme %s\n"
    (Util.Units.pp_mb sizes.Mtcp.Image.compressed)
    (Util.Units.pp_mb sizes.Mtcp.Image.uncompressed)
    (Util.Units.pp_mb sizes.Mtcp.Image.zero_bytes)
    (Compress.Algo.name img.Ckpt_image.algo);
  (* chain depth = hops to the nearest full image; a broken chain
     reports how far it got *)
  Option.iter
    (fun base ->
      bf buf "incremental delta against: %s (chain depth %d)\n" base (Util.Chain.depth chain))
    img.Ckpt_image.delta_base;
  bf buf "file descriptors (%d):\n" (List.length img.Ckpt_image.fds);
  List.iter (describe_fd buf) img.Ckpt_image.fds;
  List.iter
    (fun (p : Ckpt_image.pty_record) ->
      bf buf "  pty %d (%s): icanon=%b echo=%b isig=%b %dbaud, queued %dB/%dB\n"
        p.Ckpt_image.pty_key p.Ckpt_image.pr_name p.Ckpt_image.icanon p.Ckpt_image.echo
        p.Ckpt_image.isig p.Ckpt_image.baud
        (String.length p.Ckpt_image.drained_to_slave)
        (String.length p.Ckpt_image.drained_to_master))
    img.Ckpt_image.ptys;
  let mtcp =
    match chain.Util.Chain.missing with
    | Some _ -> None
    | None -> Some (Image_chain.mtcp ~name:(Ckpt_image.filename img) img chain)
  in
  match mtcp with
  | None ->
    bf buf "(delta body: base image unavailable; threads/memory omitted)\n";
    Buffer.contents buf
  | Some mtcp ->
  bf buf "threads (%d):\n" (List.length mtcp.Mtcp.Image.threads);
  List.iter
    (fun (ti : Mtcp.Image.thread_image) ->
      let wait_s =
        match ti.Mtcp.Image.ti_wait with
        | None -> "runnable"
        | Some (Simos.Program.Readable fd) -> Printf.sprintf "blocked read(fd %d)" fd
        | Some (Simos.Program.Readable_any fds) ->
          Printf.sprintf "blocked read(any of %d fds)" (List.length fds)
        | Some (Simos.Program.Writable fd) -> Printf.sprintf "blocked write(fd %d)" fd
        | Some (Simos.Program.Sleep_until t) -> Printf.sprintf "sleeping until t=%.3f" t
        | Some Simos.Program.Child -> "waiting for a child"
        | Some Simos.Program.Stopped -> "stopped"
      in
      bf buf "  %s: %s\n" (Simos.Program.name_of ti.Mtcp.Image.ti_inst) wait_s)
    mtcp.Mtcp.Image.threads;
  if mtcp.Mtcp.Image.sigtable <> [] then begin
    bf buf "signal table:\n";
    List.iter
      (fun (s, a) ->
        bf buf "  signal %-2d %s\n" s
          (match a with
          | Simos.Kernel.Sig_default -> "default"
          | Simos.Kernel.Sig_ignore -> "ignore"
          | Simos.Kernel.Sig_handler h -> "handler " ^ h))
      mtcp.Mtcp.Image.sigtable
  end;
  let regions = Mem.Address_space.regions mtcp.Mtcp.Image.space in
  let zero, mat, by_class = page_census mtcp.Mtcp.Image.space in
  bf buf "memory: %d regions, %s; pages: %d zero, %d materialized%s\n" (List.length regions)
    (Util.Units.pp_mb (Mem.Address_space.total_bytes mtcp.Mtcp.Image.space))
    zero mat
    (String.concat ""
       (List.map (fun (c, n) -> Printf.sprintf ", %d %s" n (Mem.Entropy.name c)) by_class));
  Buffer.contents buf

let describe_checkpoint rt (script : Restart_script.t) =
  let buf = Buffer.create 4096 in
  bf buf "checkpoint set: %d host(s), coordinator on node %d\n"
    (List.length script.Restart_script.entries)
    script.Restart_script.coord_host;
  (* images by path: any node's flat file, then the block store (no
     storage time booked — inspection only) *)
  List.iter
    (fun (host, images) ->
      List.iter
        (fun path ->
          match Image_chain.read rt path with
          | Some (bytes, _) ->
            let img = Ckpt_image.decode bytes in
            Buffer.add_string buf (describe ~chain:(Image_chain.peek_chain rt path img) img)
          | None -> bf buf "(missing image %s on node %d)\n" path host)
        images)
    script.Restart_script.entries;
  (* per-lineage delta-chain health, when checkpoints live in the store:
     the newest manifest's chain depth is what the next restart pays *)
  (match Runtime.store rt with
  | None -> ()
  | Some store ->
    let newest = Hashtbl.create 8 in
    List.iter
      (fun (m : Store.manifest) ->
        if not (Hashtbl.mem newest m.Store.m_lineage) then
          Hashtbl.add newest m.Store.m_lineage m)
      (Store.manifests store);
    let lineages = Hashtbl.fold (fun l m acc -> (l, m) :: acc) newest [] |> List.sort compare in
    if lineages <> [] then begin
      bf buf "store lineages (%d):\n" (List.length lineages);
      List.iter
        (fun (lineage, (m : Store.manifest)) ->
          bf buf "  %s: newest %s gen %d, chain depth %d\n" lineage m.Store.m_name
            m.Store.m_generation
            (Image_chain.catalog_depth store ~name:m.Store.m_name))
        lineages
    end);
  Buffer.contents buf
