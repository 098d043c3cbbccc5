type thread_image = {
  ti_inst : Simos.Program.instance;
  ti_wait : Simos.Program.wait option;
}

type t = {
  cmdline : string list;
  env : (string * string) list;
  threads : thread_image list;
  space : Mem.Address_space.t;
  sigtable : (int * Simos.Kernel.sigaction) list;
  pending_signals : int list;
}

let capture (proc : Simos.Kernel.process) =
  let threads =
    proc.Simos.Kernel.threads
    |> List.filter (fun (th : Simos.Kernel.thread) ->
           (not th.Simos.Kernel.manager) && th.Simos.Kernel.tstate <> Simos.Kernel.Dead)
    |> List.map (fun (th : Simos.Kernel.thread) ->
           let ti_wait =
             match th.Simos.Kernel.tstate with
             | Simos.Kernel.Blocked w -> Some w
             | Simos.Kernel.Ready | Simos.Kernel.Dead -> None
           in
           (* Round-trip the instance through its codec so the snapshot is
              decoupled from the live (mutable) instance. *)
           let w = Util.Codec.Writer.create () in
           Simos.Program.encode_instance w th.Simos.Kernel.inst;
           let r = Util.Codec.Reader.of_string (Util.Codec.Writer.contents w) in
           { ti_inst = Simos.Program.decode_instance r; ti_wait })
  in
  {
    cmdline = proc.Simos.Kernel.cmdline;
    env = proc.Simos.Kernel.env;
    threads;
    space = Mem.Address_space.snapshot proc.Simos.Kernel.space;
    sigtable =
      Hashtbl.fold (fun s a acc -> (s, a) :: acc) proc.Simos.Kernel.sigtable []
      |> List.sort compare;
    pending_signals = proc.Simos.Kernel.pending_signals;
  }

type sizes = { uncompressed : int; compressed : int; zero_bytes : int }

(* Per-image metadata overhead charged on top of page payloads. *)
let metadata_bytes t =
  4096 + (1024 * List.length t.threads)

(* Charge every page that [charged region index] selects at its raw and
   compressed size, plus [per_page] bitmap bytes for every page of the
   image.  The charged real pages not yet sized are first compressed
   together, each distinct content once and on every core, so the loop
   only reads memos. *)
let price algo t ~per_page ~charged =
  let regions = Mem.Address_space.regions t.space in
  Mem.Page.size_all algo (fun visit ->
      List.iter
        (fun (r : Mem.Region.t) ->
          Array.iteri (fun idx page -> if charged r idx then visit page) r.Mem.Region.pages)
        regions);
  let uncompressed = ref (metadata_bytes t) in
  let compressed = ref (metadata_bytes t / 4) in
  let zero = ref 0 in
  List.iter
    (fun (r : Mem.Region.t) ->
      Array.iteri
        (fun idx page ->
          compressed := !compressed + per_page;
          if charged r idx then begin
            uncompressed := !uncompressed + Mem.Page.size;
            if Mem.Page.is_zero page then zero := !zero + Mem.Page.size;
            compressed := !compressed + Mem.Page.compressed_size algo page
          end)
        r.Mem.Region.pages)
    regions;
  { uncompressed = !uncompressed; compressed = !compressed; zero_bytes = !zero }

let sizes algo t = price algo t ~per_page:0 ~charged:(fun _ _ -> true)

(* a delta charges what it ships, plus one bitmap byte per page *)
let delta_sizes algo t = price algo t ~per_page:1 ~charged:Mem.Region.ships

module W = Util.Codec.Writer
module R = Util.Codec.Reader

let encode_sigaction w = function
  | Simos.Kernel.Sig_default -> W.u8 w 0
  | Simos.Kernel.Sig_ignore -> W.u8 w 1
  | Simos.Kernel.Sig_handler name ->
    W.u8 w 2;
    W.string w name

let decode_sigaction r =
  match R.u8 r with
  | 0 -> Simos.Kernel.Sig_default
  | 1 -> Simos.Kernel.Sig_ignore
  | 2 -> Simos.Kernel.Sig_handler (R.string r)
  | n -> R.corrupt "bad sigaction %d" n

(* Full and delta bodies share every section but the address space:
   [prefix], cmdline, env and threads, then the space through
   [encode_space], then the signal table and pending signals. *)
let encode_sections ~prefix encode_space t =
  let w = W.create ~capacity:4096 () in
  W.raw w prefix;
  W.list W.string w t.cmdline;
  W.list (W.pair W.string W.string) w t.env;
  W.list
    (fun w ti ->
      Simos.Program.encode_instance w ti.ti_inst;
      W.option Simos.Program.encode_wait w ti.ti_wait)
    w t.threads;
  encode_space w t.space;
  W.list (W.pair W.uvarint encode_sigaction) w t.sigtable;
  W.list W.uvarint w t.pending_signals;
  W.contents w

let decode_sections decode_space r =
  let cmdline = R.list R.string r in
  let env = R.list (R.pair R.string R.string) r in
  let threads =
    R.list
      (fun r ->
        let ti_inst = Simos.Program.decode_instance r in
        let ti_wait = R.option Simos.Program.decode_wait r in
        { ti_inst; ti_wait })
      r
  in
  let space = decode_space r in
  let sigtable = R.list (R.pair R.uvarint decode_sigaction) r in
  let pending_signals = R.list R.uvarint r in
  R.expect_end r;
  { cmdline; env; threads; space; sigtable; pending_signals }

let encode ~algo t =
  Compress.Container.pack ~algo (encode_sections ~prefix:"" Mem.Address_space.encode t)

let decode s =
  decode_sections Mem.Address_space.decode (R.of_string (Compress.Container.unpack s))

(* ---------------- incremental delta images ---------------- *)

let delta_magic = "MTCPD1"

(* A delta body differs from a full one only in its magic prefix and
   its page step: a page that ships ({!Mem.Region.ships}) is inline
   (tag 1), any other is a reference to the base image's page at the
   same region id and index (tag 0).  Regions created after the base snapshot are born
   all-dirty, so tag 0 never points outside the base. *)
let encode_delta_page w (r : Mem.Region.t) idx =
  if Mem.Region.ships r idx then begin
    W.u8 w 1;
    Mem.Page.encode w r.Mem.Region.pages.(idx)
  end
  else W.u8 w 0

let decode_delta_space ~base r =
  let base_pages = Hashtbl.create 16 in
  List.iter
    (fun (br : Mem.Region.t) -> Hashtbl.replace base_pages br.Mem.Region.id br.Mem.Region.pages)
    (Mem.Address_space.regions base.space);
  Mem.Address_space.decode r ~page:(fun r ~region idx ->
      match R.u8 r with
      | 1 -> Mem.Page.decode r
      | 0 -> (
        match Hashtbl.find_opt base_pages region with
        | Some pages when idx < Array.length pages -> pages.(idx)
        | _ -> R.corrupt "delta references missing base page %d/%d" region idx)
      | n -> R.corrupt "bad delta page tag %d" n)

let encode_delta ~algo t =
  Compress.Container.pack ~algo
    (encode_sections ~prefix:delta_magic (Mem.Address_space.encode ~page:encode_delta_page) t)

let apply_delta ~base s =
  let r = R.of_string (Compress.Container.unpack s) in
  if R.raw r (String.length delta_magic) <> delta_magic then
    R.corrupt "not an MTCPD1 delta image";
  decode_sections (decode_delta_space ~base) r

let restore_threads kernel (proc : Simos.Kernel.process) t =
  proc.Simos.Kernel.space <- t.space;
  proc.Simos.Kernel.cmdline <- t.cmdline;
  proc.Simos.Kernel.env <- t.env;
  List.iter (fun (s, a) -> Simos.Kernel.set_sigaction proc s a) t.sigtable;
  proc.Simos.Kernel.pending_signals <- t.pending_signals;
  List.iter
    (fun ti -> ignore (Simos.Kernel.add_thread kernel proc ~inst:ti.ti_inst ?blocked:ti.ti_wait ()))
    t.threads

let instance_bytes inst =
  let w = Util.Codec.Writer.create () in
  Simos.Program.encode_instance w inst;
  Util.Codec.Writer.contents w

let equal a b =
  a.cmdline = b.cmdline && a.env = b.env && a.sigtable = b.sigtable
  && a.pending_signals = b.pending_signals
  && List.length a.threads = List.length b.threads
  && List.for_all2
       (fun x y -> x.ti_wait = y.ti_wait && instance_bytes x.ti_inst = instance_bytes y.ti_inst)
       a.threads b.threads
  && Mem.Address_space.equal a.space b.space
