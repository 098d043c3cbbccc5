(* bench:pages — the application of the pages-full, pages-incr and
   sched-2k workloads.

   Its address space has three regions:
   - a one-page stack, the hot set a lazy restart restores up front;
   - [syn] synthetic numeric pages: bulk memory that the checkpointer
     prices at full size but that costs the simulator host almost
     nothing (page descriptors, not bytes);
   - [pages] pages of real bytes on the heap.
   Every [period] simulated seconds it stamps a fixed, seeded subset of
   [hot] heap pages with the iteration number.  After [iters] iterations
   it writes the CRC-32 of its heap to its verdict file and exits.

   Heap page [p] holds the seeded base page rotated by [p * 4099] bytes,
   with a 16-byte stamp [(p, version)] at offset 0.  Rotation keeps pages
   distinct (no cross-page dedup), and equal substrings of neighbouring
   pages lie further apart than Deflate's 32 KiB window, so the image
   compresses to the base page's own ratio.  A stamp rewrites only 16
   bytes, so the program's own host cost stays small: host time goes to
   the checkpoint and restart pipeline.

   [verdict] recomputes the expected output from the same inputs, so the
   bench checks restored memory bit for bit without a reference run. *)

module W = Util.Codec.Writer
module R = Util.Codec.Reader

let name = "bench:pages"
let page = Mem.Page.size

(* Text-like heap content: words drawn from a seeded 256-word
   dictionary.  Deflate packs it to about 0.3 of its size, inside the
   0.2-0.6 band of real heaps, at the speed real data compresses. *)
let base_page =
  let cache = Hashtbl.create 8 in
  fun seed ->
    match Hashtbl.find_opt cache seed with
    | Some b -> b
    | None ->
      let rng = Util.Rng.create (Int64.of_int (seed + 0x9a6e5)) in
      let word _ = String.init (3 + Util.Rng.int rng 6) (fun _ -> Char.chr (97 + Util.Rng.int rng 26)) in
      let dict = Array.init 256 word in
      let buf = Buffer.create (page + 16) in
      while Buffer.length buf < page do
        Buffer.add_string buf dict.(Util.Rng.int rng 256);
        Buffer.add_char buf ' '
      done;
      let b = Buffer.sub buf 0 page in
      Hashtbl.replace cache seed b;
      b

let stamp ~page:p ~version = Printf.sprintf "p%06dv%08d" p version

let page_bytes ~seed ~page:p ~version =
  let base = base_page seed in
  let off = p * 4099 mod page in
  let b = Bytes.create page in
  Bytes.blit_string base off b 0 (page - off);
  Bytes.blit_string base 0 b (page - off) off;
  Bytes.blit_string (stamp ~page:p ~version) 0 b 0 16;
  Bytes.unsafe_to_string b

(* the seeded hot subset: [hot] distinct heap page indices *)
let hot_pages ~seed ~pages ~hot =
  let idx = Array.init pages Fun.id in
  Util.Rng.shuffle (Util.Rng.create (Int64.of_int (seed + 0x407))) idx;
  Array.sub idx 0 (min hot pages)

let verdict ~seed ~pages ~hot ~iters =
  let hot = hot_pages ~seed ~pages ~hot in
  let acc = ref Util.Crc32.init in
  for p = 0 to pages - 1 do
    let version = if Array.mem p hot then iters else 0 in
    acc := Util.Crc32.update !acc (page_bytes ~seed ~page:p ~version) 0 page
  done;
  Printf.sprintf "PAGES %d CRC %08lx" iters (Util.Crc32.finish !acc)

type state = {
  pages : int;
  hot : int;
  syn : int;
  seed : int;
  period : float;
  iters : int;
  done_ : int;
  base : int option;  (* heap start, once mapped *)
  out : string;
}

let encode w st =
  W.uvarint w st.pages;
  W.uvarint w st.hot;
  W.uvarint w st.syn;
  W.uvarint w st.seed;
  W.f64 w st.period;
  W.uvarint w st.iters;
  W.uvarint w st.done_;
  W.option W.uvarint w st.base;
  W.string w st.out

let decode r =
  let pages = R.uvarint r in
  let hot = R.uvarint r in
  let syn = R.uvarint r in
  let seed = R.uvarint r in
  let period = R.f64 r in
  let iters = R.uvarint r in
  let done_ = R.uvarint r in
  let base = R.option R.uvarint r in
  let out = R.string r in
  { pages; hot; syn; seed; period; iters; done_; base; out }

let argv ~pages ~hot ~syn ~seed ~period ~iters ~out =
  [
    string_of_int pages; string_of_int hot; string_of_int syn; string_of_int seed;
    Printf.sprintf "%h" period; string_of_int iters; out;
  ]

let init ~argv =
  match argv with
  | [ pages; hot; syn; seed; period; iters; out ] ->
    {
      pages = int_of_string pages;
      hot = int_of_string hot;
      syn = int_of_string syn;
      seed = int_of_string seed;
      period = float_of_string period;
      iters = int_of_string iters;
      done_ = 0;
      base = None;
      out;
    }
  | _ -> invalid_arg "bench:pages: pages hot syn seed period iters out"

let map_memory (ctx : Simos.Program.ctx) st =
  ignore (ctx.mmap ~bytes:page ~kind:Mem.Region.Stack);
  let bulk = ctx.mmap ~bytes:(st.syn * page) ~kind:Mem.Region.Mmap_anon in
  for i = 0 to st.syn - 1 do
    let seed = Int64.of_int ((st.seed * 4096) + i) in
    Mem.Region.set_page bulk i (Mem.Page.Synthetic { seed; cls = Mem.Entropy.Numeric })
  done;
  let base = (ctx.mmap ~bytes:(max 1 st.pages * page) ~kind:Mem.Region.Heap).Mem.Region.start_addr in
  for p = 0 to st.pages - 1 do
    ctx.mem_write ~addr:(base + (p * page)) (page_bytes ~seed:st.seed ~page:p ~version:0)
  done;
  base

let step (ctx : Simos.Program.ctx) st =
  match st.base with
  | None -> Simos.Program.Continue { st with base = Some (map_memory ctx st) }
  | Some base when st.done_ < st.iters ->
    let version = st.done_ + 1 in
    Array.iter
      (fun p -> ctx.mem_write ~addr:(base + (p * page)) (stamp ~page:p ~version))
      (hot_pages ~seed:st.seed ~pages:st.pages ~hot:st.hot);
    Simos.Program.Compute ({ st with done_ = version }, st.period)
  | Some base ->
    let heap = if st.pages = 0 then "" else ctx.mem_read ~addr:base ~len:(st.pages * page) in
    let crc = Util.Crc32.digest heap in
    (match ctx.open_file st.out with
    | Ok fd ->
      ignore (ctx.write_fd fd (Printf.sprintf "PAGES %d CRC %08lx" st.done_ crc));
      ctx.close_fd fd
    | Error _ -> ());
    Simos.Program.Exit 0

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    Simos.Program.register
      (module struct
        type nonrec state = state

        let name = name
        let encode = encode
        let decode = decode
        let init = init
        let step = step
      end : Simos.Program.S)
  end
