type t = {
  mutable regions : Region.t list;  (* ascending start address *)
  mutable next_addr : int;
  mutable next_region_id : int;
}

(* Conventional lowest mapping address; a gap is kept between regions so
   off-by-one addressing bugs fault instead of landing in a neighbour. *)
let base_addr = 0x400000
let guard_gap = 16 * Page.size

let create () = { regions = []; next_addr = base_addr; next_region_id = 0 }
let regions t = t.regions

let pages_for bytes = max 1 ((bytes + Page.size - 1) / Page.size)

let insert t region =
  t.regions <-
    List.sort (fun (a : Region.t) b -> compare a.start_addr b.start_addr) (region :: t.regions)

let fresh_range t npages =
  let start = t.next_addr in
  t.next_addr <- start + (npages * Page.size) + guard_gap;
  start

let map t ~kind ~perms ~bytes ?(content = fun _ -> Page.Zero) () =
  let npages = pages_for bytes in
  let start_addr = fresh_range t npages in
  let id = t.next_region_id in
  t.next_region_id <- id + 1;
  let region = Region.create ~id ~start_addr ~kind ~perms ~npages content in
  insert t region;
  region

let find_region t ~addr =
  List.find_opt
    (fun (r : Region.t) -> addr >= r.start_addr && addr < Region.end_addr r)
    t.regions

let locate t ~addr ~len =
  match find_region t ~addr with
  | None -> invalid_arg (Printf.sprintf "Address_space: unmapped address 0x%x" addr)
  | Some r ->
    if addr + len > Region.end_addr r then
      invalid_arg "Address_space: access crosses region boundary";
    r

let read t ~addr ~len =
  if len < 0 then invalid_arg "Address_space.read: negative length";
  let r = locate t ~addr ~len in
  let out = Bytes.create len in
  let copied = ref 0 in
  while !copied < len do
    let off = addr + !copied - r.start_addr in
    let page_idx = off / Page.size in
    let page_off = off mod Page.size in
    let chunk = min (len - !copied) (Page.size - page_off) in
    Bytes.blit_string (Page.materialize r.pages.(page_idx)) page_off out !copied chunk;
    copied := !copied + chunk
  done;
  Bytes.unsafe_to_string out

let write t ~addr s =
  let len = String.length s in
  if len = 0 then ()
  else begin
    let r = locate t ~addr ~len in
    let copied = ref 0 in
    while !copied < len do
      let off = addr + !copied - r.start_addr in
      let page_idx = off / Page.size in
      let page_off = off mod Page.size in
      let chunk = min (len - !copied) (Page.size - page_off) in
      (* copy-on-write: never mutate existing page bytes in place.  A
         chunk that covers the whole page needs nothing of the old one,
         and a string that is exactly one page is the page itself *)
      let data =
        if chunk = Page.size then if len = Page.size then s else String.sub s !copied chunk
        else begin
          let fresh = Bytes.of_string (Page.materialize r.pages.(page_idx)) in
          Bytes.blit_string s !copied fresh page_off chunk;
          Bytes.unsafe_to_string fresh
        end
      in
      Region.set_page r page_idx (Page.of_string data);
      copied := !copied + chunk
    done
  end

let fork t =
  {
    regions =
      List.map
        (fun (r : Region.t) ->
          match r.kind with
          | Region.Mmap_shared _ -> Region.alias r
          | Region.Text | Region.Data | Region.Heap | Region.Stack | Region.Mmap_anon ->
            Region.clone_private r)
        t.regions;
    next_addr = t.next_addr;
    next_region_id = t.next_region_id;
  }

let snapshot = fork

let total_bytes t = List.fold_left (fun acc r -> acc + Region.byte_size r) 0 t.regions

let dirty_pages t =
  List.fold_left
    (fun acc r ->
      let n = ref acc in
      for i = 0 to Region.npages r - 1 do
        if Region.ships r i then incr n
      done;
      !n)
    0 t.regions

let clear_dirty t = List.iter Region.clear_dirty t.regions
let total_pages t = List.fold_left (fun acc r -> acc + Region.npages r) 0 t.regions
let resident_pages t = List.fold_left (fun acc r -> acc + Region.resident_count r) 0 t.regions

let zero_bytes t =
  List.fold_left
    (fun acc (r : Region.t) ->
      acc + (Page.size * Array.fold_left (fun n p -> if Page.is_zero p then n + 1 else n) 0 r.pages))
    0 t.regions

let equal a b =
  List.length a.regions = List.length b.regions
  && List.for_all2 Region.equal a.regions b.regions

let encode ?page w t =
  Util.Codec.Writer.uvarint w t.next_addr;
  Util.Codec.Writer.uvarint w t.next_region_id;
  Util.Codec.Writer.list (Region.encode ?page) w t.regions

let decode ?page r =
  let next_addr = Util.Codec.Reader.uvarint r in
  let next_region_id = Util.Codec.Reader.uvarint r in
  let regions = Util.Codec.Reader.list (Region.decode ?page) r in
  { regions; next_addr; next_region_id }

let substitute_pages t ~region_id pages =
  t.regions <-
    List.map
      (fun (r : Region.t) -> if r.Region.id = region_id then { r with Region.pages } else r)
      t.regions
