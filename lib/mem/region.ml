type kind =
  | Text
  | Data
  | Heap
  | Stack
  | Mmap_anon
  | Mmap_shared of { backing_path : string }

type perms = { read : bool; write : bool; exec : bool }

let rw = { read = true; write = true; exec = false }
let rx = { read = true; write = false; exec = true }

type t = {
  id : int;
  start_addr : int;
  kind : kind;
  perms : perms;
  pages : Page.content array;
  dirty : Bytes.t;
  resident : Bytes.t;
}

let npages t = Array.length t.pages
let byte_size t = npages t * Page.size
let end_addr t = t.start_addr + byte_size t

let create ~id ~start_addr ~kind ~perms ~npages content =
  if start_addr mod Page.size <> 0 then invalid_arg "Region.create: unaligned start";
  {
    id;
    start_addr;
    kind;
    perms;
    pages = Array.init npages content;
    dirty = Bytes.make npages '\001';
    resident = Bytes.make npages '\001';
  }

let clone_private t =
  {
    t with
    pages = Array.copy t.pages;
    dirty = Bytes.copy t.dirty;
    resident = Bytes.copy t.resident;
  }
let alias t = t

let set_page t i content =
  t.pages.(i) <- content;
  Bytes.unsafe_set t.dirty i '\001';
  Bytes.unsafe_set t.resident i '\001'

let is_dirty t i = Bytes.unsafe_get t.dirty i <> '\000'

let ships t i =
  match t.kind with
  | Mmap_shared _ -> true
  | Text | Data | Heap | Stack | Mmap_anon -> is_dirty t i

let clear_dirty t = Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000'
let is_resident t i = Bytes.unsafe_get t.resident i <> '\000'
let set_resident t i = Bytes.unsafe_set t.resident i '\001'
let mark_all_absent t = Bytes.fill t.resident 0 (Bytes.length t.resident) '\000'

let resident_count t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t.resident;
  !n

let encode_kind w = function
  | Text -> Util.Codec.Writer.u8 w 0
  | Data -> Util.Codec.Writer.u8 w 1
  | Heap -> Util.Codec.Writer.u8 w 2
  | Stack -> Util.Codec.Writer.u8 w 3
  | Mmap_anon -> Util.Codec.Writer.u8 w 4
  | Mmap_shared { backing_path } ->
    Util.Codec.Writer.u8 w 5;
    Util.Codec.Writer.string w backing_path

let decode_kind r =
  match Util.Codec.Reader.u8 r with
  | 0 -> Text
  | 1 -> Data
  | 2 -> Heap
  | 3 -> Stack
  | 4 -> Mmap_anon
  | 5 ->
    let backing_path = Util.Codec.Reader.string r in
    Mmap_shared { backing_path }
  | n -> Util.Codec.Reader.corrupt "bad region kind %d" n

let encode_page w t i = Page.encode w t.pages.(i)

let encode ?(page = encode_page) w t =
  Util.Codec.Writer.uvarint w t.id;
  Util.Codec.Writer.uvarint w t.start_addr;
  encode_kind w t.kind;
  Util.Codec.Writer.bool w t.perms.read;
  Util.Codec.Writer.bool w t.perms.write;
  Util.Codec.Writer.bool w t.perms.exec;
  Util.Codec.Writer.uvarint w (npages t);
  for i = 0 to npages t - 1 do
    page w t i
  done

let decode_page r ~region:_ _ = Page.decode r

let decode ?(page = decode_page) r =
  let id = Util.Codec.Reader.uvarint r in
  let start_addr = Util.Codec.Reader.uvarint r in
  let kind = decode_kind r in
  let read = Util.Codec.Reader.bool r in
  let write = Util.Codec.Reader.bool r in
  let exec = Util.Codec.Reader.bool r in
  let npages = Util.Codec.Reader.count r in
  let pages = Array.init npages (page r ~region:id) in
  {
    id;
    start_addr;
    kind;
    perms = { read; write; exec };
    pages;
    dirty = Bytes.make (Array.length pages) '\001';
    resident = Bytes.make (Array.length pages) '\001';
  }

let equal a b =
  a.id = b.id && a.start_addr = b.start_addr && a.kind = b.kind && a.perms = b.perms
  && npages a = npages b
  && Array.for_all2 Page.equal a.pages b.pages
