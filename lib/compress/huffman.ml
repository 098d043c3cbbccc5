let max_bits = 15

type encoder = { codes : int array; lens : int array }

(* Decoding is table-driven: a root lookup table keyed on the next
   [root_bits] bits of the stream resolves codes of length <= root_bits in
   one peek/consume pair.  Longer codes (rare: root_bits covers every code
   of a near-balanced tree and all frequent symbols of a skewed one) fall
   back to the canonical first-code walk. *)
let root_bits = 10

type decoder = {
  (* root table: index = next [root_bits] bits (LSB-first as read from the
     stream); entry = (symbol lsl 4) lor code_length for short codes,
     [long_code] for prefixes of codes longer than root_bits, 0 for bit
     patterns no code covers *)
  table : int array;
  (* canonical walk state for the fallback path: for each bit length l,
     first canonical code of that length, and the index into [sorted]
     where symbols of length l begin *)
  first_code : int array;
  first_index : int array;
  count : int array;
  sorted : int array;
}

let long_code = -1

(* Huffman code lengths by the two-queue construction: the leaves wait
   in one queue sorted by (count, symbol), the internal nodes in another
   in the order they are made, which never decreases in weight.  Each
   merge takes the lighter head twice, the leaf on a tie.  A min-heap
   keyed by (weight, insertion order), fed the leaves in symbol order,
   pops the same sequence: every leaf was inserted before every node.
   If the tree exceeds [max_bits], damp the frequencies and retry
   (standard trick; converges because all-equal frequencies give a
   balanced tree). *)
let lengths_of_freqs freqs =
  let used = Array.fold_left (fun acc f -> if f > 0 then acc + 1 else acc) 0 freqs in
  if used = 0 then invalid_arg "Huffman.lengths_of_freqs: no symbols";
  (* the used symbols in symbol order *)
  let syms = Array.make used 0 in
  let k = ref 0 in
  Array.iteri
    (fun i f ->
      if f > 0 then begin
        syms.(!k) <- i;
        incr k
      end)
    freqs;
  let lengths = Array.make (Array.length freqs) 0 in
  (* node k < used is the k-th leaf in queue order, node used + m the
     m-th internal node; [parent] links each node to the later one it
     merged into *)
  let nodes = (2 * used) - 1 in
  let weight = Array.make nodes 0 in
  let parent = Array.make nodes 0 in
  let depth = Array.make nodes 0 in
  let rec attempt freqs =
    let leaves = Array.copy syms in
    Array.stable_sort (fun a b -> Int.compare freqs.(a) freqs.(b)) leaves;
    Array.iteri (fun k sym -> weight.(k) <- freqs.(sym)) leaves;
    let next_leaf = ref 0 and next_node = ref used in
    let take made =
      if !next_leaf < used && (!next_node = made || weight.(!next_leaf) <= weight.(!next_node))
      then begin
        incr next_leaf;
        !next_leaf - 1
      end
      else begin
        incr next_node;
        !next_node - 1
      end
    in
    for made = used to nodes - 1 do
      let a = take made in
      let b = take made in
      weight.(made) <- weight.(a) + weight.(b);
      parent.(a) <- made;
      parent.(b) <- made
    done;
    (* the root is the last node (depth 0) and every parent comes after
       its children, so one backward pass sets every depth *)
    for k = nodes - 2 downto 0 do
      depth.(k) <- depth.(parent.(k)) + 1
    done;
    let too_deep = ref false in
    Array.iteri
      (fun k sym ->
        (* a lone symbol is the root, and still needs one bit on the wire *)
        lengths.(sym) <- max depth.(k) 1;
        if depth.(k) > max_bits then too_deep := true)
      leaves;
    if !too_deep then attempt (Array.map (fun f -> if f > 0 then (f / 2) + 1 else 0) freqs)
  in
  attempt freqs;
  lengths

(* Canonical code assignment from lengths (RFC 1951 §3.2.2). *)
let canonical_codes lens =
  let count = Array.make (max_bits + 1) 0 in
  Array.iter (fun l -> if l > 0 then count.(l) <- count.(l) + 1) lens;
  let next = Array.make (max_bits + 2) 0 in
  let code = ref 0 in
  for bits = 1 to max_bits do
    code := (!code + count.(bits - 1)) lsl 1;
    next.(bits) <- !code
  done;
  let codes = Array.make (Array.length lens) 0 in
  Array.iteri
    (fun i l ->
      if l > 0 then begin
        codes.(i) <- next.(l);
        next.(l) <- next.(l) + 1
      end)
    lens;
  (codes, count)

(* Reverse the low [len] bits of [code]: we emit codes MSB-first logically
   but the bit writer packs LSB-first, as DEFLATE does. *)
let reverse_bits code len =
  let r = ref 0 in
  let c = ref code in
  for _ = 1 to len do
    r := (!r lsl 1) lor (!c land 1);
    c := !c lsr 1
  done;
  !r

let encoder_of_lengths lens =
  let codes, _ = canonical_codes lens in
  let codes = Array.mapi (fun i c -> reverse_bits c lens.(i)) codes in
  { codes; lens = Array.copy lens }

let validate_prefix_code count =
  (* Kraft sum must not exceed 1 for a usable code. *)
  let sum = ref 0.0 in
  for l = 1 to max_bits do
    sum := !sum +. (float_of_int count.(l) /. float_of_int (1 lsl l))
  done;
  if !sum > 1.0 +. 1e-9 then Util.Codec.Reader.corrupt "Huffman: over-subscribed code lengths"

let decoder_of_lengths lens =
  let codes, count = canonical_codes lens in
  validate_prefix_code count;
  let n = Array.length lens in
  let total = Array.fold_left (fun acc l -> if l > 0 then acc + 1 else acc) 0 lens in
  let sorted = Array.make (max total 1) 0 in
  let first_code = Array.make (max_bits + 1) 0 in
  let first_index = Array.make (max_bits + 1) 0 in
  let code = ref 0 in
  let index = ref 0 in
  for l = 1 to max_bits do
    code := (!code + if l > 1 then count.(l - 1) else 0) lsl 1;
    first_code.(l) <- !code;
    first_index.(l) <- !index;
    (* canonical order: by length then symbol value *)
    for sym = 0 to n - 1 do
      if lens.(sym) = l then begin
        sorted.(!index) <- sym;
        incr index
      end
    done
  done;
  let table = Array.make (1 lsl root_bits) 0 in
  for sym = 0 to n - 1 do
    let l = lens.(sym) in
    if l > 0 then begin
      let rc = reverse_bits codes.(sym) l in
      if l <= root_bits then begin
        (* every completion of the code's reversed bits up to root_bits *)
        let step = 1 lsl l in
        let entry = (sym lsl 4) lor l in
        let i = ref rc in
        while !i < 1 lsl root_bits do
          table.(!i) <- entry;
          i := !i + step
        done
      end
      else
        (* mark the root-sized prefix so decode takes the slow path *)
        table.(rc land ((1 lsl root_bits) - 1)) <- long_code
    end
  done;
  { table; first_code; first_index; count; sorted }

let tables enc = (enc.codes, enc.lens)

let encode enc w sym =
  let len = enc.lens.(sym) in
  if len = 0 then invalid_arg "Huffman.encode: unused symbol";
  Bitio.Writer.put w ~bits:enc.codes.(sym) ~count:len

(* Fallback for codes longer than [root_bits]: the original canonical
   first-code walk, one bit at a time. *)
let decode_slow dec r =
  let code = ref 0 in
  let len = ref 0 in
  let result = ref (-1) in
  while !result < 0 do
    code := (!code lsl 1) lor Bitio.Reader.bit r;
    incr len;
    if !len > max_bits then Util.Codec.Reader.corrupt "Huffman.decode: bad stream";
    let l = !len in
    if dec.count.(l) > 0 && !code - dec.first_code.(l) < dec.count.(l) && !code >= dec.first_code.(l)
    then result := dec.sorted.(dec.first_index.(l) + (!code - dec.first_code.(l)))
  done;
  !result

let decode dec r =
  let e = Array.unsafe_get dec.table (Bitio.Reader.peek r root_bits) in
  if e > 0 then begin
    Bitio.Reader.consume r (e land 0xf);
    e lsr 4
  end
  else if e = 0 then Util.Codec.Reader.corrupt "Huffman.decode: bad stream"
  else decode_slow dec r
