let window_size = 32768
let min_match = 3
let max_match = 258
let hash_bits = 15
let hash_size = 1 lsl hash_bits
let max_chain = 16

(* zlib level-6 style cut-offs: stop extending the hash chain once a match
   of [nice_length] is found, skip lazy evaluation entirely behind a match
   of [max_lazy] or longer, and shrink the chain budget when the held match
   is already [good_length] or better.  A length-3 match further back than
   [too_far] costs more bits than three literals, so it is not taken. *)
let nice_length = 66
let max_lazy = 16
let good_length = 8
let too_far = 4096

(* Tokens are unboxed ints in a flat growable buffer:
   [dist * 1024 + v] where [dist = 0] means a literal with byte value [v]
   and [dist >= 1] a match of length [v] (3..258 < 1024) at distance
   [dist] (1..32768). *)
type t = { toks : int array; count : int; total_len : int }

let tok_literal c = c
let tok_match ~dist ~len = (dist lsl 10) lor len
let tok_is_literal tok = tok < 1024
let tok_char tok = tok
let tok_dist tok = tok lsr 10
let tok_len tok = tok land 1023

let fold t ~init ~lit ~mtch =
  let acc = ref init in
  for i = 0 to t.count - 1 do
    let tok = t.toks.(i) in
    if tok_is_literal tok then acc := lit !acc (Char.unsafe_chr (tok_char tok))
    else acc := mtch !acc ~dist:(tok_dist tok) ~len:(tok_len tok)
  done;
  !acc

let hash3 s i =
  let a = Char.code (String.unsafe_get s i)
  and b = Char.code (String.unsafe_get s (i + 1))
  and c = Char.code (String.unsafe_get s (i + 2)) in
  ((a lsl 10) lxor (b lsl 5) lxor c) land (hash_size - 1)

(* Unchecked unaligned load: every call site guards [i + 8 <= length s],
   which the checked [String.get_int64_le] would re-verify on the hottest
   loop in the compressor.  The primitive is native-endian; swap on
   big-endian hosts so the first-differing-byte scan stays LSB-first. *)
external unsafe_get64_ne : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let unsafe_get64 s i =
  let v = unsafe_get64_ne s i in
  if Sys.big_endian then bswap64 v else v

(* Length of the common prefix of s[i..] and s[j..], capped at [limit]:
   compare eight bytes per unaligned 64-bit load, then locate the first
   differing byte in the xor.  [i + limit <= length s] must hold (and
   [j < i]), so the 8-byte loads below stay in bounds.  Tail-recursive on
   int accumulators: without flambda a [ref] here would heap-allocate on
   the compressor's hottest path. *)
let rec first_nonzero_byte v idx =
  if v land 0xff <> 0 then idx else first_nonzero_byte (v lsr 8) (idx + 1)

(* index of the first nonzero byte of a nonzero xor word, given as
   [Int64.to_int] of it: the conversion drops bit 63, so a word whose
   low 63 bits are zero differs only in its top byte.  The caller
   converts, because an [int64] argument would be boxed on every call:
   a minor-heap block per match candidate, and in a parallel section
   (DESIGN §2.7) every minor collection stops every domain. *)
let first_byte v = if v = 0 then 7 else first_nonzero_byte v 0

let rec ml_tail s i j limit k =
  if k < limit && String.unsafe_get s (i + k) = String.unsafe_get s (j + k) then
    ml_tail s i j limit (k + 1)
  else k

let rec ml_words s i j limit n8 k =
  if k >= n8 then ml_tail s i j limit k
  else begin
    let x = Int64.logxor (unsafe_get64 s (i + k)) (unsafe_get64 s (j + k)) in
    if Int64.equal x 0L then ml_words s i j limit n8 (k + 8) else k + first_byte (Int64.to_int x)
  end

let match_len s i j limit = ml_words s i j limit (limit - 7) 0

(* Hash-head and chain tables, allocated once per domain and never
   cleared: a call's cost follows its input, not the window.  [head]
   holds [position + stamp]; each call takes the current stamp and
   advances it by [n + window_size + 1], so a value an earlier call
   stored reads as a negative position (an empty chain), and the first
   stamp exceeds [window_size] so a fresh table's zeros read so too.
   [prev] is indexed by [position land (window_size - 1)] and needs no
   clearing: a slot is written when its position is inserted and read
   only for positions already on a chain of this call.  One table per
   domain keeps [tokenize] safe to call from any domain. *)
type tables = { head : int array; prev : int array; mutable stamp : int }

let tables =
  Domain.DLS.new_key (fun () ->
      { head = Array.make hash_size 0; prev = Array.make window_size 0; stamp = window_size + 1 })

let tokenize s =
  let n = String.length s in
  (* flat growable token buffer *)
  let toks = ref (Array.make (max 64 (n / 8)) 0) in
  let count = ref 0 in
  let emit tok =
    if !count = Array.length !toks then begin
      let nb = Array.make (2 * Array.length !toks) 0 in
      Array.blit !toks 0 nb 0 !count;
      toks := nb
    end;
    Array.unsafe_set !toks !count tok;
    incr count
  in
  let { head; prev; stamp } as tbl = Domain.DLS.get tables in
  tbl.stamp <- stamp + n + window_size + 1;
  let prev_mask = window_size - 1 in
  (* record position [i], whose hash is [h], as the newest chain head *)
  let insert_hashed h i =
    Array.unsafe_set prev (i land prev_mask) (Array.unsafe_get head h - stamp);
    Array.unsafe_set head h (i + stamp)
  in
  let insert i =
    if i + min_match <= n then insert_hashed (hash3 s i) i
  in
  (* Longest match at [i] (hash [h]) strictly longer than [best_in],
     searched with [budget] chain steps; returns packed
     (len lsl 16) lor dist, or 0 when nothing beats [best_in].  The
     one-byte probe at offset [best_len] rejects most chain candidates
     without a full [match_len] scan — a candidate can only improve on the
     best so far if it also matches there. *)
  (* chain-walk scratch state, hoisted so [find_match] allocates nothing
     per call (without flambda, refs or an inner [let rec] closure in its
     body would hit the minor heap once per input position) *)
  let best_len = ref 0 and best_dist = ref 0 in
  let scan_end = ref '\000' and j = ref 0 and chain = ref 0 in
  let find_match h i best_in budget =
    let limit = if max_match < n - i then max_match else n - i in
    if limit < min_match || best_in >= limit then 0
    else begin
      let nice = if nice_length < limit then nice_length else limit in
      best_len := if best_in < min_match - 1 then min_match - 1 else best_in;
      best_dist := 0;
      (* [scan_end] is the byte a candidate must match at offset
         [best_len] to beat the best so far, which rejects most
         candidates with a single load *)
      scan_end := String.unsafe_get s (i + !best_len);
      j := Array.unsafe_get head h - stamp;
      chain := budget;
      while !j >= 0 && !chain > 0 && i - !j <= window_size do
        let cand = !j in
        let nxt = Array.unsafe_get prev (cand land prev_mask) in
        (* stop if the chain entry was overwritten (too far back) *)
        j := if nxt >= cand || i - nxt > window_size then -1 else nxt;
        decr chain;
        if String.unsafe_get s (cand + !best_len) = !scan_end then begin
          let len = match_len s i cand limit in
          if len > !best_len then begin
            best_len := len;
            best_dist := i - cand;
            if len >= nice then chain := 0
            else scan_end := String.unsafe_get s (i + len)
          end
        end
      done;
      (* a minimal match far back costs more bits than three literals *)
      if !best_dist = 0 then 0
      else if !best_len = min_match && !best_dist > too_far then 0
      else (!best_len lsl 16) lor !best_dist
    end
  in
  let i = ref 0 in
  (* lazy matching: hold the match found at the previous position and only
     emit it if the current position does not find a longer one *)
  let prev_len = ref 0 and prev_dist = ref 0 in
  let pending_lit = ref false in
  (* Incompressible-run accelerator: count consecutive positions with no
     match; past [miss_threshold], stride over several literals per search
     (capped), so pseudo-random input costs a fraction of a hash-chain
     probe per byte.  Any match resets the streak, so compressible input
     never strides and its token stream is unchanged. *)
  let miss_run = ref 0 in
  let miss_threshold = 64 in
  let max_stride = 16 in
  while !i < n do
    if !i + min_match > n then begin
      (* tail too short to hash or match: flush as literals *)
      if !prev_len >= min_match then begin
        emit (tok_match ~dist:!prev_dist ~len:!prev_len);
        i := !i - 1 + !prev_len;
        prev_len := 0;
        pending_lit := false
      end
      else begin
        if !pending_lit then emit (tok_literal (Char.code (String.unsafe_get s (!i - 1))));
        emit (tok_literal (Char.code (String.unsafe_get s !i)));
        pending_lit := false;
        incr i
      end
    end
    else begin
      let h = hash3 s !i in
      let m =
        (* behind a long-enough held match, skip the search entirely;
           behind a merely good one, search with a quartered budget *)
        if !prev_len >= max_lazy then 0
        else if !prev_len >= good_length then find_match h !i !prev_len (max_chain / 4)
        else find_match h !i !prev_len max_chain
      in
      if !prev_len >= min_match && m = 0 then begin
        (* nothing longer at i: the match starting at i-1 wins *)
        emit (tok_match ~dist:!prev_dist ~len:!prev_len);
        let stop = !i - 1 + !prev_len in
        (* i-1 was inserted when visited; cover the rest of the match so
           later matches can reference inside it *)
        insert_hashed h !i;
        for k = !i + 1 to stop - 1 do
          insert k
        done;
        i := stop;
        prev_len := 0;
        pending_lit := false;
        miss_run := 0
      end
      else if m = 0 && !miss_run >= miss_threshold then begin
        (* deep in an incompressible streak: flush this literal (plus any
           pending one) and stride over the next few bytes unsearched *)
        if !pending_lit then emit (tok_literal (Char.code (String.unsafe_get s (!i - 1))));
        pending_lit := false;
        insert_hashed h !i;
        let stride =
          let x = 2 + ((!miss_run - miss_threshold) lsr 6) in
          let x = if x > max_stride then max_stride else x in
          if x > n - !i then n - !i else x
        in
        for k = !i to !i + stride - 1 do
          emit (tok_literal (Char.code (String.unsafe_get s k)))
        done;
        i := !i + stride;
        miss_run := !miss_run + stride
      end
      else begin
        if !pending_lit then emit (tok_literal (Char.code (String.unsafe_get s (!i - 1))));
        prev_len := m lsr 16;
        prev_dist := m land 0xffff;
        pending_lit := true;
        insert_hashed h !i;
        incr i;
        if m = 0 then incr miss_run else miss_run := 0
      end
    end
  done;
  if !pending_lit then emit (tok_literal (Char.code (String.unsafe_get s (n - 1))));
  { toks = !toks; count = !count; total_len = n }

let reconstruct t =
  let out = Bytes.create t.total_len in
  let pos = ref 0 in
  for idx = 0 to t.count - 1 do
    let tok = Array.unsafe_get t.toks idx in
    if tok_is_literal tok then begin
      if !pos >= t.total_len then invalid_arg "Lz77.reconstruct: output overrun";
      Bytes.unsafe_set out !pos (Char.unsafe_chr (tok_char tok));
      incr pos
    end
    else begin
      let dist = tok_dist tok and len = tok_len tok in
      let start = !pos - dist in
      if start < 0 then invalid_arg "Lz77.reconstruct: bad distance";
      if !pos + len > t.total_len then invalid_arg "Lz77.reconstruct: output overrun";
      if dist >= len then begin
        Bytes.blit out start out !pos len;
        pos := !pos + len
      end
      else begin
        (* overlapping copy: blit the available run, which doubles each
           round, so long runs need O(log (len/dist)) blits *)
        let remaining = ref len in
        while !remaining > 0 do
          let avail = !pos - start in
          let chunk = min avail !remaining in
          Bytes.blit out start out !pos chunk;
          pos := !pos + chunk;
          remaining := !remaining - chunk
        done
      end
    end
  done;
  if !pos <> t.total_len then invalid_arg "Lz77.reconstruct: length mismatch";
  Bytes.unsafe_to_string out
