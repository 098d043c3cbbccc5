(* Entries live in three parallel arrays, so a priority is read from
   the [Float.Array] unboxed and neither [push] nor [take_into]
   allocates.  A value cell past [size] holds [dummy].
   The comparisons are written out where they are used: behind a helper
   function the floats would be boxed. *)
type 'a t = {
  mutable prio : Float.Array.t;
  mutable seq : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ~dummy () =
  { prio = Float.Array.create 0; seq = [||]; vals = [||]; size = 0; next_seq = 0; dummy }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = max 16 (2 * t.size) in
  let prio = Float.Array.make cap 0. in
  Float.Array.blit t.prio 0 prio 0 t.size;
  let seq = Array.make cap 0 in
  Array.blit t.seq 0 seq 0 t.size;
  let vals = Array.make cap t.dummy in
  Array.blit t.vals 0 vals 0 t.size;
  t.prio <- prio;
  t.seq <- seq;
  t.vals <- vals

(* Move cell [src]'s entry into the hole at [dst]. *)
let move t ~src ~dst =
  Float.Array.unsafe_set t.prio dst (Float.Array.unsafe_get t.prio src);
  Array.unsafe_set t.seq dst (Array.unsafe_get t.seq src);
  Array.unsafe_set t.vals dst (Array.unsafe_get t.vals src)

(* Both sifts move a hole instead of swapping, and write the entry once
   where the hole stops.  [(p, s)] orders before [(q, r)] when
   [p < q || (p = q && s < r)]. *)
let push t ~priority v =
  if t.size = Array.length t.vals then grow t;
  let p = priority and s = t.next_seq in
  t.next_seq <- s + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    let q = Float.Array.unsafe_get t.prio parent in
    if p < q || (p = q && s < Array.unsafe_get t.seq parent) then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else rising := false
  done;
  Float.Array.unsafe_set t.prio !i p;
  Array.unsafe_set t.seq !i s;
  Array.unsafe_set t.vals !i v

let top_above t limit = t.size > 0 && Float.Array.unsafe_get t.prio 0 > limit

(* The child that moves up into the hole is the one a swapping sift
   would pick, by the same two comparisons: the left child against the
   sinking entry, then the right child against the smaller of those. *)
let take_into t into =
  if t.size = 0 then invalid_arg "Heap.take_into: empty";
  let prio = t.prio and seq = t.seq and vals = t.vals in
  into := Float.Array.unsafe_get prio 0;
  let top = Array.unsafe_get vals 0 in
  let size = t.size - 1 in
  t.size <- size;
  let p = Float.Array.unsafe_get prio size
  and s = Array.unsafe_get seq size
  and v = Array.unsafe_get vals size in
  Array.unsafe_set vals size t.dummy;
  if size > 0 then begin
    let i = ref 0 in
    let sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let c =
        if l < size then
          let pl = Float.Array.unsafe_get prio l in
          if pl < p || (pl = p && Array.unsafe_get seq l < s) then l else !i
        else !i
      in
      let c =
        if r >= size then c
        else
          let pr = Float.Array.unsafe_get prio r and sr = Array.unsafe_get seq r in
          if c = !i then if pr < p || (pr = p && sr < s) then r else c
          else
            let pl = Float.Array.unsafe_get prio l in
            if pr < pl || (pr = pl && sr < Array.unsafe_get seq l) then r else c
      in
      if c = !i then sinking := false
      else begin
        move t ~src:c ~dst:!i;
        i := c
      end
    done;
    Float.Array.unsafe_set prio !i p;
    Array.unsafe_set seq !i s;
    Array.unsafe_set vals !i v
  end;
  top

let peek t = if t.size = 0 then None else Some (Float.Array.get t.prio 0, t.vals.(0))

let pop t =
  if t.size = 0 then None
  else
    let p = ref 0. in
    let v = take_into t p in
    Some (!p, v)
