type t = { chunks : string Queue.t; mutable head_off : int; mutable len : int }

let create () = { chunks = Queue.create (); head_off = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let push t s =
  if String.length s > 0 then begin
    Queue.push s t.chunks;
    t.len <- t.len + String.length s
  end

let pop t n =
  let n = min n t.len in
  if n <= 0 then ""
  else begin
    let out = Bytes.create n in
    let filled = ref 0 in
    while !filled < n do
      let chunk = Queue.peek t.chunks in
      let avail = String.length chunk - t.head_off in
      let take = min avail (n - !filled) in
      Bytes.blit_string chunk t.head_off out !filled take;
      filled := !filled + take;
      if take = avail then begin
        ignore (Queue.pop t.chunks);
        t.head_off <- 0
      end
      else t.head_off <- t.head_off + take
    done;
    t.len <- t.len - n;
    Bytes.unsafe_to_string out
  end

let pop_all t = pop t t.len
