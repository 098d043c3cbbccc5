type rates = {
  compress_mb_s : float;  (* per-core throughput on ordinary data *)
  decompress_mb_s : float;
  zero_speedup : float;  (* multiplier on all-zero pages *)
}

let rates = function
  | Algo.Null -> { compress_mb_s = 2500.; decompress_mb_s = 2500.; zero_speedup = 1. }
  | Algo.Rle -> { compress_mb_s = 250.; decompress_mb_s = 400.; zero_speedup = 6. }
  | Algo.Deflate -> { compress_mb_s = 21.; decompress_mb_s = 58.; zero_speedup = 12. }

let mb = 1e6

let seconds rate_mb_s ~bytes ~zero_bytes ~speedup =
  let zero_bytes = min zero_bytes bytes in
  let plain = float_of_int (bytes - zero_bytes) in
  let zeros = float_of_int zero_bytes in
  (plain /. (rate_mb_s *. mb)) +. (zeros /. (rate_mb_s *. speedup *. mb))

let compress_seconds ~algo ~bytes ~zero_bytes =
  let r = rates algo in
  seconds r.compress_mb_s ~bytes ~zero_bytes ~speedup:r.zero_speedup

let decompress_seconds ~algo ~bytes ~zero_bytes =
  let r = rates algo in
  seconds r.decompress_mb_s ~bytes ~zero_bytes ~speedup:r.zero_speedup
