let kib = 1024
let mib = 1024 * kib
let gib = 1024 * mib
let kb = 1000
let mb = 1000 * kb

let pp_bytes n =
  let f = float_of_int n in
  if n >= gib then Printf.sprintf "%.2f GiB" (f /. float_of_int gib)
  else if n >= mib then Printf.sprintf "%.2f MiB" (f /. float_of_int mib)
  else if n >= kib then Printf.sprintf "%.2f KiB" (f /. float_of_int kib)
  else Printf.sprintf "%d B" n

let pp_mb n = Printf.sprintf "%.1f MB" (float_of_int n /. float_of_int mb)

let pp_seconds s =
  if s >= 1.0 then Printf.sprintf "%.3f s" s
  else if s >= 1e-3 then Printf.sprintf "%.3f ms" (s *. 1e3)
  else Printf.sprintf "%.1f us" (s *. 1e6)
