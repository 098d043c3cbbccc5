let suspend_seconds ~nthreads = 0.020 +. (0.0008 *. float_of_int nthreads)
let snapshot_seconds ~pages = 0.004 +. (2.0e-6 *. float_of_int pages)
let elect_seconds ~nfds = 0.0006 +. (0.00008 *. float_of_int nfds)
let reopen_seconds ~nfds = 0.002 +. (0.0004 *. float_of_int nfds)

let jitter rng dt =
  Float.max (0.75 *. dt) (dt *. (1.0 +. (0.05 *. Util.Rng.gaussian rng ~mean:0. ~stddev:1.)))
