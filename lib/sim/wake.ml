(* [fired.(0 .. n-1)] holds the slots of the cells fired since they were
   armed; a cell is on its object's list or in that stack, never both,
   so [n] stays within the wait's cell count. *)
type wait = { mutable n : int; fired : int array; mutable live : bool }
type cell = { wait : wait; home : cells; slot : int }
and cells = { mutable armed : cell list }

let cells () = { armed = [] }
let wait ~size = { n = 0; fired = Array.make size 0; live = true }
let quiet w = w.n = 0
let kill w = w.live <- false
let put c = c.home.armed <- c :: List.filter (fun c -> c.wait.live) c.home.armed

let arm w home ~slot =
  let c = { wait = w; home; slot } in
  put c;
  c

let exists_fired w by_slot f =
  let rec go i = i < w.n && (f by_slot.(w.fired.(i)) || go (i + 1)) in
  go 0

let iter_fired w f =
  for i = 0 to w.n - 1 do
    f w.fired.(i)
  done

let rearm w by_slot =
  for i = 0 to w.n - 1 do
    put by_slot.(w.fired.(i))
  done;
  w.n <- 0

let fire home =
  let armed = home.armed in
  home.armed <- [];
  List.iter
    (fun c ->
      let w = c.wait in
      w.fired.(w.n) <- c.slot;
      w.n <- w.n + 1)
    armed

let armed home = List.length home.armed
