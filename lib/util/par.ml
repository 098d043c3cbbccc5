(* Per-call domains: a call spawns its helpers and joins them before it
   returns, so no domain outlives the call and nothing is kept between
   calls.  DESIGN §2.7 says why there is no pool. *)

(* [stop] holds the lowest index that has raised so far ([n] while none
   has).  An index at or above it is never started.  Indices are handed
   out in increasing order, so every index below a failing one was
   handed out first and runs to its end: the lowest failing index
   always runs, and its exception is the one reported. *)
let rec lower stop k =
  let cur = Atomic.get stop in
  if k < cur && not (Atomic.compare_and_set stop cur k) then lower stop k

let init n f =
  if n < 0 then invalid_arg "Par.init";
  let width =
    if n <= 1 || not (Domain.is_main_domain ()) then 1
    else min n (Domain.recommended_domain_count ())
  in
  if width = 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let stop = Atomic.make n in
    (* a domain's own failure: at most one, as every index it could take
       after it is above [stop] *)
    let rec work () =
      let k = Atomic.fetch_and_add next 1 in
      if k >= Atomic.get stop then None
      else
        match f k with
        | v ->
          results.(k) <- Some v;
          work ()
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          lower stop k;
          Some (k, e, bt)
    in
    (* a spawn that fails (a process holds at most 128 domains) leaves
       its share to the domains already working *)
    let rec spawn i acc =
      if i = 0 then acc
      else match Domain.spawn work with d -> spawn (i - 1) (d :: acc) | exception _ -> acc
    in
    let helpers = spawn (width - 1) [] in
    let mine = work () in
    let failures = List.filter_map Fun.id (mine :: List.map Domain.join helpers) in
    match List.sort (fun (a, _, _) (b, _, _) -> compare a b) failures with
    | (_, e, bt) :: _ -> Printexc.raise_with_backtrace e bt
    | [] -> Array.map Option.get results
  end
