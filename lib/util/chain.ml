type 'a t = { links : (string * 'a) list; missing : string option; cut : bool }

let walk ?(limit = max_int) ~base_of ~load first =
  let rec go acc = function
    | None -> { links = List.rev acc; missing = None; cut = false }
    | Some name when List.length acc >= limit || List.mem_assoc name acc ->
      { links = List.rev acc; missing = None; cut = true }
    | Some name -> (
      match load name with
      | None -> { links = List.rev acc; missing = Some name; cut = false }
      | Some x -> go ((name, x) :: acc) (base_of x))
  in
  go [] first

let depth c = List.length c.links + if c.missing = None then 0 else 1
