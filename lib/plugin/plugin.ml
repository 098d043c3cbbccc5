type payload = ..

type t = {
  p_name : string;
  p_doc : string;
  p_hooks : (string * (payload -> unit)) list;
}

(* Registration order is the dispatch order, so it must come from
   module-initialisation order (deterministic program text), never from
   env parsing.  Kept as a list in registration order; replacement on
   re-register keeps the original position so [ensure_registered]-style
   idempotent init cannot reorder dispatch. *)
let plugins : t list ref = ref []
let enabled : string list ref = ref []
let counts : (string, int) Hashtbl.t = Hashtbl.create 16

let register p =
  if List.exists (fun q -> q.p_name = p.p_name) !plugins then
    plugins := List.map (fun q -> if q.p_name = p.p_name then p else q) !plugins
  else plugins := !plugins @ [ p ]

let registered () = !plugins

let set_enabled names =
  let known = List.map (fun p -> p.p_name) !plugins in
  List.iter
    (fun n ->
      if not (List.mem n known) then
        invalid_arg
          (Printf.sprintf "Plugin.set_enabled: unknown plugin %S (registered: %s)" n
             (String.concat ", " known)))
    names;
  enabled := names

let enabled_names () = !enabled
let is_enabled name = List.mem name !enabled

let bump site =
  let n = Option.value ~default:0 (Hashtbl.find_opt counts site) in
  Hashtbl.replace counts site (n + 1)

let dispatch ?node ?pid ~now site payload =
  List.iter
    (fun p ->
      if List.mem p.p_name !enabled then
        List.iter
          (fun (s, handler) ->
            if s = site then begin
              handler payload;
              bump site;
              Trace.span ?node ?pid ~cat:"plugin"
                ~name:(Printf.sprintf "plugin/%s/%s" p.p_name site)
                ~time:now ~dur:0. ()
            end)
          p.p_hooks)
    !plugins

let site_counts () =
  Hashtbl.fold (fun site n acc -> (site, n) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset_counts () = Hashtbl.reset counts
