type t = {
  coord_host : int;
  coord_port : int;
  entries : (int * string list) list;
}

let to_text t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "#!/bin/sh\n";
  Buffer.add_string buf "# Generated by dmtcp_checkpoint. Restarts the distributed computation.\n";
  Buffer.add_string buf
    (Printf.sprintf "export DMTCP_COORD_HOST=10.0.0.%d DMTCP_COORD_PORT=%d\n" t.coord_host
       t.coord_port);
  List.iter
    (fun (host, images) ->
      Buffer.add_string buf
        (Printf.sprintf "ssh 10.0.0.%d dmtcp_restart %s &\n" host (String.concat " " images)))
    t.entries;
  Buffer.add_string buf "wait\n";
  Buffer.contents buf

(* Positional remap: when the original allocation holds the same host in
   several slots, a host-level [remap] collapses those slots — every
   image that was on host h lands wherever f sends h, even when the new
   allocation meant them to spread across distinct hosts.  Here each
   image is assigned to a *slot*: host h's images fill, in order, the
   positions where h appeared in [old_alloc], and each position maps to
   the host at the same index in [new_alloc]. *)
let remap_positional t ~old_alloc ~new_alloc =
  let positions h =
    let acc = ref [] in
    Array.iteri (fun i x -> if x = h then acc := i :: !acc) old_alloc;
    List.rev !acc
  in
  (* a position past the end of the new allocation keeps its old host *)
  let dest i = if i < Array.length new_alloc then new_alloc.(i) else old_alloc.(i) in
  let map_first h = match positions h with [] -> h | i :: _ -> dest i in
  let merged = Hashtbl.create 8 in
  let add host images =
    let existing = Option.value ~default:[] (Hashtbl.find_opt merged host) in
    Hashtbl.replace merged host (existing @ images)
  in
  List.iter
    (fun (host, images) ->
      match positions host with
      | [] -> add host images (* host not in the allocation: leave in place *)
      | pos ->
          let slots = Array.of_list pos in
          let n = Array.length slots in
          List.iteri
            (fun k img -> add (dest slots.(k mod n)) [ img ])
            (List.sort compare images))
    t.entries;
  {
    t with
    coord_host = map_first t.coord_host;
    entries =
      Hashtbl.fold (fun h imgs acc -> (h, List.sort compare imgs) :: acc) merged []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }

let remap t f =
  let merged = Hashtbl.create 8 in
  List.iter
    (fun (host, images) ->
      let host' = f host in
      let existing = Option.value ~default:[] (Hashtbl.find_opt merged host') in
      Hashtbl.replace merged host' (existing @ images))
    t.entries;
  {
    t with
    coord_host = f t.coord_host;
    entries =
      Hashtbl.fold (fun h imgs acc -> (h, imgs) :: acc) merged []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }
