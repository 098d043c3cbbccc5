(* Per-job operation queues with a conflict detector.

   The scheduler used to serialize every checkpoint/stop/restart through
   a single in-flight slot.  This queue admits any set of mutually
   non-conflicting operations concurrently, and serializes conflicting
   ones in deterministic FIFO order:

   - an op is admitted iff it conflicts with no live in-flight entry
     AND with no earlier op still waiting in the pending queue (so two
     conflicting ops always start in enqueue order, and a conflicting
     head never gets overtaken by a later compatible-looking op that
     conflicts with it);
   - [max_inflight] caps concurrency (0 = unbounded; 1 reproduces the
     old serialized scheduler, which is the bench baseline).

   The structure is generic over the op type so the conflict-detection
   property tests can drive it with synthetic ops. *)

type 'op entry = {
  mutable e_op : 'op;
      (* mutable so a stop can coalesce into an in-flight checkpoint of
         the same job: the entry's identity (and since-guard) survive,
         only the completion action changes *)
  e_id : int;  (* admission order, for deterministic iteration *)
  e_since : float;  (* admission time: per-entry since-guard/timeout base *)
  mutable e_aborted : bool;
}

type 'op t = {
  conflict : 'op -> 'op -> bool;
  key : 'op -> int;  (* job id; engaged-op counts are per key *)
  max_inflight : int;  (* 0 = unbounded *)
  mutable pending : 'op list;  (* FIFO *)
  mutable inflight : 'op entry list;  (* admission order *)
  mutable next_id : int;
  mutable peak : int;
  counts : (int, int) Hashtbl.t;  (* key -> engaged ops (pending + inflight) *)
}

let create ?(max_inflight = 0) ~conflict ~key () =
  {
    conflict;
    key;
    max_inflight;
    pending = [];
    inflight = [];
    next_id = 0;
    peak = 0;
    counts = Hashtbl.create 64;
  }

let incr_count t k =
  Hashtbl.replace t.counts k (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts k))

let decr_count t k =
  match Hashtbl.find_opt t.counts k with
  | Some n when n > 1 -> Hashtbl.replace t.counts k (n - 1)
  | Some _ -> Hashtbl.remove t.counts k
  | None -> ()

let pending t = t.pending
let inflight t = t.inflight
let inflight_count t = List.length t.inflight
let peak t = t.peak
let is_idle t = t.pending = [] && t.inflight = []

(* any op (pending or in flight) engaged for [key]? *)
let engaged t k = Hashtbl.mem t.counts k

let exists t p =
  List.exists p t.pending || List.exists (fun e -> p e.e_op) t.inflight

let enqueue t op =
  t.pending <- t.pending @ [ op ];
  incr_count t (t.key op)

let remove t entry =
  if List.memq entry t.inflight then begin
    t.inflight <- List.filter (fun e -> e != entry) t.inflight;
    decr_count t (t.key entry.e_op)
  end

let drop_pending t p =
  let dropped, kept = List.partition p t.pending in
  t.pending <- kept;
  List.iter (fun op -> decr_count t (t.key op)) dropped

let abort_inflight t p =
  List.iter (fun e -> if p e.e_op then e.e_aborted <- true) t.inflight

(* Admission pass: walk the pending queue in order, starting every op
   that conflicts with nothing live in flight and nothing still ahead
   of it in the queue.  [coalesce op] may consume the op by merging it
   into an in-flight entry (returns true); [start op] performs the op's
   side effects and returns false to consume it as a no-op (e.g. the
   job's phase no longer wants it). *)
let admit t ~now ?(coalesce = fun _ -> false) ~start () =
  (* reversed ops that stay pending *)
  let kept = ref [] in
  let blocked op =
    (t.max_inflight > 0 && List.length t.inflight >= t.max_inflight)
    || List.exists (fun e -> (not e.e_aborted) && t.conflict op e.e_op) t.inflight
    || List.exists (fun earlier -> t.conflict op earlier) !kept
  in
  List.iter
    (fun op ->
      if coalesce op then decr_count t (t.key op)
      else if blocked op then kept := op :: !kept
      else if start op then begin
        let entry = { e_op = op; e_id = t.next_id; e_since = now; e_aborted = false } in
        t.next_id <- t.next_id + 1;
        t.inflight <- t.inflight @ [ entry ];
        if List.length t.inflight > t.peak then t.peak <- List.length t.inflight
      end
      else decr_count t (t.key op))
    t.pending;
  t.pending <- List.rev !kept
