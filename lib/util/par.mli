(** [Array.init] on every core, for independent work (DESIGN §2.7). *)

(** [init n f] is [Array.init n f], computed on up to
    [Domain.recommended_domain_count ()] domains: the caller and
    domains spawned for this call, all joined before it returns.  One
    atomic index hands out [0 .. n-1] in increasing order, so the
    domain that finishes first takes the next index.  The result is in
    index order.

    If [f] raises, no index above the lowest failing one is started;
    once every domain has joined, the exception of the lowest failing
    index is re-raised with its backtrace.

    [f] runs on several domains at once, so it must touch no state
    another index may touch: no [Trace] sink or metric, no page memo
    and no memo table shared between calls.  A call made on any domain
    but the main one, a nested call inside a worker included, runs as
    [Array.init n f] on that domain, and so does a call with [n <= 1];
    neither spawns a domain.  Raises [Invalid_argument] if [n < 0]. *)
val init : int -> (int -> 'a) -> 'a array
