(** Bounded LRU cache with hit/miss counters.

    A capacity-bounded map evicting the least-recently-used binding on
    overflow.  {!find} refreshes recency and counts a hit or a miss;
    {!add} inserts at most-recent position.  Used as the query-result
    cache of the execution database (invalidated wholesale on every
    new edge — recorded runs are append-only, so between new edges
    cached results are exact).

    Not thread-safe: callers serialise access externally. *)

type ('k, 'v) t

val create : ?on_evict:('k -> 'v -> unit) -> capacity:int -> unit -> ('k, 'v) t
(** Fresh empty cache holding at most [capacity] bindings
    ([capacity <= 0] raises [Invalid_argument]).  [on_evict] runs on
    every binding pushed out by a capacity overflow — the hook a cache
    of owned resources (e.g. open file descriptors) needs to release
    the victim.  It does not run on {!remove} or {!clear}, which hand
    the binding (or the whole map) back to the caller. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; on a hit the binding becomes most-recent and the hit
    counter increments, on a miss the miss counter increments. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace at most-recent position, evicting the
    least-recent binding if the capacity would be exceeded. *)

val remove : ('k, 'v) t -> 'k -> 'v option
(** Detach and return the binding for a key, if present — without
    running [on_evict]: the caller takes ownership of the value. *)

val clear : ('k, 'v) t -> unit
(** Drop all bindings without running [on_evict] (counters are
    preserved). *)

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
