(** A fixed pool of worker domains for embarrassingly parallel loops.

    The exploration layers (scheme enumeration, exhaustive model
    checking, randomized hunting) all have the same shape: a list of
    independent shards (input vectors, seeds) whose per-shard results
    are merged into one answer.  [Domain_pool] runs the shards on a
    fixed set of {!Domain.t} workers and merges results in input
    order, so the answer is bit-identical to the sequential loop no
    matter how the shards interleave at runtime.

    Determinism contract: [map pool f xs] equals [List.map f xs] and
    [fold pool ~f ~merge ~init xs] equals
    [List.fold_left (fun acc x -> merge acc (f x)) init xs] whenever
    [f] is pure — results are committed into a positional buffer and
    merged left-to-right, never in completion order.

    A pool with [jobs = 1] spawns no domains at all and runs every
    task inline on the calling domain, so the sequential path is the
    parallel path with one worker, not separate code. *)

type t

val create : jobs:int -> t
(** A pool of [jobs] workers, capped at {!default_jobs} and at least
    one: more workers than the runtime has cores would only contend
    for them.  The cap is silent; {!jobs} reports it.  One fewer
    domains than workers are spawned eagerly (the calling domain is
    the remaining worker); they idle on a condition variable between
    batches until {!shutdown}.  When it
    spawns any, it first empties the minor heap ({!Gc.minor}): without
    that, a process that creates a pool per operation was measured to
    grow its major heap by about 64 KB per pool. *)

val jobs : t -> int
(** The number of workers, after the cap. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], the runtime's estimate of
    usable cores. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs]: apply [f] to every element, distributing
    elements over the workers; results are returned in input order.
    [map pool f [] = []] without touching the workers, and a
    single-element or [jobs = 1] map runs entirely on the calling
    domain.  The first exception raised by any [f] (in input order) is
    re-raised after the batch drains, with the raising worker's
    backtrace reattached; the pool survives and can run further
    batches.  Nested calls on the same pool are not supported; calls
    from the pool-owning domain are. *)

val fold : t -> f:('a -> 'b) -> merge:('acc -> 'b -> 'acc) -> init:'acc -> 'a list -> 'acc
(** [fold pool ~f ~merge ~init xs]: parallel [f], then a sequential
    left fold of [merge] over the results in input order — the
    deterministic reduce used by all exploration merges. *)

val shutdown : t -> unit
(** Join the worker domains.  The pool must not be used afterwards.
    Idempotent. *)

val with_pool : jobs:int -> (t -> 'r) -> 'r
(** [create], run, [shutdown] (also on exceptions). *)
