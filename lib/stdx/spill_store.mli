(** Disk-backed spillable visited store: an in-memory cache split
    into [2^]{!shard_bits} mutex-guarded shards (routed by the high bits
    of the fingerprint) and bounded by a memory budget, evicting whole
    shards to sorted {!Block_file} runs when the budget's high-water
    mark is hit.

    States are dictionary-encoded on insertion to dense ids (the
    {!Dict} discipline); a spilled binding survives on disk only as
    its 8-byte order-preserving fingerprint key plus that id, so disk
    membership is decided by fingerprint alone — the same
    collision-freeness assumption the in-memory {!Visited_table}
    certifies with its [collision_fallbacks] counter (≈ 0 on every workload in this
    repo).  Eviction points are chosen by the drivers, not by [add],
    so search outcomes are identical with or without spilling; only
    the store-shape gauge [shard_bits] reports this store's value.

    Counting discipline matches {!Visited_table}: {!mem} and
    {!add_if_absent} each count one probe.  [bindings] reports
    {e cumulative} distinct bindings (memory + disk), so live-set
    accounting reads the same as the purely in-memory table. *)

type 'a t

val key_of_fingerprint : Fingerprint.t -> string
(** Order-preserving 8-byte big-endian image of the full 63-bit
    fingerprint: byte order = numeric order ({!Block_file}'s probe
    contract). *)

val create :
  equal:('a -> 'a -> bool) ->
  fingerprint:('a -> Fingerprint.t) ->
  dir:string ->
  mem_budget:int ->
  unit ->
  'a t
(** A fresh store spilling into a private subdirectory of [dir]
    (created if missing).  [mem_budget] is the high-water resident
    binding count (clamped to ≥ 1); eviction drains residency to at
    most half of it. *)

val shard_bits : int
(** log2 of the shard count (4). *)

val mem : 'a t -> 'a -> bool
(** Membership in memory or on disk; counts one probe (plus one
    spill probe if the disk is consulted). *)

val add_if_absent : 'a t -> 'a -> bool
(** Atomic probe-and-insert; counts one probe; [true] iff inserted. *)

val maybe_evict : 'a t -> unit
(** Spill if resident bindings have reached the memory budget: the
    drivers call this at deterministic points (serial: between
    layers; async: per processed state).
    Takes every shard lock; callers must hold none. *)

val bindings : 'a t -> int
(** Cumulative distinct bindings, in memory and on disk. *)

val resident : 'a t -> int
(** Bindings currently in memory. *)

val probes : 'a t -> int
val collision_fallbacks : 'a t -> int
val lock_contention : 'a t -> int

val spill_runs : 'a t -> int
val spill_evictions : 'a t -> int
(** Shard flushes (several per run). *)

val spill_probes : 'a t -> int
val spill_read_bytes : 'a t -> int
val spill_write_bytes : 'a t -> int

val spill_fd_reopens : 'a t -> int
(** Run-file opens beyond each run's first, summed over runs — probes
    that missed {!Block_file}'s bounded descriptor cache.  0 when
    every run's descriptor stayed cached.  Deterministic when this
    store is the only one probing (any search at [jobs = 1]); the
    cache is process-global, so stores probed at once (the roots of a
    sweep at [jobs > 1]) or several domains probing one store evict
    each other's descriptors schedule-dependently once they hold more
    runs than the cache keeps open. *)

val dispose : 'a t -> unit
(** Delete the run files and the private subdirectory. *)
