(** Flat, lock-striped open-addressing visited table.

    The search kernel's in-memory visited set, under both drivers (the
    serial one uses a one-worker table).  A table is an array of
    stripes, each a flat open-addressed table of its own: an [int
    array] of stored keys and a parallel array of states, probed
    linearly on the key's low bits and doubled when half full.  A key
    match is confirmed structurally; a match whose state is not
    [equal] is a fingerprint collision, counted and probed past, so a
    64-bit match alone never counts as membership.

    A table for one worker is a single stripe and takes no lock: it
    must be used from one domain at a time.  A table for several
    workers has 64 stripes, picked by the key's top bits, each behind
    its own mutex; all of its operations may be called from any
    domain. *)

type 'a t

val create :
  workers:int ->
  equal:('a -> 'a -> bool) ->
  fingerprint:('a -> Fingerprint.t) ->
  unit ->
  'a t
(** Every stripe starts at 64 slots, the floor: it holds 32 states
    before its first doubling, so a search's many small roots pay for
    small tables.  Raises [Invalid_argument] if [workers < 1]. *)

val add_if_absent : 'a t -> 'a -> bool
(** [true] exactly once per distinct state, no matter how many workers
    race to insert it.  One probe is charged per call. *)

val mem : 'a t -> 'a -> bool
(** One probe is charged per call. *)

val bindings : 'a t -> int
(** Distinct states stored.  Exact in quiescence; during a race, a
    recent count of each stripe. *)

val capacity : 'a t -> int
(** Slots over all stripes (may have grown since [create]). *)

val initial_bits : 'a t -> int
(** log2 of a stripe's starting capacity (6) — a constant, reported
    as the async driver's [shard_bits] so the deterministic metrics
    never depend on growth timing. *)

val occupancy : 'a t -> float
(** Load factor [bindings / capacity] — volatile near a doubling. *)

val probes : 'a t -> int
(** One per [mem]/[add_if_absent] call: deterministic for a
    deterministic operation sequence. *)

val collision_fallbacks : 'a t -> int
(** Occupied slots whose key matched but whose state was not [equal],
    one per probe that passed one. *)

val lock_contention : 'a t -> int
(** Stripe locks that a caller found held and waited for: 0 for a
    one-worker table, volatile for several workers. *)
