(** Flat open-addressing visited table.

    The search kernel's in-memory visited set, under both drivers: an
    [int array] of stored keys and a parallel array of states, probed
    linearly on the key's low bits and doubled when half full.  A key
    match is confirmed structurally; a match whose state is not
    [equal] is a fingerprint collision, counted and probed past, so a
    64-bit match alone never counts as membership.

    A table takes no lock: it must be used from one domain at a time,
    which is how the kernel uses it (every search runs on one
    domain). *)

type 'a t

val create : equal:('a -> 'a -> bool) -> fingerprint:('a -> Fingerprint.t) -> unit -> 'a t
(** The table starts at 64 slots, the floor: it holds 32 states
    before its first doubling, so a search's many small roots pay for
    small tables. *)

val add_if_absent : 'a t -> 'a -> bool
(** [true] exactly once per distinct state.  One probe is charged per
    call. *)

val mem : 'a t -> 'a -> bool
(** One probe is charged per call. *)

val bindings : 'a t -> int
(** Distinct states stored. *)

val capacity : 'a t -> int
(** Slots (may have grown since [create]). *)

val initial_bits : 'a t -> int
(** log2 of the starting capacity (6) — a constant, reported as the
    drivers' [shard_bits] so the deterministic metrics never depend on
    growth timing. *)

val occupancy : 'a t -> float
(** Load factor [bindings / capacity]: a function of the insertion
    sequence. *)

val probes : 'a t -> int
(** One per [mem]/[add_if_absent] call: deterministic for a
    deterministic operation sequence. *)

val collision_fallbacks : 'a t -> int
(** Occupied slots whose key matched but whose state was not [equal],
    one per probe that passed one. *)
