(** Scheme enumeration.

    The scheme of a protocol is the set of communication patterns of
    all its failure-free executions.  For the finite, quiescing
    protocols studied here the scheme is computed exactly, by an
    exhaustive kernel search over every applicable event from every
    initial configuration, memoizing on full configurations (which
    carry the pattern-so-far, making the memoization sound for
    pattern collection).  What a sweep or realization stores for a
    later run is its per-root memo ({!Patterns_search.Search.memo}):
    one sealed fact per input vector (["scheme_vec2"]) or per
    realization (["realize"]). *)

open Patterns_sim

type stats = {
  configs_visited : int;
  terminal_configs : int;  (** distinct quiescent configurations *)
  truncated : bool;  (** hit [max_configs] before exhausting the space *)
}

val pp_stats : Format.formatter -> stats -> unit

type realization =
  | Realized of Action.t list
      (** the event sequence, replayable with [E.apply] *)
  | Unrealizable
      (** the search space was exhausted: no execution from these
          inputs has the target pattern *)
  | Truncated
      (** [max_configs] was hit first — the pattern may or may not be
          realizable *)

module Make (P : Protocol.S) : sig
  module E : module type of Engine.Make (P)

  val patterns_for_inputs :
    ?metrics:Patterns_search.Metrics.t ref ->
    ?par_mode:Patterns_search.Search.par_mode ->
    ?max_configs:int ->
    ?deadline:float ->
    ?max_live:int ->
    ?spill:Patterns_search.Search.spill ->
    n:int ->
    inputs:bool list ->
    unit ->
    Pattern.Set.t * stats
  (** All patterns of failure-free executions from the given initial
      bits, enumerated on the calling domain in the order selected by
      [par_mode] (default {!Patterns_search.Search.Async}, depth-first;
      [Layers] is breadth-first).  On a search that runs to exhaustion
      both modes produce the identical pattern set, stats and
      deterministic counters; a truncated search stops at a point
      each order fixes.  Default [max_configs] is 1_000_000.
      [deadline] (wall-clock seconds) and [max_live] (live states)
      degrade the search gracefully: exceeding either truncates
      instead of hanging or exhausting memory.  Every [?metrics] sink
      in this module accumulates the kernel's counters
      ({!Patterns_search.Search.merge_into}). *)

  val scheme :
    ?metrics:Patterns_search.Metrics.t ref ->
    ?max_configs:int ->
    ?deadline:float ->
    ?max_live:int ->
    ?jobs:int ->
    ?par_mode:Patterns_search.Search.par_mode ->
    ?spill:Patterns_search.Search.spill ->
    ?base:Patterns_db.Db.t ->
    n:int ->
    unit ->
    Pattern.Set.t * stats
  (** Union over all [2^n] input vectors, one
      {!Patterns_search.Search.sweep} root each: the scheme proper.
      Stats are summed in vector order.  Up to [jobs] vectors are
      searched at once, each by one worker, so the scheme and stats
      are the same for every [jobs], truncated or not; an exhaustive
      sweep gives the same for either [par_mode].  [max_configs]
      (default 1_000_000) is each vector's budget; [deadline] bounds
      the whole sweep (each vector's search receives the time
      remaining when it starts); [max_live] bounds each vector's
      search separately, with up to [jobs] of them live at once.  [spill]
      swaps each root's visited store for the disk-backed spill store
      (bit-identical results; see {!Patterns_search.Search.spill}).
      [base] is the per-root memo ({!Patterns_search.Search.memo},
      kind ["scheme_vec2"], keyed by protocol, n, driver and vector):
      a vector recorded there is not searched again, and one searched
      is recorded, so the scheme and stats are those of a run without
      it; only the metrics differ. *)

  val realize :
    ?metrics:Patterns_search.Metrics.t ref ->
    ?par_mode:Patterns_search.Search.par_mode ->
    ?max_configs:int ->
    ?deadline:float ->
    ?max_live:int ->
    ?spill:Patterns_search.Search.spill ->
    ?base:Patterns_db.Db.t ->
    n:int ->
    inputs:bool list ->
    target:Pattern.t ->
    unit ->
    realization
  (** Synthesize a failure-free execution whose communication pattern
      is exactly [target]: a search over applicable events pruned to
      pattern prefixes of the target, on the calling domain.
      [par_mode] defaults to [Layers], unlike the sweeps above: the
      breadth-first order is what makes the witness a shortest
      realization.  Under [~par_mode:Async] the answer ({!Realized} /
      {!Unrealizable}) is unchanged but the witness is the first in
      depth-first order and need not be shortest.  {!Truncated} is
      distinct from {!Unrealizable}: an answer cut short by
      [max_configs] is not evidence of unrealizability.  [spill] and [base] behave as in {!scheme}: a
      realization is a single root, recorded under the kind
      ["realize"] and keyed by a digest of the inputs and target. *)
end

val subscheme : Pattern.Set.t -> Pattern.Set.t -> bool
(** Set containment — the ingredient of the paper's reducibility:
    [P1 <= P2] iff every scheme of a protocol for [P2] is the scheme
    of some protocol for [P1]. *)

val equal_schemes : Pattern.Set.t -> Pattern.Set.t -> bool

val pp_scheme : Format.formatter -> Pattern.Set.t -> unit
(** Lists the patterns, numbered. *)
