(** Scheme enumeration.

    The scheme of a protocol is the set of communication patterns of
    all its failure-free executions.  For the finite, quiescing
    protocols studied here the scheme is computed exactly, by an
    exhaustive kernel search over every applicable event from every
    initial configuration, memoizing on full configurations (which
    carry the pattern-so-far, making the memoization sound for
    pattern collection).  Scheme sweeps keep no base database: the
    only payloads they read back are their checkpoints, sealed by
    {!Patterns_search.Checkpoint}. *)

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
    ?jobs:int ->
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
      bits, enumerated by the driver selected by [par_mode] (default
      {!Patterns_search.Search.Async}, the work-stealing driver across
      [jobs] domains; [Layers] is the serial breadth-first driver,
      which ignores [jobs]).  On a search that runs to exhaustion both
      modes produce the identical pattern set, stats and deterministic
      counters for every [jobs]; a truncated async search keeps its
      counts but visits a schedule-dependent subset, so
      truncation-sensitive comparisons should pass
      [~par_mode:Layers].  Default [max_configs] is 1_000_000.
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
    ?checkpoint:Patterns_search.Checkpoint.spec ->
    n:int ->
    unit ->
    Pattern.Set.t * stats
  (** Union over all [2^n] input vectors, one
      {!Patterns_search.Search.sweep} root each: the scheme proper.
      Stats are summed in vector order.  Parallelism is intra-root: under
      the default async driver each vector's search is spread across
      [jobs] domains; an exhaustive sweep gives the same scheme and
      stats for every [jobs] and [par_mode].  [deadline] bounds the whole
      sweep (each vector's search receives the time remaining);
      [max_live] bounds each vector's search separately.  [spill]
      swaps each root's visited store for the disk-backed spill store
      (bit-identical results; see {!Patterns_search.Search.spill}).
      [checkpoint] records each completed input vector's payload at
      vector-index granularity; a resumed sweep replays recorded
      vectors from the file and recomputes only the rest, yielding
      the identical scheme, stats and metrics as an uninterrupted run
      (deadline-truncated vectors are never recorded — resuming them
      would bake a wall-clock-dependent result into a deterministic
      sweep).  Raises [Failure] when resuming against a file whose
      header (protocol, n, budgets, driver family, spill budget)
      differs. *)

  val realize :
    ?metrics:Patterns_search.Metrics.t ref ->
    ?jobs:int ->
    ?par_mode:Patterns_search.Search.par_mode ->
    ?max_configs:int ->
    ?deadline:float ->
    ?max_live:int ->
    ?spill:Patterns_search.Search.spill ->
    ?checkpoint:Patterns_search.Checkpoint.spec ->
    n:int ->
    inputs:bool list ->
    target:Pattern.t ->
    unit ->
    realization
  (** Synthesize a failure-free execution whose communication pattern
      is exactly [target]: a search over applicable events pruned to
      pattern prefixes of the target.  [par_mode] defaults to
      [Layers], unlike the sweeps above: the serial driver's
      breadth-first order is what makes the witness a shortest
      realization, identical for every [jobs].  Under
      [~par_mode:Async] the answer ({!Realized} / {!Unrealizable}) is
      unchanged but the witness is schedule-dependent and need not be
      shortest.  {!Truncated} is distinct from {!Unrealizable}: an
      answer cut short by [max_configs] is not evidence of
      unrealizability.  [spill] and [checkpoint] behave as in
      {!scheme} (a realization is a single root, recorded at index 0;
      the target and inputs key the checkpoint header). *)
end

val subscheme : Pattern.Set.t -> Pattern.Set.t -> bool
(** Set containment — the ingredient of the paper's reducibility:
    [P1 <= P2] iff every scheme of a protocol for [P2] is the scheme
    of some protocol for [P1]. *)

val equal_schemes : Pattern.Set.t -> Pattern.Set.t -> bool

val pp_scheme : Format.formatter -> Pattern.Set.t -> unit
(** Lists the patterns, numbered. *)
