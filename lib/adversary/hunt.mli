(** Violation hunting with certificate output.

    Two bounded adversaries over the same kernel goal search
    ({!Patterns_search.Search.find_first}), both deterministic
    functions of their parameters for every [jobs] value:

    - {!Random}: the sampling adversary — each run draws its inputs,
      crash plan and schedule flavour from a generator seeded by
      [(seed, run index)] — with the winning schedule read back into a
      replayable {!Cert};
    - {!Systematic}: an exhaustive sweep of the canonical {!Plan}
      space — fault count ascending, so the first hit is a
      smallest-fault-count witness; within a fault count, schedule
      flavour then fault plan then inputs.

    [space] (default {!Plan.Crash_only}) widens the adversary along
    the fault-model lattice: {!Plan.Omission} adds receive-drop and
    send-omission faults of one static victim per plan,
    {!Plan.Mobile} lets every fault pick its kind and victim
    independently.  The crash-only behaviour of both modes is
    bit-identical to what it always was — same draws, same plan
    indices, same certificates, same metrics values.

    Either way [Ok cert] carries the violation report in
    [cert.message] and a schedule script that {!Replay} reproduces;
    [Error tried] is a truncated search — run budget or plan space or
    wall-clock [deadline] exhausted after [tried] runs — and proves
    nothing. *)

type mode = Random | Systematic

val mode_string : mode -> string

val hunt :
  ?metrics:Patterns_search.Metrics.t ref ->
  ?max_failures:int ->
  ?max_runs:int ->
  ?fifo_notices:bool ->
  ?jobs:int ->
  ?deadline:float ->
  ?base:Patterns_db.Db.t ->
  ?horizon:int ->
  ?mode:mode ->
  ?memo:bool ->
  ?space:Plan.space ->
  property:Patterns_core.Audit.property ->
  rule:Patterns_protocols.Decision_rule.t ->
  n:int ->
  seed:int ->
  Patterns_protocols.Registry.entry ->
  (Cert.t, int) result
(** [horizon] (default 60, matching the random adversary's crash-step
    range) bounds the systematic mode's fault steps; [seed] only
    affects {!Random} mode.  [max_failures] is the total fault budget
    — crashes and omissions together.  In {!Random} mode the omission
    draws come after the historical crash draws, so the crash-only
    stream is untouched draw for draw; in {!Systematic} mode an index
    past the exactly representable plan space raises [Failure] with
    {!Plan.Budget_exceeded}'s message instead of silently decoding a
    wrong plan.  The systematic index space is capped at
    [max_runs] — the canonical order makes a truncated sweep a
    well-defined prefix.  The metrics sink accumulates the kernel's
    counters; as for every [find_first] search, the expanded count may
    overshoot the winning index by up to one batch and is the only
    jobs-dependent field.

    Both modes sweep the run-index space in chunks of 4096 indices,
    one kernel goal search each; the first chunk with a violation ends
    the hunt.  The winner and tried count are those of one search over
    the whole space, and the metrics count one root per chunk.  [base]
    is the per-root memo ({!Patterns_search.Search.memo}) with the
    chunks as its roots: a chunk recorded there under the same
    protocol, property, rule, n, seed, mode, fault space, fault
    budget, horizon and notice discipline is answered from its
    ["hunt_chunk"] fact — its certificate, or the runs it cleared —
    without running, and every chunk run is recorded unless the
    deadline cut it short.  This is sound because both modes are
    per-index deterministic (the random mode seeds a fresh generator
    from each run index).

    [memo] (default true, systematic mode only) shares failure-free
    prefixes across plans: the [3 * 2^n] failure-free runs of the plan
    space are computed once with per-step snapshots
    ({!Patterns_sim.Engine.Make.run_prefix}) and every plan resumes
    from its earliest crash step instead of replaying from the initial
    configuration.  Results are bit-identical to [~memo:false] —
    certificates included — because the systematic schedulers are pure
    functions of [(step, config, actions)]; the metrics additionally
    carry [prefix_hits] and [prefix_states_saved] (the /8 section),
    jobs-invariant on full sweeps and overshooting with [jobs] on
    goal-found hunts exactly like the expanded count.  Random mode
    ignores [memo] and keeps its PRNG stream draw-for-draw. *)
