(** Which problems of the taxonomy a protocol solves.

    Combines exhaustive exploration ({!Explore}) with the taxonomy:
    a protocol solves T-C at size [n] iff an exploration that was not
    truncated finds no C-violation and no T-violation (and the
    decision rule and validity hold).  The verdict powers the lattice
    table of the benchmark harness: each implemented protocol lands
    exactly where the paper places it. *)

open Patterns_sim
open Patterns_protocols

type verdict = {
  name : string;
  n : int;
  ic : bool;
  tc : bool;
  wt : bool;
  st : bool;
  ht : bool;
  rule_ok : bool;
  validity_ok : bool;
  all_states_safe : bool;  (** Theorem 2's conditions *)
  corollary6 : bool;
  configs : int;
  truncated : bool;
  details : string list;  (** the recorded violations, for display *)
}

val classify :
  ?metrics:Patterns_search.Metrics.t ref ->
  ?db:Patterns_db.Db.t ->
  ?base:Patterns_db.Db.t ->
  ?max_failures:int ->
  ?max_configs:int ->
  ?inputs_choices:bool list list ->
  ?fifo_notices:bool ->
  ?jobs:int ->
  ?par_mode:Patterns_search.Search.par_mode ->
  ?deadline:float ->
  ?max_live:int ->
  ?spill:Patterns_search.Search.spill ->
  ?checkpoint:Patterns_search.Checkpoint.spec ->
  rule:Decision_rule.t ->
  n:int ->
  (module Protocol.S) ->
  verdict
(** [spill] bounds the sweep's resident visited stores by spilling to
    disk (bit-identical verdicts; {!Patterns_search.Search.spill});
    [checkpoint] records each completed input vector so a killed sweep
    resumes instead of restarting ({!Explore.Make.options}).  Neither
    affects the verdict or the fact key.

    [base] enables incremental re-classification
    ({!Explore.Make.options}[.base]): per-vector ["classify_vec2"]
    facts an earlier sweep stored under the same [max_failures] and
    driver are reused wholesale, with verdicts bit-identical to a
    from-scratch sweep under that driver; other vectors run fresh and
    store new facts into it.  [base] may be the same database as
    [db].  Ignored while [deadline] or [max_live] is set.

    [par_mode] selects the driver (default
    {!Patterns_search.Search.Async}; [Layers] is the serial
    breadth-first driver).  Exhaustive sweeps give identical
    verdicts for every [jobs]; the two modes can disagree on counts
    where distinct paths converge on one behavioural node, and
    truncated sweeps should pin [Layers] when comparing across
    [jobs].

    [db] attaches an execution database: if a verdict fact for the
    same (protocol, n, rule, budget, fault-bound, driver, input-set) sweep is
    stored, it is returned with {e zero} kernel expansions (only the
    database counters move in [?metrics]); otherwise the sweep runs
    live with every kernel expansion recorded as an edge, and — when
    no wall-clock deadline bounds it — its verdict is stored as a
    fact for the next call.  [jobs] is deliberately absent from the
    fact key: an exhaustive verdict is jobs-invariant, which is what
    makes it cacheable. *)

val solves : verdict -> Taxonomy.t -> bool
(** Interpret the verdict against a taxonomy point (the rule is
    assumed to be the one classified against).  Always [false] on a
    truncated verdict: states beyond the budget may violate what the
    explored ones did not. *)

val best_problem : verdict -> Taxonomy.t option
(** The strongest of the six problems the protocol solves: strongest
    termination first, then total over interactive consistency.
    [None] on a truncated verdict, as for {!solves}. *)

val pp : Format.formatter -> verdict -> unit
(** Each property prints [yes] or [NO]; on a truncated verdict one
    without a witnessed violation prints [?], and so does the
    strongest problem solved. *)
