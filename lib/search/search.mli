(** The one instrumented search kernel.

    Every result in this repository is, operationally, a state-space
    search: scheme enumeration, the exhaustive consistency/termination
    checks, the concurrency sets C(s), realization, and the randomized
    hunts.  This module owns the frontier, the visited store, the
    budget, and the counters, once — the call-sites supply a
    {!Problem} (state type, fingerprinting, expansion) and fold their
    observations into [expand] closures, which the kernel invokes
    exactly once per visited state, in visitation order.  What an
    answer means therefore never depends on a private
    reimplementation of how executions were enumerated or truncated.
    Only the trace checkers, which read one execution and revisit
    nothing, are plain linear scans outside the kernel.

    Every search runs on one domain.  Two drivers share the
    {!Make.par_expand} observation interface: {!Make.run}, a
    breadth-first search, and {!Make.run_par_async}, a depth-first
    one.  They differ only in their frontier.  Both follow one
    successor rule — [prune] first, then a claim into the visited
    store that doubles as the membership test — on one visited-store
    interface: the {!Patterns_stdx.Visited_table} in memory, or the
    {!Patterns_stdx.Spill_store} with {!spill}, each owned by its
    search and free of locks.  They share one overrun guard
    (live-state limit, then deadline) and one metrics step.  Under
    either driver the visitation order — and hence every counter
    except the wall-clock timings — is a pure function of the problem,
    root and budget.  {!sweep} is the one per-root loop the clients'
    sweeps run through, and the only place the kernel uses several
    domains: one per root. *)

(** Why a search stopped short of exhausting its space.  All three are
    graceful: the search returns its metrics and a [Truncated] outcome
    instead of hanging ([Deadline_exceeded]) or growing without bound
    ([Live_limit_exceeded]). *)
type reason =
  | Budget_exhausted of { budget : int; consumed : int }
  | Deadline_exceeded of { deadline : float; elapsed : float }
      (** the wall-clock deadline (seconds) passed; [elapsed] is the
          time actually spent when the guard fired *)
  | Live_limit_exceeded of { limit : int; live : int }
      (** visited bindings + frontier size exceeded the live-state
          budget; deterministic for a fixed strategy and input *)

val reason_string : reason -> string

type 'a outcome =
  | Exhausted  (** the reachable space was fully enumerated *)
  | Goal_found of 'a  (** the first goal state, in visitation order *)
  | Truncated of reason
      (** a budget, deadline or live-state limit ran out with states
          still pending — the generalization of the scheme layer's
          [Realized]/[Unrealizable]/[Truncated] triad *)

val outcome_kind : 'a outcome -> Metrics.outcome_kind
val truncated : 'a outcome -> bool

(** The order in which each root of a client sweep is searched.
    [Layers] is the breadth-first search ({!Make.run}), whose goal
    witnesses are shortest ones.  [Async] is the depth-first search
    ({!Make.run_par_async}).  Each root runs on one worker, so under
    either driver every answer and counter but the timings is the
    same for every [--jobs].  The two modes can disagree on count
    statistics where distinct paths converge on one behavioural
    state, because the representative kept is visit-order dependent.
    Clients default to [Async], except realization. *)
type par_mode = Layers | Async

val par_mode_string : par_mode -> string
(** The driver's token in the keys of the per-root memo ({!memo}):
    ["layers2"] and ["async"].  [Layers] reads ["layers2"] since its
    order within a layer became the generation order: a truncation
    set, realize witness or kept representative stored under the
    older grouped order is recomputed, never reused. *)

(** Disk-backed visited storage.  When passed to a driver, the
    in-memory visited store is replaced by a
    {!Patterns_stdx.Spill_store} rooted at [dir]: at most [mem_budget]
    visited bindings stay resident, the rest live in sorted on-disk
    runs probed by fingerprint.  Probe counting, cumulative binding
    counts and the insertion discipline are identical to the in-memory
    stores, and eviction happens only at driver-chosen points (serial:
    between layers; async: per processed state), so outcomes,
    observations and the search counters are identical with or
    without spilling.  [shard_bits] follows the store in use, under
    either driver: the table's starting exponent (6) in memory and
    {!Patterns_stdx.Spill_store.shard_bits} (4) with spilling.  The /7
    spill counters themselves are deterministic, [spill_fd_reopens]
    included: each store keeps its own descriptor cache.
    [mem_budget] bounds each root's store, and a {!sweep} keeps up to
    [jobs] roots live at once.  One semantic shift: the [max_live] guard
    counts {e resident} bindings plus frontier rather than cumulative
    bindings — spilling exists precisely to move cold states out of
    the live-memory budget.  Run files are deleted when the driver
    returns. *)
type spill = { dir : string; mem_budget : int }

val merge_into : Metrics.t ref option -> Metrics.t -> unit
(** [merge_into sink m]: accumulate [m] into an optional metrics sink
    (the convention used by every [?metrics] parameter downstream). *)

module type Problem = sig
  type state

  val compare : state -> state -> int
  (** Total order; [compare a b = 0] is the dedup equality. *)

  val fingerprint : state -> Patterns_stdx.Fingerprint.t
  (** Must agree with [compare]: equal states have equal
      fingerprints (the converse may fail — that is the collision the
      store resolves structurally: a fingerprint hit is confirmed with
      [compare] before it counts as membership).  Called once per
      visited-store probe or insert, so it should be O(1) — engine
      configurations carry theirs incrementally. *)
end

module Make (P : Problem) : sig
  (** Observation interface.  [expand acc s] is called exactly once
      per visited state: it folds the state's observations (pattern
      collection, violation recording) into [acc] and returns the
      successors.  {!run} threads one accumulator from [empty] through
      the whole search in visitation order, and so does
      {!run_par_async}.  Nothing calls [merge]: the field is kept for
      bench/perf's shadow searches, which build the record with it. *)
  type 'obs par_expand = {
    empty : unit -> 'obs;
    merge : 'obs -> 'obs -> 'obs;
    expand : 'obs -> P.state -> P.state list;
  }

  val run :
    ?budget:int ->
    ?deadline:float ->
    ?max_live:int ->
    ?spill:spill ->
    ?is_goal:(P.state -> bool) ->
    ?prune:(P.state -> bool) ->
    ?edges:
      (src:Patterns_stdx.Fingerprint.t -> event:int -> dst:Patterns_stdx.Fingerprint.t -> unit) ->
    expand:'obs par_expand ->
    root:P.state ->
    unit ->
    P.state outcome * 'obs * Metrics.t
  (** Breadth-first search from [root], on the calling domain.
      Each layer is charged against [budget] (default unlimited) and
      goal-tested with [is_goal] in frontier order, so a mid-layer
      stop is deterministic and the first goal found is at the
      smallest depth.  The layer is then expanded in frontier order,
      and each successor passes the one successor rule as it is
      generated: those for which [prune] returns [true] are discarded
      (counted in [pruned]; [prune] must be pure, since it also sees
      states already visited), the rest are claimed into the visited
      store (a {!Patterns_stdx.Visited_table}, or the spill store),
      and a claim that finds the state already there counts in
      [dedup_hits].  The next layer is the claimed successors in
      generation order, so the visit order is a function of the
      reachable graph alone.

      [deadline] (wall-clock seconds from the start of this call) and
      [max_live] (visited bindings plus the pending layer) are the
      graceful-degradation guards, checked once per layer before it is
      charged: exceeding either stops the search with {!Truncated}
      ({!Deadline_exceeded} / {!Live_limit_exceeded}) instead of
      hanging or exhausting memory, with overshoot bounded by one
      layer.  [max_live] truncation is deterministic; [deadline]
      truncation points are wall-clock-dependent by nature.  The root
      is neither pruned nor goal-exempt.

      [fingerprint_probes] counts one claim per successor not pruned
      plus the root's, so an exhausted search has [fingerprint_probes
      = states_expanded + dedup_hits]; [layers] counts the layers
      charged, and [shard_bits] is the store's.

      [edges] is the optional execution-database sink, shared with
      {!run_par_async}: each expansion of a state invokes it once per
      successor — before visited/prune filtering, so the database
      records the raw expansion relation — with [src] and [dst] the
      two states' [P.fingerprint]s and [event] the successor's
      ordinal in fingerprint order (a function of the state alone).
      It runs on the searching domain; a sink shared by the roots of a
      {!sweep} at [jobs > 1] must be safe to call from several. *)

  val run_par_async :
    ?pool:Patterns_stdx.Domain_pool.t ->
    ?budget:int ->
    ?deadline:float ->
    ?max_live:int ->
    ?spill:spill ->
    ?is_goal:(P.state -> bool) ->
    ?prune:(P.state -> bool) ->
    ?edges:
      (src:Patterns_stdx.Fingerprint.t -> event:int -> dst:Patterns_stdx.Fingerprint.t -> unit) ->
    expand:'obs par_expand ->
    root:P.state ->
    unit ->
    P.state outcome * 'obs * Metrics.t
  (** Depth-first search from [root], on the calling domain: one stack
      of claimed states, from which the newest is popped, charged
      against [budget], goal-tested with [is_goal] and expanded, its
      claimed successors pushed in generation order.  Its name, from
      the work-stealing driver it replaced, and the ignored [?pool]
      are kept for bench/perf's shadow searches, which still call it
      so.

      Successors pass the same rule as under {!run}: [prune] first
      ([prune] must be pure), then the claim.  The visit order is a
      function of the problem, root and budget, so every outcome,
      goal witness, truncation point and counter but the timings
      repeats run after run.  On a search that runs to {!Exhausted}
      the visited set, the observations and the counters
      [states_expanded], [dedup_hits], [pruned] and
      [fingerprint_probes] match {!run}'s.  A budget-cut search
      expands a prefix of its exhaustive order.  [deadline] and
      [max_live] (visited bindings only: the stack is not counted)
      are checked before each state is charged.  [frontier_peak] is
      the stack's high-water mark; [layers] stays 0. *)
end

(** The per-root memo: sealed facts in an execution database, one per
    finished root, which {!sweep} consults before searching a root and
    records after.  A fact seals the root's payload with its size
    (states expanded), its successor derivations, its outcome and its
    live-limit hit; [kind] names the payload type, so a payload change
    takes a new kind.  [params] names every parameter the answer
    depends on — protocol, n, rule, fault bound, notice discipline,
    driver — and [key] the root; [budget] is the per-root state budget
    and [max_live] the live-state limit.

    - A root that ran to completion (exhausted, or a goal found) in a
      run without a live-state limit is keyed without budgets, and
      reused whenever its recorded size fits [budget].
    - Every other root is keyed with [budget] and [max_live].
    - A root cut short by the deadline is never recorded.

    A reused root reports no kernel work: its metrics are zero but for
    the successor derivations it skips, in [delta_reused_edges], and
    its outcome and live-limit hit.  A fact that does not unseal is a
    miss: the root is searched again and the fact overwritten.  The
    spill budget and [--jobs] are not in the key: neither changes a
    payload. *)
type 'r memo = {
  base : Patterns_db.Db.t;
  kind : string;
  params : string;
  key : 'r -> string;
  budget : int;
  max_live : int option;
}

val memo_find : 'r memo -> 'r -> ('p * Metrics.t) option
(** A recorded root's payload and the metrics a reuse reports. *)

val memo_record : 'r memo -> 'r -> 'p * Metrics.t -> unit
(** Record a freshly searched root's payload under the key its metrics
    call for; nothing when they carry a deadline hit. *)

val sweep :
  ?metrics:Metrics.t ref ->
  ?deadline:float ->
  ?memo:'r memo ->
  jobs:int ->
  root:(deadline:float option -> 'r -> 'p * Metrics.t) ->
  merge:('acc -> 'p -> 'acc) ->
  'acc ->
  'r list ->
  'acc
(** [sweep ~jobs ~root ~merge init roots]: the per-root loop every
    exhaustive answer runs through.  Each root is searched by [root
    ~deadline r] on one domain.  With [jobs > 1] and at least two
    roots, the roots are mapped over a pool of [jobs] workers, so up
    to [jobs] roots run at once and each root's search is the one it
    is at [jobs = 1]: the answer and every counter but the timings are
    the same for every [jobs], truncated sweeps included.  Otherwise
    the roots run one at a time on the calling domain.  Payloads are
    folded into [init] with [merge] in root order; the per-root
    metrics are tagged with the root's index
    ({!Metrics.with_root_index}), merged in root order and accumulated
    into [metrics].  [deadline] bounds the whole sweep: each root
    receives the time remaining when it starts.  The per-search
    bounds a [root] applies (state budget, live-state limit, spill
    budget) therefore bound each root, with up to [jobs] roots live at
    once.  With [memo], a root found there is not searched
    ({!memo_find}) and a searched one is recorded ({!memo_record}), on
    the worker that searches it, so the answer is the same as without
    it and only the metrics differ; a database hook that runs on each
    record ({!Patterns_db.Db.on_put}) may therefore run on several
    domains at once. *)

val find_first :
  ?metrics:Metrics.t ref ->
  jobs:int ->
  ?deadline:float ->
  ?start:int ->
  max_index:int ->
  f:(int -> 'a option) ->
  unit ->
  ('a, int) result
(** Strided goal search over the index space [start..max_index]
    ([start] defaults to 1; a hunt scans its index space chunk by
    chunk with it — the (winner, tried) result over a window is
    identical to the same window of a full scan):
    worker [w] of [jobs] owns the stride [start+w, start+w+jobs, …]
    and scans it as one long-lived task — zero shared mutable state beyond a CAS-min
    cell holding the smallest goal index found, so independent
    evaluations (hunt runs) never synchronize.  A worker abandons its
    stride only once its next index exceeds the current minimum, so
    every index below the final winner was evaluated and the returned
    witness is the one at the globally smallest goal index — identical
    for every [jobs] value.  [Error tried] means no goal — a truncated
    search (absence is not proven), and the metrics outcome says so;
    [tried] is the number of indices evaluated ([= max_index] exactly
    when the space was swept, fewer when [deadline] — checked before
    each evaluation — fired first, in which case [deadline_hits] is
    set in the metrics).  When a goal is found, the expanded count
    includes speculative evaluations past the winner and therefore
    varies with [jobs]; all other fields and the result itself are
    jobs-invariant. *)
