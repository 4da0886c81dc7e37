(** Execution engine: the paper's model of computation, executable.

    [Make (P)] instantiates the asynchronous fail-stop message system
    for protocol [P]: unordered per-processor buffers, events
    [(p, mu)] applied to configurations, fail-stop failures with
    broadcast failure notices, and schedulers ranging from fair
    deterministic to seeded-random to scripted replays.

    Configurations are persistent values, so exploration (branching
    over all applicable events) needs no undo machinery.  There are
    three representations, one per kind of client.  A {!Make.config}
    threads the communication-pattern-so-far through every step and
    yields the trace events that runs, replays and the theorem checks
    read.  A {!Make.Flat.t} is the behaviour-only configuration of
    exhaustive searches that read no pattern and no trace: local
    states, failure flags and buffers, stepped by a search-only
    {!Make.Flat.step}.  A {!Make.Patterned.t} is a flat configuration
    with the happens-before edges, for the searches that collect
    patterns: scheme enumeration and realization. *)

module Make (P : Protocol.S) : sig
  (** {1 Configurations} *)

  type entry =
    | Note of Proc_id.t  (** failure notice in a buffer *)
    | Data of { triple : Triple.t; payload : P.msg }

  type config
  (** A configuration: all local states plus all buffer contents
      (paper Section 3), extended with the bookkeeping needed for
      patterns (per-pair send counts, per-processor knowledge sets,
      the triples sent) and the happens-before edges, kept as one
      entry per send holding its triple and the causes its [Sent]
      event carries.  Nothing is maintained for a visited store:
      {!pattern_edges} and {!compare_config} build the edge set from
      the sends on every call, and the fingerprints ({!fingerprint},
      {!behavioral_fingerprint}) are full folds on first demand,
      memoized per configuration.  For linear runs (hunts, replays,
      shrinks, audits) and the theorem checks, which read local
      states, decisions and the trace and never probe a visited
      store.  Searches run on {!Flat} or {!Patterned}, which step the
      same way without trace events. *)

  val init : n:int -> inputs:bool list -> config
  (** Initial configuration: processor [i] starts in
      [P.initial ~input:(nth inputs i)]; buffers empty.
      @raise Invalid_argument if [length inputs <> n] or [P.valid_n n]
      is false. *)

  val n_of : config -> int
  val state_of : config -> Proc_id.t -> P.state
  val buffer_of : config -> Proc_id.t -> entry list
  (** Arrival order, oldest first. *)

  val is_failed : config -> Proc_id.t -> bool
  val status_of : config -> Proc_id.t -> Status.t
  val statuses : config -> Status.t array
  val decisions_of : config -> (Proc_id.t * Decision.t) list
  (** Current decision states (amnesic processors excluded). *)

  val pattern_edges : config -> (Triple.t * Triple.t) list
  (** Direct happens-before pairs accumulated so far, sorted, expanded
      from the recorded sends on every call. *)

  val triples_of : config -> Triple.t list
  (** All message triples sent so far, sorted. *)

  val compare_config : config -> config -> int
  (** Structural order including pattern bookkeeping; two configs are
      equal iff their futures (and final patterns) coincide.  The
      edge sets are built from the recorded sends when the comparison
      gets that far. *)

  val compare_behavioral : config -> config -> int
  (** Ignores pattern bookkeeping (send counts, knowledge, edges):
      equality of states, failure flags and buffer multisets only.
      {!Flat.compare} decides the same equality on flat
      configurations. *)

  val fingerprint : config -> Patterns_stdx.Fingerprint.t
  (** Canonical 64-bit fingerprint, consistent with {!compare_config}:
      equal configurations have equal fingerprints however they were
      reached.  The first read pays a full fold, memoized per
      configuration; {!Patterned.fingerprint} is the same word for the
      same configuration, carried. *)

  val behavioral_fingerprint : config -> Patterns_stdx.Fingerprint.t
  (** Canonical fingerprint of the behavioral projection, consistent
      with {!compare_behavioral}: a memoized full fold.
      {!Flat.fingerprint} is the same word for the same behavioural
      configuration. *)

  val hash_config : config -> int
  (** Consistent with {!compare_config}: the {!fingerprint} folded to
      an [int]. *)

  val hash_behavioral : config -> int
  (** Consistent with {!compare_behavioral}: the
      {!behavioral_fingerprint} folded to an [int]. *)

  val pp_config : Format.formatter -> config -> unit

  (** {1 Stepping} *)

  val applicable : ?fifo_notices:bool -> config -> Action.t list
  (** All applicable non-failure events, deterministically ordered:
      for each operational processor in id order, deliveries (buffer
      order) or its sending step.

      With [fifo_notices] (default false), the failure notice about
      [q] is deliverable only once no message from [q] remains in the
      buffer — the delivery discipline of fail-stop processors in the
      style of Schneider's [S], where failure detection sits below the
      (per-sender ordered) channel.  The paper's own model leaves
      notices unordered with respect to messages; the distinction is
      observable (see the Theorem 7 ablation in EXPERIMENTS.md). *)

  val failure_actions : config -> Action.t list
  (** [Fail p] for every processor that has not failed yet. *)

  val quiescent : config -> bool
  (** No applicable non-failure event: every operational processor is
      quiescent or listening at an empty buffer. *)

  val apply : step:int -> config -> Action.t -> (config * P.msg Trace.event list, string) result
  (** Apply one event.  [Error] explains inapplicability or a protocol
      invariant violation (e.g. revoking a decision).

      {!Action.Drop} is the receive-omission fault: the named buffer
      entry vanishes (it must be a [Data] entry — failure notices
      cannot be dropped) with no state change, no knowledge update and
      no notice.  Unlike delivery it applies at a failed or
      non-receiving processor: the drop is a network event, not a step
      of the victim. *)

  val apply_exn : step:int -> config -> Action.t -> config * P.msg Trace.event list
  (** @raise Failure on [Error]. *)

  (** {1 Flat configurations for behavioural searches} *)

  (** The behaviour-only configuration of exhaustive searches that
      dedup on {!compare_behavioral} and read no pattern and no trace:
      the classification sweep and the concurrency sets.  It holds the
      interned local states with their fingerprint words, the failure
      flags, each receiver's buffer as an array in arrival order, the
      per-pair send counts (which mint the message indices buffered
      entries carry) and the behavioural fingerprint — nothing else.
      Every value equals the one a {!config} stepped through the same
      actions holds, the behavioural fingerprint included. *)
  module Flat : sig
    type t

    val init : n:int -> inputs:bool list -> t
    (** The initial configuration, as {!Make.init}'s; each call starts a
        fresh state intern table shared by its descendants.
        @raise Invalid_argument as {!Make.init} does. *)

    val n_of : t -> int
    val state_of : t -> Proc_id.t -> P.state
    val status_of : t -> Proc_id.t -> Status.t
    val is_failed : t -> Proc_id.t -> bool

    val compare : t -> t -> int
    (** Equality of inputs, states, failure flags and buffer
        multisets: {!Make.compare_behavioral}'s, as a total order. *)

    val fingerprint : t -> Patterns_stdx.Fingerprint.t
    (** The {!Make.behavioral_fingerprint} of the same configuration, bit
        for bit; carried, O(1). *)

    val intern_bindings : t -> int
    (** Distinct local states interned under the root: a deterministic
        measure of sharing, surfaced in search metrics. *)

    val pp : Format.formatter -> t -> unit
    (** {!Make.pp_config}'s text for the same configuration. *)

    val applicable : ?fifo_notices:bool -> t -> Action.t list
    (** {!Make.applicable}'s list for the same configuration. *)

    val failure_actions : t -> Action.t list

    type stepped =
      | Next of t * int
          (** the successor, and the first decision the step gave the
              stepping processor: [1] commit, [2] abort, [0] none —
              nonzero exactly when {!Make.apply}'s events carry a
              [Decided] *)
      | Refused of string  (** {!Make.apply}'s [Error] text *)

    val step : t -> Action.t -> stepped
    (** {!Make.apply} for searches: the same successor, built without trace
        events, and the same refusals.  A search explores sends,
        deliveries and failures only, so it refuses every in-range
        {!Action.Drop}. *)
  end

  (** {1 Flat configurations with their pattern, for pattern searches} *)

  (** The configuration of the searches that dedup on
      {!compare_config} and collect patterns: scheme enumeration and
      realization.  It wraps a {!Flat.t} and adds the happens-before
      edge set, interned per root, with the fingerprints of the edges
      and of the pattern bookkeeping.  The rest of that bookkeeping
      needs no field: the triples sent are the send counts, and what a
      processor knows (the causes of its next send) is everything it
      sent plus everything sent to it that its buffer no longer holds,
      since {!Flat.step} refuses drops.  So {!compare} decides
      {!compare_config}'s equality, and every value equals the one a
      {!config} stepped through the same actions holds. *)
  module Patterned : sig
    type t

    val init : n:int -> inputs:bool list -> t
    (** The initial configuration, as {!Make.init}'s; each call starts
        fresh state and edge-set intern tables shared by its
        descendants.
        @raise Invalid_argument as {!Make.init} does. *)

    val applicable : t -> Action.t list
    (** {!Make.applicable}'s list for the same configuration. *)

    val step : t -> Action.t -> t
    (** {!Flat.step} plus the edge update: a send adds an edge from
        each message its sender knows to the new one.  The same
        successor as {!Make.apply}.
        @raise Failure with {!Make.apply_exn}'s text where {!Make.apply}
        refuses. *)

    val compare : t -> t -> int
    (** {!Flat.compare}, then the send counts, then the edge sets
        (physically equal within a root when structurally equal): a
        total order whose equality is {!Make.compare_config}'s. *)

    val fingerprint : t -> Patterns_stdx.Fingerprint.t
    (** The {!Make.fingerprint} of the same configuration, bit for
        bit; carried, O(1). *)

    val triples : t -> Triple.t list
    (** {!Make.triples_of}: every message sent so far, sorted. *)

    val edges : t -> (Triple.t * Triple.t) list
    (** {!Make.pattern_edges}: the direct happens-before pairs,
        sorted. *)

    val pattern_key : t -> int
    (** A hash of the pattern alone (the send counts, which name the
        triples, and the edges), for a cache of terminal patterns. *)

    val same_pattern : t -> t -> bool
    (** Whether two configurations under one root have the same
        pattern: equal send counts and physically equal edge sets.
        With {!pattern_key} it lets a search skip extracting a pattern
        it has seen. *)

    val intern_bindings : t -> int
    (** Distinct local states and edge sets interned under the
        root. *)
  end

  (** {1 Schedulers and runs} *)

  type scheduler = step:int -> config -> Action.t list -> Action.t option
  (** Chooses among the applicable non-failure events; [None] stops
      the run early. *)

  val fifo_scheduler : scheduler
  (** Lowest processor first; oldest buffered item first.  Fair on
      quiescing protocols. *)

  val round_robin_scheduler : scheduler
  (** Rotates the starting processor with the step counter; fair even
      against non-quiescing protocols. *)

  val random_scheduler : Patterns_stdx.Prng.t -> scheduler
  (** Uniform among applicable events; fair with probability 1. *)

  val notice_first_scheduler : Patterns_stdx.Prng.t -> scheduler
  (** Adversarial flavour: whenever a failure notice is deliverable it
      is preferred over data (the race that breaks the standalone
      Appendix protocol); otherwise uniform random.  Fair. *)

  val lifo_scheduler : scheduler
  (** Deterministic adversarial flavour: newest buffered item first,
      highest processor first — stresses protocols that implicitly
      assume per-sender ordering.  Fair on quiescing protocols. *)

  type run_result = {
    final : config;
    trace : P.msg Trace.t;
    steps : int;
    quiescent : bool;  (** ended by quiescence rather than the step cap *)
  }

  val run :
    ?max_steps:int ->
    ?failures:(int * Proc_id.t) list ->
    ?faults:Fault.t list ->
    ?fifo_notices:bool ->
    scheduler:scheduler ->
    n:int ->
    inputs:bool list ->
    unit ->
    run_result
  (** Run from the initial configuration.  [failures] is a failure
      plan: [(k, p)] fail-stops [p] at global step [k] (failure steps
      consume a step).  Default [max_steps] is 100_000.

      [faults] (default [[]]) is the layered fault plan.  A
      {!Fault.Crash} joins [failures] verbatim, so passing crashes
      either way is equivalent.  A {!Fault.Drop} fires at the first
      step [>= f.step] at which the victim holds a buffered message,
      silently discarding the oldest one (a fault step consumes a
      step, like a crash).  A {!Fault.Send_omit} latches onto the
      victim's next sending step at [>= f.step] that actually emits:
      the message is sent and immediately dropped from the
      destination's buffer within the same loop iteration — lost in
      transit, invisible to both endpoints.  Faults are one-shot and
      fire in list order when several are due.  With [faults = []]
      the run is bit-identical to what it was before omission faults
      existed.

      A linear run attaches no visited store: it starts at {!init}
      and maintains no fingerprint on the way. *)

  (** {1 Memoized failure-free prefixes}

      A fault plan's run equals the failure-free run of the same
      (scheduler, inputs) up to the plan's earliest crash step: the
      run loop fires no failure while every pending [(k, p)] has
      [k > step].  For a deterministic scheduler — a pure function of
      [(step, config, actions)], like {!fifo_scheduler},
      {!lifo_scheduler} and {!round_robin_scheduler} — the
      failure-free run can therefore be computed once and every plan
      resumed from its recorded step boundary.  This is the engine
      half of the adversary's shared-prefix memoization. *)

  type prefix
  (** One failure-free run with a configuration snapshot at every step
      boundary.  Snapshots are configurations sharing structure with
      their successors: a step copies only the arrays
      it touches, and a send adds one entry to the send list rather
      than an edge-set path per cause, so recording them costs
      O(steps) extra memory for a fixed [n], up to logarithmic
      factors. *)

  val run_prefix :
    ?max_steps:int ->
    ?fifo_notices:bool ->
    scheduler:scheduler ->
    n:int ->
    inputs:bool list ->
    unit ->
    prefix

  val prefix_result : prefix -> run_result
  (** The failure-free run itself — what {!resume} returns verbatim
      for an empty failure plan. *)

  val resume :
    ?max_steps:int ->
    ?fifo_notices:bool ->
    scheduler:scheduler ->
    failures:(int * Proc_id.t) list ->
    ?faults:Fault.t list ->
    prefix:prefix ->
    unit ->
    run_result * int
  (** Resume the recorded run with [failures] and [faults] pending,
      from the snapshot at the earliest fault step (or answer with the
      whole failure-free result when every fault lands past its end —
      valid because no fault of any kind fires before its step).
      Given the same [scheduler], [max_steps] and [fifo_notices] the
      prefix was recorded under, the result is bit-identical to
      [run ~failures ~faults]; the returned integer is the number of
      engine steps answered from the memo instead of re-executed. *)

  (** {1 Scripted replays}

      Indistinguishability scenarios (Theorems 8 and 13) and
      certificate replays need exact control over delivery order;
      {!Script.directive}s express them readably.  The type is
      re-exported here so engine clients keep using the constructors
      unqualified; serialization and trace extraction live in
      {!Script}, outside the functor. *)

  type directive = Script.directive =
    | Step_of of Proc_id.t  (** one sending step of the processor *)
    | Deliver_from of Proc_id.t * Proc_id.t
        (** [Deliver_from (at, from)]: oldest buffered message from
            [from] *)
    | Deliver_msg of { at : Proc_id.t; from : Proc_id.t; index : int }
        (** the buffered message with triple [(from, at, index)]
            exactly — expresses out-of-order delivery within one
            sender, which {!Deliver_from} cannot *)
    | Deliver_note of Proc_id.t * Proc_id.t
        (** [Deliver_note (at, about)]: the failure notice about
            [about] *)
    | Drop_msg of { at : Proc_id.t; from : Proc_id.t; index : int }
        (** receive omission: silently discard the buffered message
            with triple [(from, at, index)]; fails if no such message
            is buffered — replay validates drops against the buffered
            state exactly like deliveries *)
    | Fail_now of Proc_id.t
    | Drain of Proc_id.t
        (** sending steps until the processor leaves its sending
            states *)
    | Flush_fifo  (** run the FIFO scheduler to quiescence *)

  val pp_directive : Format.formatter -> directive -> unit

  val play : config -> directive list -> (config * P.msg Trace.t, string) result
  (** Interpret directives in order; fails fast naming the offending
      directive's 1-based position in the script and pretty-printing
      it ([directive #3 [deliver to p1 from p0] failed: ...]). *)

  val play_exn : config -> directive list -> config * P.msg Trace.t
end
