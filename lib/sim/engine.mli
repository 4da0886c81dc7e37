(** Execution engine: the paper's model of computation, executable.

    [Make (P)] instantiates the asynchronous fail-stop message system
    for protocol [P]: unordered per-processor buffers, events
    [(p, mu)] applied to configurations, fail-stop failures with
    broadcast failure notices, and schedulers ranging from fair
    deterministic to seeded-random to scripted replays.

    Configurations are persistent values, so exploration (branching
    over all applicable events) needs no undo machinery; the engine
    additionally threads the communication-pattern-so-far through each
    configuration, which lets the scheme enumerator memoize on
    configurations alone. *)

module Make (P : Protocol.S) : sig
  (** {1 Configurations} *)

  type entry =
    | Note of Proc_id.t  (** failure notice in a buffer *)
    | Data of { triple : Triple.t; payload : P.msg }

  type config
  (** A configuration: all local states plus all buffer contents
      (paper Section 3), extended with the bookkeeping needed for
      patterns (per-pair send counts, per-processor knowledge sets,
      accumulated pattern edges). *)

  val init : n:int -> inputs:bool list -> config
  (** Initial configuration: processor [i] starts in
      [P.initial ~input:(nth inputs i)]; buffers empty.  Every
      configuration descended from this one carries incrementally
      maintained fingerprints and per-root interning — what a search
      with a visited store wants.
      @raise Invalid_argument if [length inputs <> n] or [P.valid_n n]
      is false. *)

  val init_untracked : n:int -> inputs:bool list -> config
  (** Like {!init}, but {!apply} skips fingerprint maintenance and
      interning on every descendant, and
      {!fingerprint}/{!behavioral_fingerprint} fall back to a full
      fold, computed on first demand and memoized — the right trade
      for linear runs that never probe a visited store. *)

  val n_of : config -> int
  val inputs_of : config -> bool array
  val state_of : config -> Proc_id.t -> P.state
  val states_of : config -> P.state array
  val buffer_of : config -> Proc_id.t -> entry list
  (** Arrival order, oldest first. *)

  val is_failed : config -> Proc_id.t -> bool
  val status_of : config -> Proc_id.t -> Status.t
  val statuses : config -> Status.t array
  val decisions_of : config -> (Proc_id.t * Decision.t) list
  (** Current decision states (amnesic processors excluded). *)

  val pattern_edges : config -> (Triple.t * Triple.t) list
  (** Direct happens-before pairs accumulated so far, sorted. *)

  val triples_of : config -> Triple.t list
  (** All message triples sent so far, sorted. *)

  val pattern_fp : config -> Patterns_stdx.Fingerprint.t
  (** Canonical fingerprint of the accumulated pattern alone — the
      triples and the happens-before edges, nothing else. *)

  val same_pattern_rep : config -> config -> bool
  (** Physical equality of the interned pattern components.  Within
      one root this holds exactly when the accumulated patterns are
      structurally equal, so a terminal-pattern cache can use
      {!pattern_fp} as the key and this as the collision-proof
      confirmation, skipping extraction for repeats. *)

  val compare_config : config -> config -> int
  (** Structural order including pattern bookkeeping; two configs are
      equal iff their futures (and final patterns) coincide. *)

  val compare_behavioral : config -> config -> int
  (** Ignores pattern bookkeeping (send counts, knowledge, edges):
      equality of states, failure flags and buffer multisets only.
      Suitable for local-state reachability analyses. *)

  val fingerprint : config -> Patterns_stdx.Fingerprint.t
  (** Canonical 64-bit fingerprint, consistent with {!compare_config}:
      equal configurations have equal fingerprints however they were
      reached.  Under a tracking root (see {!init}) it is carried in
      the configuration and maintained incrementally by {!apply} —
      reading it is O(1); under [~track_fingerprints:false] the first
      read pays a full fold, memoized per configuration. *)

  val behavioral_fingerprint : config -> Patterns_stdx.Fingerprint.t
  (** Canonical fingerprint of the behavioral projection, consistent
      with {!compare_behavioral}; same laziness as {!fingerprint}. *)

  val fingerprint_from_scratch : config -> Patterns_stdx.Fingerprint.t
  (** Recompute {!fingerprint} by full folds over every field, ignoring
      the incrementally maintained value.  For the consistency test
      suite: [fingerprint_from_scratch c = fingerprint c] is the
      maintenance invariant. *)

  val intern_bindings : config -> int
  (** Distinct knowledge/trips sets interned under this
      configuration's root ([init] creates a fresh table); a
      deterministic measure of set-sharing, surfaced in search
      metrics. *)

  val hash_config : config -> int
  (** Consistent with {!compare_config}: the {!fingerprint} folded to
      an [int].  O(1). *)

  val hash_behavioral : config -> int
  (** Consistent with {!compare_behavioral}: the
      {!behavioral_fingerprint} folded to an [int].  O(1). *)

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
      of the victim.  Its fingerprint delta is the exact inverse of
      the buffer contribution added by the send, preserving the
      incremental-equals-scratch invariant. *)

  val apply_exn : step:int -> config -> Action.t -> config * P.msg Trace.event list
  (** @raise Failure on [Error]. *)

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
    ?track_fingerprints:bool ->
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

      [track_fingerprints] defaults to [false] here, unlike {!init}: a
      linear run attaches no visited store, so incremental fingerprint
      maintenance would be pure overhead (measured ~2x on hunt-style
      workloads).  Pass [true] if the final configuration's
      fingerprint will be probed repeatedly. *)

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
      boundary.  Snapshots are untracked configurations sharing
      structure with their successors; recording them is O(steps)
      extra memory. *)

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
