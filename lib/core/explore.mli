(** Exhaustive exploration of reachable configurations.

    [Make (P)] enumerates every configuration reachable from the given
    initial input vectors under every schedule, with up to
    [max_failures] fail-stop events injected at every possible point.
    On the way it checks, for every execution the model admits:

    - interactive consistency (config-level, the paper's definition);
    - total consistency (via each processor's first decision, so
      amnesia cannot hide a conflict);
    - conformance to the decision rule, checked at decision time;
    - validity on failure-free paths;
    - weak / strong / halting termination at every terminal
      (quiescent) configuration;

    and accumulates the data for Theorem 2: each operational local
    state's concurrency information — which decision values co-occur
    with it and whether it implies the all-ones input vector — from
    which the safe-state conditions and Corollary 6 are decided.

    None of this reads a communication pattern or a trace, so every
    root is a flat behaviour-only configuration
    ({!Engine.Make.Flat.init}) stepped by {!Engine.Make.Flat.step}: the
    sweep pays for no knowledge sets, happens-before edges, triples or
    trace events.  A node is such a configuration plus each
    processor's first decision, 2 bits per processor in one [int], so
    [n] is at most 31.  The accumulation is per root: input-vector
    constants are computed once per root, and each worker folds its
    states into a mutable table that becomes the report's [states], in
    [P.compare_state] order.

    What a sweep stores for later runs is its per-root memo
    ({!Patterns_search.Search.memo}): one sealed report per input
    vector.  A damaged fact, or one of a retired kind, is a miss, and
    its vector is explored afresh. *)

open Patterns_sim

module Make (P : Protocol.S) : sig
  module E : module type of Engine.Make (P)

  type options = {
    max_failures : int;
    max_configs : int;
        (** total node budget; split evenly across the input vectors,
            which shard the sweep (each vector's reachable set is
            disjoint from every other's) *)
    inputs_choices : bool list list;
    fifo_notices : bool;
        (** deliver a failure notice only after all of the failed
            sender's messages (fail-stop-processor discipline); the
            paper's unordered default is [false] *)
    jobs : int;
        (** worker domains (default 1).  With several input vectors
            the parallelism is across them: up to [jobs] vectors are
            searched at once, each by one worker, so any value yields
            the same report, truncated or not. *)
    par_mode : Patterns_search.Search.par_mode;
        (** driver: [Async] (default) is the depth-first driver,
            [Layers] the breadth-first one.  Violation
            witnesses are canonicalized — each report cell keeps the
            violation observed at the smallest expanded-node
            fingerprint key — so both modes report the same witnesses;
            counts can differ between the modes where distinct paths
            converge on one behavioural node, and so can the subset a
            truncated sweep visits. *)
    deadline : float option;
        (** wall-clock budget (seconds) for the whole sweep: each
            vector's search receives the time remaining at its turn,
            and exceeding it truncates gracefully instead of
            hanging *)
    max_live : int option;
        (** live-state budget (visited + frontier) per vector's
            search, with up to [jobs] vectors live at once; exceeding
            it truncates gracefully instead of exhausting memory.
            Deterministic and jobs-invariant. *)
    edge_sink : (src:int -> event:string -> dst:int -> unit) option;
        (** execution-database recorder: invoked once per expansion
            edge with the node fingerprints as [src]/[dst] and the
            successor ordinal (rendered ["#k"]) as the event
            descriptor.  Called concurrently from worker domains —
            thread safety is the callee's obligation (the execution
            database locks internally).  [None] (the default) records
            nothing and costs nothing. *)
    spill : Patterns_search.Search.spill option;
        (** disk-backed visited storage for every vector's search —
            identical reports and search counters ([shard_bits] aside),
            bounded resident store ({!Patterns_search.Search.spill}) *)
    base : Patterns_db.Db.t option;
        (** the per-root memo ({!Patterns_search.Search.memo}): one
            ["classify_vec3"] fact per input vector, its report sealed
            with {!Patterns_db.Db.put_sealed}, keyed by protocol, n,
            rule, [max_failures], [fifo_notices], [par_mode] and the
            vector, and by the per-vector budget and [max_live] where
            the report depends on them.  A vector recorded there is not
            explored again — its report is bit-identical to a
            from-scratch one under the same driver, and the skipped
            derivations are counted in the metrics'
            [delta_reused_edges] — and an explored vector is recorded
            unless the deadline cut it short.  A fact that does not
            unseal is a miss: the vector runs fresh and overwrites it.
            Reused vectors emit no edges to [edge_sink]. *)
  }

  val default_options : n:int -> options
  (** All [2^n] input vectors, one failure, 400_000 configurations,
      unordered notices, one worker, async driver, no deadline, no
      live-state limit, no edge sink, no spilling, no memo. *)

  type state_info = {
    state : P.state;
    decision : Decision.t option;  (** from the state's status *)
    commit_cooccurs : bool;
        (** some reachable configuration pairs this state with an
            operational committed processor *)
    abort_cooccurs : bool;
    always_all_ones : bool;
        (** every reachable configuration containing this state
            permits commit under the classified rule — the paper's
            "s implies satisfaction of the commit rule" *)
    input_vectors : int list;
        (** every input vector (bit i of the encoding = processor i's
            initial bit) of a reachable configuration containing this
            state — the raw material of "s implies X" *)
    occurrences : int;
        (** (node, operational processor) visits: each expanded node
            adds one per operational processor in this state.  Not a
            count of distinct configurations — two processors sharing
            the state in one node count twice, and one configuration
            reached with different first decisions is several
            nodes. *)
  }

  val implies : n:int -> state_info -> (bool array -> bool) -> bool
  (** [implies ~n info pred]: the paper's "state s implies predicate
      X" — [pred inputs] holds for every input vector of a reachable
      configuration containing the state. *)

  val safe : state_info -> bool
  (** The paper's safe-state predicate: not both decisions in the
      concurrency set, and committability implies all-ones. *)

  val committable : state_info -> bool
  (** [s] implies all inputs 1 and no abort state in [C(s)]. *)

  type report = {
    configs_visited : int;
    terminal_configs : int;
    truncated : bool;
    ic_violation : string option;
    tc_violation : string option;
    wt_violation : string option;
    st_violation : string option;
    ht_violation : string option;
    rule_violation : string option;
    validity_violation : string option;
    protocol_errors : string list;
    states : state_info list;
  }

  val unsafe_states : report -> state_info list
  (** States violating Theorem 2's safe-state conditions.  Nonempty
      for any protocol that is not WT-TC (Theorem 2); empty for the
      WT-TC protocols in this repository. *)

  val corollary6_holds : report -> bool
  (** Whenever a processor has decided, every operational processor
      shares its bias — equivalent to all states being safe. *)

  val explore :
    ?metrics:Patterns_search.Metrics.t ref ->
    ?options:options ->
    rule:Patterns_protocols.Decision_rule.t ->
    n:int ->
    unit ->
    report
  (** One search per input vector through
      {!Patterns_search.Search.sweep}, up to [options.jobs] vectors at
      once and merged in vector order, under the driver selected by
      [options.par_mode].  The optional sink
      accumulates the kernel's counters
      ({!Patterns_search.Search.merge_into}).
      @raise Invalid_argument if [n > 31]. *)

  val pp_report : Format.formatter -> report -> unit
end
