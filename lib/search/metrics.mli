(** First-class observability for the search kernel.

    Every search — scheme enumeration, exhaustive checking,
    realization, randomized hunting, trace scanning — returns one of
    these records alongside its answer, so the cost of an answer is a
    machine-comparable quantity, not a wall-clock anecdote.  Both
    kernel drivers follow one successor rule and build their records
    in one shared step of {!Search.Make} (driver tallies, store
    counters, guard hits), so a field both define means the same
    under either; {!Search.sweep} merges the per-root records.  Sums
    and maxima are taken in root order.  Each field's documentation
    states its determinism class: most counters are deterministic for
    a fixed driver and input.  Every search runs on one domain, and a
    {!Search.sweep} of several roots searches each root on one worker,
    so the whole record but the timing fields ([seconds],
    [expand_seconds], [parallel_efficiency]) is the same for every
    [--jobs] value. *)

type outcome_kind = Exhausted | Goal_found | Truncated

val outcome_string : outcome_kind -> string
(** ["exhausted"], ["goal_found"] or ["truncated"] — the schema's
    vocabulary. *)

type shard = {
  root : int;  (** index of the shard's root in submission order *)
  states_expanded : int;  (** nodes visited (each consumes one budget unit) *)
  dedup_hits : int;  (** successor claims that found the state already visited *)
  frontier_peak : int;  (** largest frontier during this shard's search *)
  pruned : int;  (** successors discarded by the prune predicate *)
  fingerprint_probes : int;
      (** visited-store claims answered by the 64-bit fingerprint
          index: the root's plus one per successor not pruned, so
          [states_expanded + dedup_hits] on an exhausted search *)
  collision_fallbacks : int;
      (** probes where a bucket held a fingerprint-equal but
          structurally distinct state — true 64-bit collisions *)
  intern_bindings : int;
      (** distinct values interned under this shard's root: protocol
          states, knowledge/trips sets and edge sets on a full root
          (scheme, realize), protocol states only on a behaviour-only
          root (explore), and 0 for searches that do not report their
          intern tables *)
  seconds : float;  (** wall-clock for this shard (nondeterministic) *)
}

type t = {
  outcome : outcome_kind;
      (** [Goal_found] if any shard found a goal, else [Truncated] if
          any shard hit its budget, else [Exhausted]. *)
  states_expanded : int;
  dedup_hits : int;
  frontier_peak : int;  (** max over shards (not a concurrent peak) *)
  pruned : int;
  fingerprint_probes : int;
  collision_fallbacks : int;
  intern_bindings : int;
  budget_consumed : int;  (** total budget units spent = states expanded *)
  roots : int;
  truncated_roots : int;
  layers : int;  (** BFS layers charged by the serial driver *)
  shard_bits : int;
      (** log2 of the visited table's starting capacity (6), or of the
          spill store's shard count (4) with spilling, under either
          driver; maxed on merge *)
  shard_occupancy_max : int;
      (** always 0: no driver groups its insertions any more.  Kept in
          schema /10 until the metrics become one declared table *)
  shard_occupancy_total : int;
      (** total visited bindings *)
  frontier_peak_sum : int;
      (** sum of per-root frontier peaks — the aggregate companion to
          [frontier_peak], which reports the max-of-peaks (summing
          peaks over-reports peak memory: the roots do not all peak at
          once) *)
  deadline_hits : int;
      (** searches stopped by a wall-clock deadline
          ({!Search.Deadline_exceeded}); deterministically 0 when no
          deadline was set, wall-clock-dependent when one was *)
  live_limit_hits : int;
      (** searches stopped by the live-state budget
          ({!Search.Live_limit_exceeded}); deterministic *)
  lock_contention : int;
      (** always 0: no visited store takes a lock, since every search
          runs on one domain *)
  expand_seconds : float;
      (** wall-clock spent expanding, summed over roots
          (nondeterministic) *)
  steals : int;
      (** always 0: no search shares its work between domains (/5
          section) *)
  steal_failures : int;  (** always 0 (/5 section) *)
  cas_retries : int;
      (** always 0: the visited table claims no slot by
          compare-and-set (/5 section) *)
  table_occupancy : float;
      (** final load factor of the in-memory visited table, 0 with
          spilling; maxed on merge; deterministic (/5 section) *)
  idle_seconds : float;
      (** always 0: no worker waits for work within a search (/5
          section).  [lock_contention] and the /5 section stay until
          the metrics schema is next changed, because the benchmark of
          record reads [steals], [cas_retries] and [idle_seconds] *)
  db_edges : int;
      (** distinct (src, event, dst) triples in the attached execution
          database after the run — deterministic for a given recorded
          edge set; 0 when no [--db] is attached (/6 section) *)
  db_index_scans : int;
      (** edge scans (one adjacency or a filtered pass) performed by
          database queries (cache hits perform none); deterministic
          (/6 section) *)
  db_cache_hits : int;
      (** query-result cache hits (/6 section) *)
  db_cache_misses : int;
      (** query-result cache misses (/6 section) *)
  spill_runs : int;
      (** sorted runs written by the disk-backed visited store — 0
          unless [--spill-dir] is given; deterministic (/7 section) *)
  spill_evictions : int;
      (** in-memory shards flushed to disk (several per run) (/7
          section) *)
  spill_probes : int;
      (** visited probes that consulted the on-disk runs (/7 section) *)
  spill_read_bytes : int;
      (** bytes read from run files by probes (/7 section) *)
  spill_write_bytes : int;
      (** bytes written to run files by evictions (/7 section) *)
  spill_fd_reopens : int;
      (** run files re-opened after eviction from their store's
          64-entry descriptor cache — 0 when every run's descriptor
          stayed cached; same gating as the other spill counters, and
          deterministic like them (/8 section) *)
  prefix_hits : int;
      (** systematic hunt runs that resumed from a memoized
          failure-free prefix instead of replaying from the initial
          configuration — a function of the evaluated plan-index set
          (/8 section) *)
  prefix_states_saved : int;
      (** engine steps skipped by prefix resumption, summed over
          prefix hits (/8 section) *)
  delta_reused_edges : int;
      (** successor derivations of the roots answered from the
          per-root memo ({!Search.memo}) instead of being re-derived
          (/8 section) *)
  drops_injected : int;
      (** messages silently discarded by injected omission faults
          (receive drops and send omissions), summed over evaluated
          runs — 0 for a fail-stop adversary (/9 section) *)
  omission_plans : int;
      (** evaluated fault plans carrying at least one omission fault
          (/9 section) *)
  mobile_faults : int;
      (** omission faults belonging to mobile plans — plans whose
          omission faults name at least two distinct victims; 0 unless
          the mobile space was swept (/9 section) *)
  shards : shard list;  (** in root order *)
}

val zero : t
(** The identity of {!merge}; also the [Exhausted] metrics of a search
    with no roots. *)

val of_shard : outcome_kind -> shard -> t

val with_root_index : int -> t -> t
(** Retag the shard entries with their position in a sharded sweep. *)

val with_intern_bindings : int -> t -> t
(** Set [intern_bindings] on the aggregate and on every shard entry.
    The kernel cannot see the client's intern tables, so per-root
    metrics are retagged with the root's table size after the run. *)

val with_db :
  edges:int -> index_scans:int -> cache_hits:int -> cache_misses:int -> t -> t
(** Retag a record with an execution-database snapshot (the /6
    section).  All four counters are deterministic for a given
    recorded edge set and query sequence. *)

val with_incremental :
  ?prefix_hits:int -> ?prefix_states_saved:int -> ?delta_reused_edges:int -> t -> t
(** Add to the incremental-derivation counters (the /8 section;
    omitted arguments default to 0, so existing values are kept).
    All three are deterministic: prefix hits and saved steps depend
    only on which plan indices were evaluated, and the reused-edge
    count only on the base facts. *)

val with_faults :
  ?drops_injected:int -> ?omission_plans:int -> ?mobile_faults:int -> t -> t
(** Add to the fault-injection counters (the /9 section; omitted
    arguments default to 0).  Deterministic and jobs-invariant on full
    sweeps — functions of the evaluated plan-index set — with the same
    goal-found overshoot caveat as [prefix_hits]. *)

val parallel_efficiency : t -> float
(** [expand_seconds] over summed shard wall-clock: the fraction of the
    roots' searches spent inside successor expansion, at most about 1
    since each root is searched on one domain.  Nondeterministic. *)

val merge : t -> t -> t
(** Counters are summed, [frontier_peak] maxed, outcomes joined
    ([Goal_found] > [Truncated] > [Exhausted]), shard lists
    concatenated.  Associative; merged left-to-right in root order by
    the sharding driver. *)

val schema : string
(** ["patterns-search-metrics/10"], the document version {!to_json}
    writes. *)

val to_json : ?shards:bool -> t -> string
(** Schema {!schema}.  /4 appended the graceful-degradation counters
    ["deadline_hits"] and ["live_limit_hits"] after
    ["frontier_peak_sum"]; /5 appended the asynchronous driver's
    volatile section — ["steals"], ["steal_failures"],
    ["cas_retries"], ["table_occupancy"], ["idle_seconds"] — after
    ["parallel_efficiency"]; /6 appended the deterministic
    execution-database counters — ["db_edges"], ["db_index_scans"],
    ["db_cache_hits"], ["db_cache_misses"] — after ["idle_seconds"]
    (all 0 unless a [--db] is attached); /7 appended the spill-store
    counters — ["spill_runs"], ["spill_evictions"], ["spill_probes"],
    ["spill_read_bytes"], ["spill_write_bytes"] — after
    ["db_cache_misses"] (all 0 unless a [--spill-dir] is given); /8
    appended ["spill_fd_reopens"] after ["spill_write_bytes"] and the
    deterministic incremental-derivation counters — ["prefix_hits"],
    ["prefix_states_saved"], ["delta_reused_edges"]; /9 appended the
    fault-injection counters — ["drops_injected"], ["omission_plans"],
    ["mobile_faults"] — after ["delta_reused_edges"] (all 0 unless a
    hunt widened the adversary past fail-stop); /10 removed
    ["par_layers"] (after ["layers"]) and ["delta_seeds"] (after
    ["prefix_states_saved"]), both constant 0 once the kernel kept only
    the serial and async drivers.  Every other key is unchanged in
    name, meaning and order since it was added.  Key order is stable
    and pinned by the cram test; [?shards:false] omits the per-shard
    array (whose [seconds] are nondeterministic). *)

val pp : Format.formatter -> t -> unit
(** One-line summary: [expanded=… dedup=… peak=… outcome=…]. *)
