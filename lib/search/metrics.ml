type outcome_kind = Exhausted | Goal_found | Truncated

let outcome_string = function
  | Exhausted -> "exhausted"
  | Goal_found -> "goal_found"
  | Truncated -> "truncated"

(* Goal_found dominates (the search answered affirmatively before any
   budget question arose for the answer); otherwise a truncated shard
   taints the whole sweep. *)
let merge_outcome a b =
  match (a, b) with
  | Goal_found, _ | _, Goal_found -> Goal_found
  | Truncated, _ | _, Truncated -> Truncated
  | Exhausted, Exhausted -> Exhausted

type shard = {
  root : int;
  states_expanded : int;
  dedup_hits : int;
  frontier_peak : int;
  pruned : int;
  fingerprint_probes : int;
  collision_fallbacks : int;
  intern_bindings : int;
  seconds : float;
}

type t = {
  outcome : outcome_kind;
  states_expanded : int;
  dedup_hits : int;
  frontier_peak : int;  (* max over shards, not a concurrent peak *)
  pruned : int;
  fingerprint_probes : int;
  collision_fallbacks : int;
  intern_bindings : int;
  budget_consumed : int;
  roots : int;
  truncated_roots : int;
  layers : int;
  shard_bits : int;
  shard_occupancy_max : int;
  shard_occupancy_total : int;
  frontier_peak_sum : int;
  deadline_hits : int;
  live_limit_hits : int;
  lock_contention : int;
  expand_seconds : float;
  steals : int;
  steal_failures : int;
  cas_retries : int;
  table_occupancy : float;
  idle_seconds : float;
  db_edges : int;
  db_index_scans : int;
  db_cache_hits : int;
  db_cache_misses : int;
  spill_runs : int;
  spill_evictions : int;
  spill_probes : int;
  spill_read_bytes : int;
  spill_write_bytes : int;
  spill_fd_reopens : int;
  prefix_hits : int;
  prefix_states_saved : int;
  delta_reused_edges : int;
  drops_injected : int;
  omission_plans : int;
  mobile_faults : int;
  shards : shard list;
}

let zero =
  {
    outcome = Exhausted;
    states_expanded = 0;
    dedup_hits = 0;
    frontier_peak = 0;
    pruned = 0;
    fingerprint_probes = 0;
    collision_fallbacks = 0;
    intern_bindings = 0;
    budget_consumed = 0;
    roots = 0;
    truncated_roots = 0;
    layers = 0;
    shard_bits = 0;
    shard_occupancy_max = 0;
    shard_occupancy_total = 0;
    frontier_peak_sum = 0;
    deadline_hits = 0;
    live_limit_hits = 0;
    lock_contention = 0;
    expand_seconds = 0.;
    steals = 0;
    steal_failures = 0;
    cas_retries = 0;
    table_occupancy = 0.;
    idle_seconds = 0.;
    db_edges = 0;
    db_index_scans = 0;
    db_cache_hits = 0;
    db_cache_misses = 0;
    spill_runs = 0;
    spill_evictions = 0;
    spill_probes = 0;
    spill_read_bytes = 0;
    spill_write_bytes = 0;
    spill_fd_reopens = 0;
    prefix_hits = 0;
    prefix_states_saved = 0;
    delta_reused_edges = 0;
    drops_injected = 0;
    omission_plans = 0;
    mobile_faults = 0;
    shards = [];
  }

let of_shard outcome (s : shard) =
  {
    zero with
    outcome;
    states_expanded = s.states_expanded;
    dedup_hits = s.dedup_hits;
    frontier_peak = s.frontier_peak;
    pruned = s.pruned;
    fingerprint_probes = s.fingerprint_probes;
    collision_fallbacks = s.collision_fallbacks;
    intern_bindings = s.intern_bindings;
    budget_consumed = s.states_expanded;
    roots = 1;
    truncated_roots = (if outcome = Truncated then 1 else 0);
    frontier_peak_sum = s.frontier_peak;
    shards = [ s ];
  }

(* Retag a metrics record with an execution-database snapshot.  All
   four counters are deterministic for a given recorded edge set and
   query sequence: the edge count is a set cardinality and the
   scan/cache counters are functions of the queries issued, not of
   worker interleaving. *)
let with_db ~edges ~index_scans ~cache_hits ~cache_misses m =
  {
    m with
    db_edges = edges;
    db_index_scans = index_scans;
    db_cache_hits = cache_hits;
    db_cache_misses = cache_misses;
  }

(* Retag a metrics record with the incremental-derivation counters.
   All three are deterministic: prefix hits/saved-steps are functions
   of the evaluated plan-index set (each plan either shares a
   failure-free prefix or does not, independent of which worker
   materialized the memo), and the reused-edge count is a function of
   the base facts, not of scheduling. *)
let with_incremental ?(prefix_hits = 0) ?(prefix_states_saved = 0)
    ?(delta_reused_edges = 0) m =
  {
    m with
    prefix_hits = m.prefix_hits + prefix_hits;
    prefix_states_saved = m.prefix_states_saved + prefix_states_saved;
    delta_reused_edges = m.delta_reused_edges + delta_reused_edges;
  }

(* Retag a metrics record with the fault-injection counters.  All
   three are deterministic and jobs-invariant on full sweeps:
   drops are trace events of decoded plans, and the plan counters are
   functions of the evaluated plan-index set — with the same
   goal-found overshoot caveat as [prefix_hits]. *)
let with_faults ?(drops_injected = 0) ?(omission_plans = 0) ?(mobile_faults = 0) m =
  {
    m with
    drops_injected = m.drops_injected + drops_injected;
    omission_plans = m.omission_plans + omission_plans;
    mobile_faults = m.mobile_faults + mobile_faults;
  }

let with_root_index i m =
  { m with shards = List.map (fun s -> { s with root = i }) m.shards }

(* The kernel cannot see the client's intern tables, so single-shard
   metrics are retagged after the run; sums stay in root order. *)
let with_intern_bindings n m =
  {
    m with
    intern_bindings = n;
    shards = List.map (fun (s : shard) -> { s with intern_bindings = n }) m.shards;
  }

let merge a b =
  {
    outcome = merge_outcome a.outcome b.outcome;
    states_expanded = a.states_expanded + b.states_expanded;
    dedup_hits = a.dedup_hits + b.dedup_hits;
    frontier_peak = max a.frontier_peak b.frontier_peak;
    pruned = a.pruned + b.pruned;
    fingerprint_probes = a.fingerprint_probes + b.fingerprint_probes;
    collision_fallbacks = a.collision_fallbacks + b.collision_fallbacks;
    intern_bindings = a.intern_bindings + b.intern_bindings;
    budget_consumed = a.budget_consumed + b.budget_consumed;
    roots = a.roots + b.roots;
    truncated_roots = a.truncated_roots + b.truncated_roots;
    layers = a.layers + b.layers;
    shard_bits = max a.shard_bits b.shard_bits;
    shard_occupancy_max = max a.shard_occupancy_max b.shard_occupancy_max;
    shard_occupancy_total = a.shard_occupancy_total + b.shard_occupancy_total;
    frontier_peak_sum = a.frontier_peak_sum + b.frontier_peak_sum;
    deadline_hits = a.deadline_hits + b.deadline_hits;
    live_limit_hits = a.live_limit_hits + b.live_limit_hits;
    lock_contention = a.lock_contention + b.lock_contention;
    expand_seconds = a.expand_seconds +. b.expand_seconds;
    steals = a.steals + b.steals;
    steal_failures = a.steal_failures + b.steal_failures;
    cas_retries = a.cas_retries + b.cas_retries;
    table_occupancy = Float.max a.table_occupancy b.table_occupancy;
    idle_seconds = a.idle_seconds +. b.idle_seconds;
    db_edges = a.db_edges + b.db_edges;
    db_index_scans = a.db_index_scans + b.db_index_scans;
    db_cache_hits = a.db_cache_hits + b.db_cache_hits;
    db_cache_misses = a.db_cache_misses + b.db_cache_misses;
    spill_runs = a.spill_runs + b.spill_runs;
    spill_evictions = a.spill_evictions + b.spill_evictions;
    spill_probes = a.spill_probes + b.spill_probes;
    spill_read_bytes = a.spill_read_bytes + b.spill_read_bytes;
    spill_write_bytes = a.spill_write_bytes + b.spill_write_bytes;
    spill_fd_reopens = a.spill_fd_reopens + b.spill_fd_reopens;
    prefix_hits = a.prefix_hits + b.prefix_hits;
    prefix_states_saved = a.prefix_states_saved + b.prefix_states_saved;
    delta_reused_edges = a.delta_reused_edges + b.delta_reused_edges;
    drops_injected = a.drops_injected + b.drops_injected;
    omission_plans = a.omission_plans + b.omission_plans;
    mobile_faults = a.mobile_faults + b.mobile_faults;
    shards = a.shards @ b.shards;
  }

(* Hand-rolled rendering: no JSON dependency.
   Key order is part of the schema and pinned by the cram test.
   Schema /2 appended the fingerprint-store counters after "pruned";
   schema /3 appended the layer-synchronous driver fields after
   "truncated_roots"; schema /4 appends the graceful-degradation
   counters "deadline_hits" and "live_limit_hits" after
   "frontier_peak_sum"; schema /5 appends the asynchronous driver's
   volatile section — "steals", "steal_failures", "cas_retries",
   "table_occupancy", "idle_seconds" — after "parallel_efficiency";
   schema /6 appends the execution-database counters "db_edges",
   "db_index_scans", "db_cache_hits", "db_cache_misses" (deterministic,
   all 0 unless a --db was attached) after "idle_seconds";
   schema /7 appends the spill-store counters "spill_runs",
   "spill_evictions", "spill_probes", "spill_read_bytes",
   "spill_write_bytes" (all 0 unless a --spill-dir was given;
   deterministic except when the asynchronous driver spreads one root
   over several workers, like "intern_bindings") after "db_cache_misses";
   schema /8 appends "spill_fd_reopens" (descriptor-cache misses for
   runs already opened once; same gating as the other spill counters)
   after "spill_write_bytes", then the incremental-derivation counters
   "prefix_hits", "prefix_states_saved", "delta_seeds",
   "delta_reused_edges" (deterministic; all 0 unless a memoized
   systematic hunt ran or a root was answered from the memo);
   schema /9 appends the fault-injection counters "drops_injected",
   "omission_plans", "mobile_faults" (deterministic and jobs-invariant
   on full sweeps, overshooting with [jobs] on goal-found hunts like
   "prefix_hits"; all 0 unless a hunt widened the adversary past
   fail-stop) after "delta_reused_edges";
   schema /10 removes "par_layers" and "delta_seeds", which had become
   constant 0 on every path;
   every other field is unchanged in name, meaning and order.
   "lock_contention", "expand_seconds", "parallel_efficiency" and the
   whole /5 section are the nondeterministic top-level fields
   (normalized away by the cram test); "deadline_hits" is
   deterministically 0 when no deadline was set, and
   wall-clock-dependent when one was. *)
let schema = "patterns-search-metrics/10"

let wall_seconds m = List.fold_left (fun acc (s : shard) -> acc +. s.seconds) 0. m.shards

(* expand-time over wall-time: the fraction of the run spent inside
   successor expansion, summed across workers — values above 1 mean
   expansion actually overlapped across domains. *)
let parallel_efficiency m =
  let wall = wall_seconds m in
  if wall > 0. then m.expand_seconds /. wall else 0.

let to_json ?(shards = true) m =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": \"%s\",\n" schema);
  Buffer.add_string b (Printf.sprintf "  \"outcome\": \"%s\",\n" (outcome_string m.outcome));
  Buffer.add_string b (Printf.sprintf "  \"states_expanded\": %d,\n" m.states_expanded);
  Buffer.add_string b (Printf.sprintf "  \"dedup_hits\": %d,\n" m.dedup_hits);
  Buffer.add_string b (Printf.sprintf "  \"frontier_peak\": %d,\n" m.frontier_peak);
  Buffer.add_string b (Printf.sprintf "  \"pruned\": %d,\n" m.pruned);
  Buffer.add_string b
    (Printf.sprintf "  \"fingerprint_probes\": %d,\n" m.fingerprint_probes);
  Buffer.add_string b
    (Printf.sprintf "  \"collision_fallbacks\": %d,\n" m.collision_fallbacks);
  Buffer.add_string b (Printf.sprintf "  \"intern_bindings\": %d,\n" m.intern_bindings);
  Buffer.add_string b (Printf.sprintf "  \"budget_consumed\": %d,\n" m.budget_consumed);
  Buffer.add_string b (Printf.sprintf "  \"roots\": %d,\n" m.roots);
  Buffer.add_string b (Printf.sprintf "  \"truncated_roots\": %d,\n" m.truncated_roots);
  Buffer.add_string b (Printf.sprintf "  \"layers\": %d,\n" m.layers);
  Buffer.add_string b (Printf.sprintf "  \"shard_bits\": %d,\n" m.shard_bits);
  Buffer.add_string b
    (Printf.sprintf "  \"shard_occupancy_max\": %d,\n" m.shard_occupancy_max);
  Buffer.add_string b
    (Printf.sprintf "  \"shard_occupancy_total\": %d,\n" m.shard_occupancy_total);
  Buffer.add_string b (Printf.sprintf "  \"frontier_peak_sum\": %d,\n" m.frontier_peak_sum);
  Buffer.add_string b (Printf.sprintf "  \"deadline_hits\": %d,\n" m.deadline_hits);
  Buffer.add_string b (Printf.sprintf "  \"live_limit_hits\": %d,\n" m.live_limit_hits);
  Buffer.add_string b (Printf.sprintf "  \"lock_contention\": %d,\n" m.lock_contention);
  Buffer.add_string b (Printf.sprintf "  \"expand_seconds\": %.6f,\n" m.expand_seconds);
  Buffer.add_string b
    (Printf.sprintf "  \"parallel_efficiency\": %.3f,\n" (parallel_efficiency m));
  Buffer.add_string b (Printf.sprintf "  \"steals\": %d,\n" m.steals);
  Buffer.add_string b (Printf.sprintf "  \"steal_failures\": %d,\n" m.steal_failures);
  Buffer.add_string b (Printf.sprintf "  \"cas_retries\": %d,\n" m.cas_retries);
  Buffer.add_string b (Printf.sprintf "  \"table_occupancy\": %.3f,\n" m.table_occupancy);
  Buffer.add_string b (Printf.sprintf "  \"idle_seconds\": %.6f,\n" m.idle_seconds);
  Buffer.add_string b (Printf.sprintf "  \"db_edges\": %d,\n" m.db_edges);
  Buffer.add_string b (Printf.sprintf "  \"db_index_scans\": %d,\n" m.db_index_scans);
  Buffer.add_string b (Printf.sprintf "  \"db_cache_hits\": %d,\n" m.db_cache_hits);
  Buffer.add_string b (Printf.sprintf "  \"db_cache_misses\": %d,\n" m.db_cache_misses);
  Buffer.add_string b (Printf.sprintf "  \"spill_runs\": %d,\n" m.spill_runs);
  Buffer.add_string b (Printf.sprintf "  \"spill_evictions\": %d,\n" m.spill_evictions);
  Buffer.add_string b (Printf.sprintf "  \"spill_probes\": %d,\n" m.spill_probes);
  Buffer.add_string b (Printf.sprintf "  \"spill_read_bytes\": %d,\n" m.spill_read_bytes);
  Buffer.add_string b (Printf.sprintf "  \"spill_write_bytes\": %d,\n" m.spill_write_bytes);
  Buffer.add_string b (Printf.sprintf "  \"spill_fd_reopens\": %d,\n" m.spill_fd_reopens);
  Buffer.add_string b (Printf.sprintf "  \"prefix_hits\": %d,\n" m.prefix_hits);
  Buffer.add_string b
    (Printf.sprintf "  \"prefix_states_saved\": %d,\n" m.prefix_states_saved);
  Buffer.add_string b (Printf.sprintf "  \"delta_reused_edges\": %d,\n" m.delta_reused_edges);
  Buffer.add_string b (Printf.sprintf "  \"drops_injected\": %d,\n" m.drops_injected);
  Buffer.add_string b (Printf.sprintf "  \"omission_plans\": %d,\n" m.omission_plans);
  Buffer.add_string b (Printf.sprintf "  \"mobile_faults\": %d" m.mobile_faults);
  if shards then begin
    Buffer.add_string b ",\n  \"shards\": [\n";
    List.iteri
      (fun i s ->
        Buffer.add_string b
          (Printf.sprintf
             "    { \"root\": %d, \"states_expanded\": %d, \"dedup_hits\": %d, \
              \"frontier_peak\": %d, \"pruned\": %d, \"fingerprint_probes\": %d, \
              \"collision_fallbacks\": %d, \"intern_bindings\": %d, \"seconds\": %.6f }%s\n"
             s.root s.states_expanded s.dedup_hits s.frontier_peak s.pruned
             s.fingerprint_probes s.collision_fallbacks s.intern_bindings s.seconds
             (if i = List.length m.shards - 1 then "" else ",")))
      m.shards;
    Buffer.add_string b "  ]\n"
  end
  else Buffer.add_string b "\n";
  Buffer.add_string b "}\n";
  Buffer.contents b

let pp ppf m =
  Format.fprintf ppf "expanded=%d dedup=%d peak=%d outcome=%s" m.states_expanded m.dedup_hits
    m.frontier_peak (outcome_string m.outcome)
