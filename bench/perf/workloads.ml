(* The five workloads of the benchmark of record.

   Each workload is one public entry point on one fixed input — what a
   CLI user waits on — run as a closed loop of operations.  A workload
   has a set-up (protocol lookup, functor application, a scratch
   directory), an operation whose answer is checked against
   {!Expected} every time, and a traced procedure that derives the
   per-layer metrics.  Why each workload exists is in the comment above
   it. *)

open Patterns_sim
module Metrics = Patterns_search.Metrics
module Search = Patterns_search.Search
module Registry = Patterns_protocols.Registry
module Rule = Patterns_protocols.Decision_rule
module Classify = Patterns_core.Classify
module Audit = Patterns_core.Audit
module Check = Patterns_core.Check
module Taxonomy = Patterns_core.Taxonomy
module Pattern = Patterns_pattern.Pattern
module Db = Patterns_db.Db
module Hunt = Patterns_adversary.Hunt
module Replay = Patterns_adversary.Replay
module Shrink = Patterns_adversary.Shrink
module Cert = Patterns_adversary.Cert
module Plan = Patterns_adversary.Plan
module Prng = Patterns_stdx.Prng

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

type ctx = {
  seed : int;
  scratch : string;  (** private directory for the files a workload writes *)
  expected : Expected.t;
}

(* The answer checks of one operation.  A check never raises: a
   mismatch is recorded and the operation counts as failed. *)
type checker = { ctx : ctx; workload : string; mutable failures : string list }

let fail ck msg = ck.failures <- msg :: ck.failures

let expect ck key actual =
  let key = ck.workload ^ "." ^ key in
  let want = Expected.get ck.ctx.expected key in
  if want <> actual then
    fail ck
      (Printf.sprintf "%s: expected %s, got %s" key (Expected.to_string want)
         (Expected.to_string actual))

(* ----- GC counters read around the public calls ----- *)

type gc = {
  mutable ops : int;
  mutable minor : float;
  mutable major : float;
  mutable collections : int;
}

let gc_acc () = { ops = 0; minor = 0.; major = 0.; collections = 0 }

let with_gc g f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  g.ops <- g.ops + 1;
  g.minor <- g.minor +. s1.Gc.minor_words -. s0.Gc.minor_words;
  g.major <- g.major +. s1.Gc.major_words -. s0.Gc.major_words;
  g.collections <- g.collections + s1.Gc.major_collections - s0.Gc.major_collections;
  r

let gc_layer g =
  let per x = if g.ops = 0 then 0. else x /. float_of_int g.ops in
  [
    ("gc.minor_words_per_op", per g.minor);
    ("gc.major_words_per_op", per g.major);
    ("gc.major_collections_per_op", per (float_of_int g.collections));
    ( "gc.top_heap_mb",
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
    );
  ]

(* ----- traced runs ----- *)

(* operations attempted and failed, with the failed checks' messages *)
type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally () = { attempted = 0; failed = 0; errors = [] }

let count_op t ck =
  t.attempted <- t.attempted + 1;
  if ck.failures <> [] then begin
    t.failed <- t.failed + 1;
    t.errors <- List.rev_append ck.failures t.errors
  end

type traced = {
  tally : tally;
  layer : (string * float) list;  (** per-layer metric name and value *)
}

type instance = {
  op : checker -> int -> unit;  (** the [i]-th timed operation, checked *)
  trace : seconds:float -> smoke:bool -> traced;
  teardown : unit -> unit;
}

type t = {
  name : string;
  domains : int;  (** domains an operation runs on; the reference kernel runs on as many *)
  setup : ctx -> instance;
}

(* Run [f i] for i = 0, 1, ... until [seconds] have passed — at least
   once, exactly once in smoke mode — one call at a time. *)
let iterate ~seconds ~smoke f =
  let t0 = now () in
  let rec go i =
    f i;
    if (not smoke) && now () -. t0 < seconds then go (i + 1)
  in
  go 0

let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

let per_call id = ratio (Span.calibrated_total id) (float_of_int Span.count.(id))
let words_per_call id = ratio Span.words.(id) (float_of_int Span.count.(id))

let span_overhead_s () =
  let o = ref 0. in
  for id = 0 to !Span.n_names - 1 do
    o := !o +. Span.overhead_ns id
  done;
  !o /. 1e9

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> failwith ("the registry has no protocol " ^ name)

let flags (v : Classify.verdict) =
  Printf.sprintf
    "ic=%b tc=%b wt=%b st=%b ht=%b rule=%b validity=%b safe=%b cor6=%b truncated=%b"
    v.Classify.ic v.Classify.tc v.Classify.wt v.Classify.st v.Classify.ht v.Classify.rule_ok
    v.Classify.validity_ok v.Classify.all_states_safe v.Classify.corollary6
    v.Classify.truncated

let best v =
  match Classify.best_problem v with None -> "none" | Some p -> Taxonomy.short_name p

let expect_counts ck (m : Metrics.t) =
  expect ck "states_expanded" (Expected.Int m.Metrics.states_expanded);
  expect ck "dedup_hits" (Expected.Int m.Metrics.dedup_hits);
  expect ck "roots" (Expected.Int m.Metrics.roots)

(* The shadow must do exactly the real call's work, or the split
   between kernel and observation is meaningless. *)
let expect_shadow ck (m : Metrics.t) (r : Shadow.result) =
  if r.Shadow.states <> m.Metrics.states_expanded || r.Shadow.dedup <> m.Metrics.dedup_hits
  then
    fail ck
      (Printf.sprintf
         "%s: shadow search unresolved: %d states / %d dedup hits against the real call's %d / %d"
         ck.workload r.Shadow.states r.Shadow.dedup m.Metrics.states_expanded
         m.Metrics.dedup_hits)

(* The op span of a traced shadow: what its children leave uncovered is
   the search kernel's own time. *)
let s_shadow = Span.make ~record:true "search.shadow"

type sweep_trace = {
  st_tally : tally;
  st_gc : gc;
  st_real : Metrics.t;  (** the last real call's metrics *)
  st_terminal : int;  (** the shadow's terminal count *)
  real_p50 : float;
  shadow_p50 : float;
  traced_p50 : float;
  coverage : float;
      (** traced shadow time, recorder overhead removed, over untraced
          shadow time: how much of the operation the calibrated layer
          self-times account for *)
}

(* Shared shape of the two sweep traces: per iteration one checked real
   call, one untraced shadow and one traced shadow. *)
let trace_sweep ~seconds ~smoke ~checker ~real ~shadow =
  let g = gc_acc () in
  let real_t = ref [] and su_t = ref [] and st_t = ref [] in
  let tl = tally () and last = ref Metrics.zero and terminal = ref 0 in
  iterate ~seconds ~smoke (fun _ ->
      let ck = checker () in
      let m, t = timed (fun () -> with_gc g (fun () -> real ck)) in
      real_t := t :: !real_t;
      last := m;
      let r, t = timed shadow in
      su_t := t :: !su_t;
      expect_shadow ck m r;
      Span.on := true;
      let r, t = timed (fun () -> Span.span s_shadow shadow) in
      Span.on := false;
      st_t := t :: !st_t;
      expect_shadow ck m r;
      terminal := r.Shadow.terminal;
      count_op tl ck);
  {
    st_tally = tl;
    st_gc = g;
    st_real = !last;
    st_terminal = !terminal;
    real_p50 = Stat.median !real_t;
    shadow_p50 = Stat.median !su_t;
    traced_p50 = Stat.median !st_t;
    coverage = ratio (sum !st_t -. span_overhead_s ()) (sum !su_t);
  }

(* layer metrics every shadow-traced sweep reports *)
let sweep_layer s =
  let states = float_of_int s.st_real.Metrics.states_expanded in
  let dedup = float_of_int s.st_real.Metrics.dedup_hits in
  let traced_ops = float_of_int Span.count.(s_shadow) in
  [
    ("sim.apply_ns", per_call Shadow.s_apply);
    ("sim.apply_minor_words", words_per_call Shadow.s_apply);
    ("sim.applicable_ns", per_call Shadow.s_applicable);
    ("sim.failure_actions_ns", per_call Shadow.s_failure_actions);
    ("sim.fingerprint_ns", per_call Shadow.s_fingerprint);
    ("sim.compare_ns", per_call Shadow.s_compare);
    ("search.states_expanded", states);
    ("search.dedup_hits", dedup);
    ("search.dedup_ratio", ratio dedup (dedup +. states));
    ("search.states_per_s", ratio states s.real_p50);
    ("search.self_ns_per_state", ratio (Span.calibrated_self s_shadow) (traced_ops *. states));
    ("trace.overhead", ratio s.traced_p50 s.shadow_p50 -. 1.);
    ("trace.coverage", s.coverage);
  ]
  @ gc_layer s.st_gc

(* ----- sweep-deep, sweep-deep-j2 ----- *)

let classify_chain ~jobs ck proto =
  let metrics = ref Metrics.zero in
  let v =
    Classify.classify ~metrics ~max_failures:2 ~jobs ~rule:Rule.Unanimity ~n:3 proto
  in
  expect ck "flags" (Expected.Str (flags v));
  expect ck "best" (Expected.Str (best v));
  expect ck "configs" (Expected.Int v.Classify.configs);
  expect_counts ck !metrics;
  !metrics

(* Exhaustive classify, fig3-chain n=3 max_failures=2, jobs=1: the
   per-state path — engine step, incremental fingerprints, visited probe
   and observation fold. *)
let sweep_deep =
  {
    name = "sweep-deep";
    domains = 1;
    setup =
      (fun ctx ->
        let proto = (entry "fig3-chain").Registry.protocol in
        let (module P : Protocol.S) = proto in
        let module Sh = Shadow.Explore (P) in
        let checker () = { ctx; workload = "sweep-deep"; failures = [] } in
        let trace ~seconds ~smoke =
          let s =
            trace_sweep ~seconds ~smoke ~checker
              ~real:(fun ck -> classify_chain ~jobs:1 ck proto)
              ~shadow:(Sh.run ~max_failures:2 ~max_configs:400_000 ~n:3)
          in
          let states = float_of_int s.st_real.Metrics.states_expanded in
          let observe = s.real_p50 -. s.shadow_p50 in
          {
            tally = s.st_tally;
            layer =
              sweep_layer s
              @ [
                  ("core.observe_ns_per_state", ratio (observe *. 1e9) states);
                  ("core.observe_share", ratio observe s.real_p50);
                ];
          }
        in
        {
          op = (fun ck _ -> ignore (classify_chain ~jobs:1 ck proto : Metrics.t));
          trace;
          teardown = ignore;
        });
  }

(* The same classify at jobs=2: the only workload that runs the
   work-stealing driver's deques, CAS table and stealing. *)
let sweep_deep_j2 =
  {
    name = "sweep-deep-j2";
    domains = 2;
    setup =
      (fun ctx ->
        let proto = (entry "fig3-chain").Registry.protocol in
        let trace ~seconds ~smoke =
          let g = gc_acc () in
          let t1 = ref [] and t2 = ref [] and idle = ref [] and steals = ref [] in
          let cas = ref [] and tl = tally () and last = ref Metrics.zero in
          iterate ~seconds ~smoke (fun _ ->
              let ck = { ctx; workload = "sweep-deep-j2"; failures = [] } in
              let _, t = timed (fun () -> classify_chain ~jobs:1 ck proto) in
              t1 := t :: !t1;
              let m, t = timed (fun () -> with_gc g (fun () -> classify_chain ~jobs:2 ck proto)) in
              t2 := t :: !t2;
              last := m;
              idle := m.Metrics.idle_seconds :: !idle;
              steals := float_of_int m.Metrics.steals :: !steals;
              cas := float_of_int m.Metrics.cas_retries :: !cas;
              count_op tl ck);
          let states = float_of_int !last.Metrics.states_expanded in
          let dedup = float_of_int !last.Metrics.dedup_hits in
          {
            tally = tl;
            layer =
              [
                ("search.states_expanded", states);
                ("search.dedup_hits", dedup);
                ("search.dedup_ratio", ratio dedup (dedup +. states));
                ("search.states_per_s", ratio states (Stat.median !t2));
                ("search.idle_s", Stat.median !idle);
                ("search.steals", Stat.median !steals);
                ("search.cas_retries", Stat.median !cas);
                ("search.parallel_speedup", ratio (Stat.median !t1) (Stat.median !t2));
              ]
              @ gc_layer g;
          }
        in
        {
          op = (fun ck _ -> ignore (classify_chain ~jobs:2 ck proto : Metrics.t));
          trace;
          teardown = ignore;
        });
  }

(* ----- scheme-wide ----- *)

(* fig1-tree n=7 scheme, jobs=1: 128 small roots, so per-root set-up
   and terminal pattern extraction weigh more; full-config fingerprint
   and compare. *)
let scheme_wide =
  {
    name = "scheme-wide";
    domains = 1;
    setup =
      (fun ctx ->
        let (module P : Protocol.S) = (entry "fig1-tree").Registry.protocol in
        let module S = Patterns_pattern.Scheme.Make (P) in
        let module Sh = Shadow.Scheme (P) in
        let checker () = { ctx; workload = "scheme-wide"; failures = [] } in
        let real ck =
          let metrics = ref Metrics.zero in
          let pats, st = S.scheme ~metrics ~jobs:1 ~n:7 () in
          expect ck "patterns" (Expected.Int (Pattern.Set.cardinal pats));
          expect ck "configs" (Expected.Int st.Patterns_pattern.Scheme.configs_visited);
          expect ck "terminal" (Expected.Int st.Patterns_pattern.Scheme.terminal_configs);
          expect ck "truncated" (Expected.Bool st.Patterns_pattern.Scheme.truncated);
          expect_counts ck !metrics;
          !metrics
        in
        let trace ~seconds ~smoke =
          let s =
            trace_sweep ~seconds ~smoke ~checker ~real
              ~shadow:(Sh.run ~max_configs:1_000_000 ~n:7)
          in
          let vectors = 128. in
          {
            tally = s.st_tally;
            layer =
              sweep_layer s
              @ [
                  ("pattern.vector_us", s.real_p50 *. 1e6 /. vectors);
                  ("pattern.self_us_per_vector", (s.real_p50 -. s.shadow_p50) *. 1e6 /. vectors);
                  ("pattern.terminal_configs", float_of_int s.st_terminal);
                ];
          }
        in
        { op = (fun ck _ -> ignore (real ck : Metrics.t)); trace; teardown = ignore });
  }

(* ----- hunt-random ----- *)

let s_run = Span.make "sim.run"
let s_check = Span.make "core.check"
let hunt_runs = 500

(* the operation's hunt seed: distinct per run seed and per operation *)
let hunt_seed ctx i = (ctx.seed * 1000) + i

(* Random crash hunt, fig1-tree n=7 TC, 500 runs: linear untracked
   Engine.run and trace checkers, no visited store; the one
   seed-dependent workload. *)
let hunt_random =
  {
    name = "hunt-random";
    domains = 1;
    setup =
      (fun ctx ->
        let e = entry "fig1-tree" in
        let (module P : Protocol.S) = e.Registry.protocol in
        let module E = Engine.Make (P) in
        let n = 7 and max_failures = 2 in
        let real ck i =
          let metrics = ref Metrics.zero in
          (match
             Hunt.hunt ~metrics ~max_failures ~max_runs:hunt_runs ~jobs:1 ~mode:Hunt.Random
               ~property:Audit.TC ~rule:Rule.Unanimity ~n ~seed:(hunt_seed ctx i) e
           with
          | Ok cert ->
            expect ck "found" (Expected.Bool true);
            fail ck cert.Cert.message
          | Error tried ->
            expect ck "found" (Expected.Bool false);
            expect ck "tried" (Expected.Int tried));
          expect ck "states_expanded" (Expected.Int !metrics.Metrics.states_expanded)
        in
        (* Hunt's random mode, draw for draw (the crash-only stream of
           Audit.hunt), with the engine run and the checker spanned *)
        let replay seed =
          let violations = ref 0 in
          for run_index = 1 to hunt_runs do
            let prng = Prng.create ~seed:(seed + (run_index * 1_000_003)) in
            let inputs = List.init n (fun _ -> Prng.bool prng) in
            let n_failures = Prng.int prng ~bound:(max_failures + 1) in
            let failures =
              List.init n_failures (fun _ -> (Prng.int prng ~bound:60, Prng.int prng ~bound:n))
            in
            let scheduler =
              match Prng.int prng ~bound:3 with
              | 0 -> E.random_scheduler (Prng.split prng)
              | 1 -> E.notice_first_scheduler (Prng.split prng)
              | _ -> E.lifo_scheduler
            in
            Span.enter s_run;
            let r = E.run ~failures ~scheduler ~n ~inputs () in
            Span.leave ();
            Span.enter s_check;
            let v = Check.total_consistency r.E.trace in
            Span.leave ();
            if Result.is_error v then incr violations
          done;
          !violations
        in
        let trace ~seconds ~smoke =
          let g = gc_acc () in
          let real_t = ref [] and traced_t = ref [] and tl = tally () in
          iterate ~seconds ~smoke (fun i ->
              let ck = { ctx; workload = "hunt-random"; failures = [] } in
              let (), t = timed (fun () -> with_gc g (fun () -> real ck i)) in
              real_t := t :: !real_t;
              Span.on := true;
              let violations, t = timed (fun () -> replay (hunt_seed ctx i)) in
              Span.on := false;
              traced_t := t :: !traced_t;
              if violations > 0 then
                fail ck (Printf.sprintf "hunt-random: traced replay found %d violations" violations);
              count_op tl ck);
          let p50 = Stat.median !real_t in
          let spanned = Span.calibrated_total s_run +. Span.calibrated_total s_check in
          {
            tally = tl;
            layer =
              [
                ("sim.run_us", per_call s_run /. 1e3);
                ("sim.run_minor_words", words_per_call s_run);
                ("core.check_us", per_call s_check /. 1e3);
                ("adversary.runs_per_s", ratio (float_of_int hunt_runs) p50);
                ("search.states_expanded", float_of_int hunt_runs);
                ("trace.overhead", ratio (Stat.median !traced_t) p50 -. 1.);
                ("trace.coverage", ratio (spanned /. 1e9) (sum !real_t));
              ]
              @ gc_layer g;
          }
        in
        { op = real; trace; teardown = ignore });
  }

(* ----- artifact-roundtrip ----- *)

let s_classify = Span.make ~record:true "db.classify_record"
let s_save = Span.make ~record:true "db.save"
let s_load = Span.make ~record:true "db.load"
let s_reuse_base = Span.make ~record:true "db.reuse_base"
let s_reuse_fact = Span.make ~record:true "db.reuse_verdict_fact"
let s_hunt = Span.make ~record:true "adversary.hunt"
let s_replay_live = Span.make ~record:true "adversary.replay_live"
let s_replay_indexed = Span.make ~record:true "adversary.replay_indexed"
let s_shrink = Span.make ~record:true "adversary.shrink"
let s_save_final = Span.make ~record:true "db.save_final"
let s_session = Span.make ~record:true "artifact.session"
let s_no_db = Span.make ~record:true "db.classify_without_db"
let s_no_spill = Span.make ~record:true "stdx.classify_without_spill"

(* how a session step is run: plainly, or spanned and timed *)
type step = { step : 'a. Span.id -> (unit -> 'a) -> 'a }

let plain = { step = (fun _ f -> f ()) }

type session = {
  classify_m : Metrics.t;
  file_bytes : int;
  tried : int;
  prefix_hits : int;
  index_scans : int;
  cache_hits : int;
  cache_lookups : int;
  shrink_replays : int;
}

let hunts =
  [
    ("hunt1", "fig3-chain-st", Audit.Agreement, Plan.Crash_only, 2);
    ("hunt2", "fig3-chain", Audit.WT, Plan.Omission, 1);
    ("hunt3", "fig3-chain", Audit.WT, Plan.Mobile, 2);
  ]

let chain_classify ?db ?base ?spill ?(metrics = ref Metrics.zero) proto =
  Classify.classify ~metrics ?db ?base ?spill ~max_failures:1 ~rule:Rule.Unanimity ~n:3 proto

let spill_in dir = { Search.dir = Filename.concat dir "spill"; mem_budget = 2000 }

(* One CLI session's worth of artifact traffic in [dir]: record a sweep
   into an empty database that is also its base (spilling to disk),
   save and reload it, answer the sweep twice from the loaded facts,
   then hunt three witnesses and replay (live, then from the index) and
   shrink each against the loaded database. *)
let session ck ~dir ~proto ~(step : step) =
  mkdir_p dir;
  let file = Filename.concat dir "db.jsonl" in
  let db = Db.create () in
  let metrics = ref Metrics.zero in
  let v =
    step.step s_classify (fun () ->
        chain_classify ~db ~base:db ~spill:(spill_in dir) ~metrics proto)
  in
  let m = !metrics in
  expect ck "flags" (Expected.Str (flags v));
  expect ck "configs" (Expected.Int v.Classify.configs);
  expect ck "dedup_hits" (Expected.Int m.Metrics.dedup_hits);
  expect ck "db_edges" (Expected.Int m.Metrics.db_edges);
  expect ck "spill_runs" (Expected.Int m.Metrics.spill_runs);
  step.step s_save (fun () -> Db.save db file);
  let file_bytes = (Unix.stat file).Unix.st_size in
  let loaded =
    match step.step s_load (fun () -> Db.load file) with
    | Ok db -> db
    | Error e ->
      fail ck ("artifact-roundtrip: load: " ^ e);
      Db.create ()
  in
  let reuse = ref Metrics.zero in
  let v = step.step s_reuse_base (fun () -> chain_classify ~base:loaded ~metrics:reuse proto) in
  expect ck "flags" (Expected.Str (flags v));
  expect ck "base_reuse_expanded" (Expected.Int !reuse.Metrics.states_expanded);
  expect ck "base_reused_edges" (Expected.Int !reuse.Metrics.delta_reused_edges);
  let fact = ref Metrics.zero in
  let v = step.step s_reuse_fact (fun () -> chain_classify ~db:loaded ~metrics:fact proto) in
  expect ck "flags" (Expected.Str (flags v));
  expect ck "verdict_fact_expanded" (Expected.Int !fact.Metrics.states_expanded);
  let s =
    ref
      {
        classify_m = m;
        file_bytes;
        tried = 0;
        prefix_hits = 0;
        index_scans = 0;
        cache_hits = 0;
        cache_lookups = 0;
        shrink_replays = 0;
      }
  in
  let count_db (rm : Metrics.t) =
    s :=
      {
        !s with
        cache_hits = !s.cache_hits + rm.Metrics.db_cache_hits;
        cache_lookups = !s.cache_lookups + rm.Metrics.db_cache_hits + rm.Metrics.db_cache_misses;
      }
  in
  List.iteri
    (fun i (key, name, property, space, budget) ->
      let hm = ref Metrics.zero in
      match
        step.step s_hunt (fun () ->
            Hunt.hunt ~metrics:hm ~max_failures:budget ~max_runs:5000 ~jobs:1
              ~mode:Hunt.Systematic ~space ~property ~rule:Rule.Unanimity ~n:4 ~seed:1984
              (entry name))
      with
      | Error tried -> fail ck (Printf.sprintf "artifact-roundtrip: %s found no witness in %d plans" key tried)
      | Ok cert ->
        let tried = !hm.Metrics.states_expanded in
        expect ck (key ^ ".tried") (Expected.Int tried);
        expect ck (key ^ ".crashes") (Expected.Int (List.length (Cert.crashes cert)));
        expect ck (key ^ ".drops") (Expected.Int (List.length (Cert.drops cert)));
        expect ck (key ^ ".directives") (Expected.Int (List.length cert.Cert.script));
        s := { !s with tried = !s.tried + tried; prefix_hits = !s.prefix_hits + !hm.Metrics.prefix_hits };
        let replay id =
          let verdict, rm = step.step id (fun () -> Replay.replay_metrics ~db:loaded cert) in
          (match verdict with
          | Replay.Reproduced _ -> ()
          | v -> fail ck (Format.asprintf "artifact-roundtrip: %s replay: %a" key Replay.pp v));
          count_db rm;
          rm
        in
        let live = replay s_replay_live in
        expect ck
          (Printf.sprintf "replay%d.live_plays" (i + 1))
          (Expected.Int live.Metrics.states_expanded);
        let indexed = replay s_replay_indexed in
        expect ck "replay.indexed_plays" (Expected.Int indexed.Metrics.states_expanded);
        s := { !s with index_scans = !s.index_scans + indexed.Metrics.db_index_scans };
        match step.step s_shrink (fun () -> Shrink.shrink ~db:loaded cert) with
        | Error e -> fail ck (Printf.sprintf "artifact-roundtrip: %s shrink: %s" key e)
        | Ok r ->
          let k = Printf.sprintf "shrink%d." (i + 1) in
          expect ck (k ^ "directives") (Expected.Int (List.length r.Shrink.cert.Cert.script));
          expect ck (k ^ "n") (Expected.Int r.Shrink.cert.Cert.n);
          expect ck (k ^ "replays") (Expected.Int r.Shrink.replays);
          s := { !s with shrink_replays = !s.shrink_replays + r.Shrink.replays })
    hunts;
  step.step s_save_final (fun () -> Db.save loaded file);
  expect ck "final_db_edges" (Expected.Int (Db.stats loaded).Db.edges);
  rm_rf dir;
  !s

(* One --db/--base-db session: record with spill, save, load, reuse,
   three systematic hunts, live and indexed replays, shrink — writes
   next to reads. *)
let artifact_roundtrip =
  {
    name = "artifact-roundtrip";
    domains = 1;
    setup =
      (fun ctx ->
        let proto = (entry "fig3-chain").Registry.protocol in
        mkdir_p ctx.scratch;
        let checker () = { ctx; workload = "artifact-roundtrip"; failures = [] } in
        let op_dir i = Filename.concat ctx.scratch (Printf.sprintf "op-%d" i) in
        let op ck i = ignore (session ck ~dir:(op_dir i) ~proto ~step:plain : session) in
        let trace ~seconds ~smoke =
          (* per-iteration seconds spent in each spanned step *)
          let times : (Span.id, float list) Hashtbl.t = Hashtbl.create 16 in
          let current : (Span.id, float) Hashtbl.t = Hashtbl.create 16 in
          let step =
            {
              step =
                (fun id f ->
                  let r, t = timed (fun () -> Span.span id f) in
                  Hashtbl.replace current id
                    (t +. Option.value (Hashtbl.find_opt current id) ~default:0.);
                  r);
            }
          in
          let g = gc_acc () in
          let tl = tally () and last = ref None in
          iterate ~seconds ~smoke (fun i ->
              let ck = checker () in
              Hashtbl.reset current;
              Span.on := true;
              last :=
                Some
                  (step.step s_session (fun () ->
                       with_gc g (fun () -> session ck ~dir:(op_dir i) ~proto ~step)));
              (* the differential sweeps: the same classify without the
                 edge recording, and without spilling *)
              let dir = op_dir i in
              mkdir_p dir;
              ignore
                (step.step s_no_db (fun () ->
                     chain_classify ~base:(Db.create ()) ~spill:(spill_in dir) proto)
                  : Classify.verdict);
              ignore
                (step.step s_no_spill (fun () ->
                     let db = Db.create () in
                     chain_classify ~db ~base:db proto)
                  : Classify.verdict);
              rm_rf dir;
              Span.on := false;
              Hashtbl.iter
                (fun id t ->
                  Hashtbl.replace times id
                    (t :: Option.value (Hashtbl.find_opt times id) ~default:[]))
                current;
              count_op tl ck);
          let p50 id = Stat.median (Option.value (Hashtbl.find_opt times id) ~default:[ 0. ]) in
          let s = Option.get !last in
          let m = s.classify_m in
          let spanned =
            List.fold_left
              (fun acc id -> acc +. p50 id)
              0.
              [
                s_classify; s_save; s_load; s_reuse_base; s_reuse_fact; s_hunt; s_replay_live;
                s_replay_indexed; s_shrink; s_save_final;
              ]
          in
          let n_hunts = float_of_int (List.length hunts) in
          {
            tally = tl;
            layer =
              [
                ("search.states_expanded", float_of_int m.Metrics.states_expanded);
                ("search.dedup_hits", float_of_int m.Metrics.dedup_hits);
                ("db.record_s", p50 s_classify -. p50 s_no_db);
                ("db.edges", float_of_int m.Metrics.db_edges);
                ("db.save_s", p50 s_save);
                ("db.load_s", p50 s_load);
                ("db.file_bytes", float_of_int s.file_bytes);
                ("db.reuse_ms", (p50 s_reuse_base +. p50 s_reuse_fact) *. 1e3);
                ("db.index_scans", float_of_int s.index_scans);
                ("db.cache_hit_ratio", ratio (float_of_int s.cache_hits) (float_of_int s.cache_lookups));
                ("stdx.spill_s", p50 s_classify -. p50 s_no_spill);
                ("stdx.spill_write_bytes", float_of_int m.Metrics.spill_write_bytes);
                ("stdx.spill_probes", float_of_int m.Metrics.spill_probes);
                ("adversary.hunt_witness_ms", p50 s_hunt *. 1e3);
                ("adversary.plans_tried", float_of_int s.tried);
                ("adversary.prefix_hit_ratio", ratio (float_of_int s.prefix_hits) (float_of_int s.tried));
                ("adversary.replay_live_us", p50 s_replay_live *. 1e6 /. n_hunts);
                ("adversary.replay_indexed_us", p50 s_replay_indexed *. 1e6 /. n_hunts);
                ("adversary.shrink_ms", p50 s_shrink *. 1e3);
                ("adversary.shrink_replays", float_of_int s.shrink_replays);
                ("trace.coverage", ratio spanned (p50 s_session));
              ]
              @ gc_layer g;
          }
        in
        { op; trace; teardown = (fun () -> rm_rf ctx.scratch) });
  }

let all = [ sweep_deep; sweep_deep_j2; scheme_wide; hunt_random; artifact_roundtrip ]
let find name = List.find_opt (fun w -> w.name = name) all
