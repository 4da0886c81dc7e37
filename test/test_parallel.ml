(* The parallel sweeps must be bit-identical to the sequential ones:
   input vectors partition the reachable configuration space, shards
   are merged in vector order, and the hunt's winner is the smallest
   violating run index.  These tests pin that contract for every
   protocol in the registry, and check the hashed visited sets against
   the old balanced-tree membership on random walks. *)

open Patterns_sim
open Patterns_core
open Patterns_stdx

let jobs_values = [ 2; 4 ]

(* Small n keeps the sweep fast; fixed-n protocols use their own n.
   Budgets are capped — truncation is deterministic per shard, so
   capped sweeps must still agree across jobs values. *)
let pick_n (module P : Protocol.S) ~default_n = if P.valid_n 3 then 3 else default_n

(* The exhaustive-visited oracles (budget never hit, serial reference
   BFS) need a reachable space they can actually exhaust.  Ben-Or's is
   finite but combinatorially explosive even at n = 3 — three rounds
   of two broadcasts per processor, all interleavings — so it stays
   out of the uncapped sweeps; every budget-capped sweep above still
   covers it. *)
let exhaustable =
  List.filter
    (fun e -> e.Patterns_protocols.Registry.name <> "ben-or")
    Patterns_protocols.Registry.all

let rule_of entry =
  let open Patterns_protocols in
  if entry.Registry.name = "ben-or" then Decision_rule.Any_input
  else if entry.Registry.name = "reliable-broadcast" then Decision_rule.Broadcast 0
  else if entry.Registry.name = "termination" then Decision_rule.Threshold 1
  else if entry.Registry.name = "voting-star-thr3-5" then Decision_rule.Threshold 3
  else if entry.Registry.name = "voting-star-subset-5" then Decision_rule.Subset [ 0; 1 ]
  else Decision_rule.Unanimity

(* ----- Domain_pool ----- *)

let test_pool_map_order () =
  Domain_pool.with_pool ~jobs:3 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "map preserves order" (List.map (fun x -> x * x) xs)
        (Domain_pool.map pool (fun x -> x * x) xs));
  Domain_pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check (list int)) "inline path" [ 2; 4 ] (Domain_pool.map pool (fun x -> 2 * x) [ 1; 2 ]))

let test_pool_fold () =
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 50 (fun i -> i + 1) in
      Alcotest.(check int) "fold merges in order" (50 * 51 / 2)
        (Domain_pool.fold pool ~f:Fun.id ~merge:( + ) ~init:0 xs);
      (* merge order matters for non-commutative merges *)
      Alcotest.(check string) "left-to-right merge" "abcde"
        (Domain_pool.fold pool ~f:(String.make 1) ~merge:( ^ ) ~init:""
           [ 'a'; 'b'; 'c'; 'd'; 'e' ]))

exception Boom of int

let test_pool_exn () =
  Domain_pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.check_raises "first error by input index" (Boom 2) (fun () ->
          ignore
            (Domain_pool.map pool
               (fun x -> if x >= 2 then raise (Boom x) else x)
               [ 0; 1; 2; 3; 4 ]));
      (* the pool survives a failed batch *)
      Alcotest.(check (list int)) "pool reusable after error" [ 1; 2; 3 ]
        (Domain_pool.map pool Fun.id [ 1; 2; 3 ]))

(* ----- scheme: jobs-invariance over the whole registry ----- *)

let test_scheme_jobs_invariant () =
  List.iter
    (fun entry ->
      let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
      let n = pick_n (module P) ~default_n:entry.Patterns_protocols.Registry.default_n in
      let module S = Patterns_pattern.Scheme.Make (P) in
      (* the budget cuts most registry sweeps short; this case runs
         the layered driver at a larger budget, and "every sweep, both
         drivers" below runs both drivers at small ones *)
      let run jobs =
        S.scheme ~max_configs:2_000 ~jobs ~par_mode:Patterns_search.Search.Layers ~n ()
      in
      let pats1, stats1 = run 1 in
      List.iter
        (fun jobs ->
          let pats, stats = run jobs in
          Alcotest.(check bool)
            (Printf.sprintf "%s: scheme jobs=%d = jobs=1" P.name jobs)
            true
            (Patterns_pattern.Pattern.Set.equal pats1 pats);
          Alcotest.(check int)
            (Printf.sprintf "%s: visited jobs=%d" P.name jobs)
            stats1.Patterns_pattern.Scheme.configs_visited
            stats.Patterns_pattern.Scheme.configs_visited;
          Alcotest.(check int)
            (Printf.sprintf "%s: terminal jobs=%d" P.name jobs)
            stats1.Patterns_pattern.Scheme.terminal_configs
            stats.Patterns_pattern.Scheme.terminal_configs;
          Alcotest.(check bool)
            (Printf.sprintf "%s: truncated jobs=%d" P.name jobs)
            stats1.Patterns_pattern.Scheme.truncated stats.Patterns_pattern.Scheme.truncated)
        jobs_values)
    Patterns_protocols.Registry.all

(* ----- explore / classify: jobs-invariance over the whole registry ----- *)

let test_classify_jobs_invariant () =
  List.iter
    (fun entry ->
      let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
      let n = pick_n (module P) ~default_n:entry.Patterns_protocols.Registry.default_n in
      let rule = rule_of entry in
      (* the layered driver at a larger budget (see
         test_scheme_jobs_invariant) *)
      let run jobs =
        Classify.classify ~max_failures:1 ~max_configs:20_000 ~jobs
          ~par_mode:Patterns_search.Search.Layers ~rule ~n
          entry.Patterns_protocols.Registry.protocol
      in
      let v1 = run 1 in
      List.iter
        (fun jobs ->
          let v = run jobs in
          Alcotest.(check bool)
            (Printf.sprintf "%s: verdict jobs=%d = jobs=1" P.name jobs)
            true
            (Stdlib.compare v1 v = 0))
        jobs_values)
    Patterns_protocols.Registry.all

(* ----- async scheme / classify: exhaustive sweeps match layers ----- *)

let test_scheme_async_invariant () =
  (* an exhaustive sweep (budget never hit) must produce identical
     pattern sets and deterministic counters under both drivers, for
     every jobs value *)
  let (module P : Protocol.S) = Patterns_protocols.Perverse_proto.fig4 in
  let module S = Patterns_pattern.Scheme.Make (P) in
  let run ~jobs ~par_mode = S.scheme ~jobs ~par_mode ~n:4 () in
  let pats1, stats1 = run ~jobs:1 ~par_mode:Patterns_search.Search.Layers in
  Alcotest.(check bool) "fig4 sweep is exhaustive" false
    stats1.Patterns_pattern.Scheme.truncated;
  List.iter
    (fun jobs ->
      let pats, stats = run ~jobs ~par_mode:Patterns_search.Search.Async in
      Alcotest.(check bool)
        (Printf.sprintf "fig4 scheme async jobs=%d = layers jobs=1" jobs)
        true
        (Patterns_pattern.Pattern.Set.equal pats1 pats);
      Alcotest.(check int)
        (Printf.sprintf "fig4 visited async jobs=%d" jobs)
        stats1.Patterns_pattern.Scheme.configs_visited
        stats.Patterns_pattern.Scheme.configs_visited;
      Alcotest.(check int)
        (Printf.sprintf "fig4 terminal async jobs=%d" jobs)
        stats1.Patterns_pattern.Scheme.terminal_configs
        stats.Patterns_pattern.Scheme.terminal_configs)
    [ 1; 2; 4 ]

let test_classify_async_invariant () =
  (* fig3-chain at n=3 exhausts well inside the default budget, so the
     async verdict must equal the layered one bit for bit *)
  let run ~jobs ~par_mode =
    Classify.classify ~max_failures:1 ~jobs ~par_mode
      ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3
      Patterns_protocols.Chain_proto.fig3
  in
  let v1 = run ~jobs:1 ~par_mode:Patterns_search.Search.Layers in
  Alcotest.(check bool) "fig3 classify is exhaustive" false v1.Classify.truncated;
  List.iter
    (fun jobs ->
      let v = run ~jobs ~par_mode:Patterns_search.Search.Async in
      Alcotest.(check bool)
        (Printf.sprintf "fig3 verdict async jobs=%d = layers jobs=1" jobs)
        true
        (Stdlib.compare v1 v = 0))
    [ 1; 2; 4 ]

(* ----- every sweep, both drivers: the answer of jobs 1 ----- *)

(* A sweep with several roots searches each on one worker, so its
   answer is the one of [--jobs 1] under either driver, truncated or
   not: verdicts (configuration counts included), pattern sets and
   scheme statistics.  The budget-capped rows cover the whole
   registry; the exhaustive ones cover the protocols whose
   single-crash space fits the default budget at n = 3, coop-2pc among
   them, whose count under the async driver depends on the order in
   which converging paths are met (6818 configurations). *)
let test_sweeps_jobs_invariant_both_drivers () =
  let classify ?max_configs entry ~par_mode jobs =
    let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
    let n = pick_n (module P) ~default_n:entry.Patterns_protocols.Registry.default_n in
    Classify.classify ~max_failures:1 ?max_configs ~jobs ~par_mode ~rule:(rule_of entry) ~n
      entry.Patterns_protocols.Registry.protocol
  in
  let scheme ?max_configs entry ~par_mode jobs =
    let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
    let n = pick_n (module P) ~default_n:entry.Patterns_protocols.Registry.default_n in
    let module S = Patterns_pattern.Scheme.Make (P) in
    let pats, stats = S.scheme ?max_configs ~jobs ~par_mode ~n () in
    (Patterns_pattern.Pattern.Set.elements pats, stats)
  in
  let same what run =
    let one = run 1 in
    List.iter
      (fun jobs ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: jobs=%d = jobs=1" what jobs)
          true
          (Stdlib.compare one (run jobs) = 0))
      [ 2; 4; 8 ]
  in
  let entry name = Option.get (Patterns_protocols.Registry.find name) in
  List.iter
    (fun par_mode ->
      let mode = Patterns_search.Search.par_mode_string par_mode in
      List.iter
        (fun e ->
          let name = e.Patterns_protocols.Registry.name in
          same (Printf.sprintf "%s %s classify, capped" name mode)
            (classify ~max_configs:400 e ~par_mode);
          same (Printf.sprintf "%s %s scheme, capped" name mode)
            (scheme ~max_configs:20 e ~par_mode))
        Patterns_protocols.Registry.all;
      List.iter
        (fun name ->
          let e = entry name in
          let v = classify e ~par_mode 1 in
          Alcotest.(check bool) (name ^ " classify is exhaustive") false v.Classify.truncated;
          same (Printf.sprintf "%s %s classify, exhaustive" name mode) (classify e ~par_mode))
        [ "coop-2pc"; "fig2-central" ];
      List.iter
        (fun name ->
          let e = entry name in
          let _, stats = scheme e ~par_mode 1 in
          Alcotest.(check bool)
            (name ^ " scheme is exhaustive")
            false stats.Patterns_pattern.Scheme.truncated;
          same (Printf.sprintf "%s %s scheme, exhaustive" name mode) (scheme e ~par_mode))
        [ "fig3-chain"; "coop-2pc" ])
    Patterns_search.Search.[ Async; Layers ];
  Alcotest.(check int) "coop-2pc async configs" 6818
    (classify (entry "coop-2pc") ~par_mode:Patterns_search.Search.Async 4).Classify.configs

(* ----- run / run_par_async: the kernel drivers themselves ----- *)

(* Failure-free expansion of a protocol's configurations, with the
   expanded states' fingerprints collected in the observation
   accumulator, in expansion order under the serial driver — for an
   exhausted search the multiset of expanded fingerprints IS the
   visited set.  [Layers] is the serial driver, which takes no pool. *)
let kernel_visited ?(par_mode = Patterns_search.Search.Layers) (module P : Protocol.S) ~n
    ~inputs ~jobs ~budget =
  let module E = Engine.Make (P) in
  let module Pr = struct
    type state = E.config

    let compare = E.compare_config
    let fingerprint = E.fingerprint
  end in
  let module K = Patterns_search.Search.Make (Pr) in
  let expand =
    {
      K.empty = (fun () -> ref []);
      merge =
        (fun a b ->
          a := !b @ !a;
          a);
      expand =
        (fun acc c ->
          acc := E.fingerprint c :: !acc;
          List.rev_map (fun a -> fst (E.apply_exn ~step:0 c a)) (E.applicable c));
    }
  in
  let root = E.init ~n ~inputs in
  let outcome, fps, m =
    match par_mode with
    | Patterns_search.Search.Layers -> K.run ~budget ~expand ~root ()
    | Patterns_search.Search.Async ->
      Domain_pool.with_pool ~jobs (fun pool -> K.run_par_async ~pool ~budget ~expand ~root ())
  in
  ( (match outcome with
    | Patterns_search.Search.Exhausted -> "exhausted"
    | Patterns_search.Search.Truncated (Budget_exhausted { consumed; _ }) ->
      Printf.sprintf "truncated:%d" consumed
    | Patterns_search.Search.Truncated r -> "truncated:" ^ Patterns_search.Search.reason_string r
    | Patterns_search.Search.Goal_found _ -> "goal"),
    List.rev !fps,
    m )

(* the drivers the oracles below compare: the serial one, and the
   async one at every worker count up to 8 *)
let drivers =
  Patterns_search.Search.[ (Layers, 1); (Async, 1); (Async, 2); (Async, 4); (Async, 8) ]

(* Independent oracle: a plain worklist reachability fold with a
   balanced-set visited store — no fingerprints, no sharding. *)
let reference_visited (module P : Protocol.S) ~n ~inputs =
  let module E = Engine.Make (P) in
  let module S = Set.Make (struct
    type t = E.config

    let compare = E.compare_config
  end) in
  let expand c = List.rev_map (fun a -> fst (E.apply_exn ~step:0 c a)) (E.applicable c) in
  let rec go visited = function
    | [] -> visited
    | c :: rest ->
      let fresh = List.filter (fun s -> not (S.mem s visited)) (expand c) in
      go (List.fold_left (fun v s -> S.add s v) visited fresh) (fresh @ rest)
  in
  let root = E.init ~n ~inputs in
  let visited = go (S.add root S.empty) [ root ] in
  (List.sort Int.compare (List.map E.fingerprint (S.elements visited)), S.cardinal visited)

let test_drivers_match_reference () =
  (* whole registry, both drivers, jobs up to 8: each driver visits
     exactly the reference reachable set — same cardinality, same
     fingerprint multiset *)
  List.iter
    (fun entry ->
      let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
      let n = pick_n (module P) ~default_n:entry.Patterns_protocols.Registry.default_n in
      let inputs = List.init n (fun i -> i mod 2 = 0) in
      let ref_fps, ref_card = reference_visited (module P) ~n ~inputs in
      List.iter
        (fun (par_mode, jobs) ->
          let outcome, fps, m =
            kernel_visited ~par_mode (module P) ~n ~inputs ~jobs ~budget:max_int
          in
          let label fmt =
            Printf.sprintf "%s %s jobs=%d: %s" P.name
              (Patterns_search.Search.par_mode_string par_mode)
              jobs fmt
          in
          Alcotest.(check string) (label "outcome") "exhausted" outcome;
          Alcotest.(check int) (label "cardinality") ref_card (List.length fps);
          Alcotest.(check (list int)) (label "fingerprint multiset") ref_fps
            (List.sort Int.compare fps);
          Alcotest.(check int) (label "states_expanded") ref_card
            m.Patterns_search.Metrics.states_expanded;
          (* one successor rule: the root's claim plus one claim per
             successor, which is the membership test too *)
          Alcotest.(check int)
            (label "fingerprint_probes = states_expanded + dedup_hits")
            (m.Patterns_search.Metrics.states_expanded + m.Patterns_search.Metrics.dedup_hits)
            m.Patterns_search.Metrics.fingerprint_probes)
        drivers)
    exhaustable

let test_truncation_invariant () =
  (* a budget cut mid-search: the serial driver's expansions are a
     prefix of its exhaustive visit order (the layer the budget runs
     out in is charged but not expanded), and the async driver
     consumes the budget exactly too — its ticket drain is
     deterministic even though the visited subset is
     schedule-dependent *)
  let run ?par_mode ?(budget = 7) jobs =
    kernel_visited ?par_mode Patterns_protocols.Chain_proto.fig3 ~n:3
      ~inputs:[ true; true; true ] ~jobs ~budget
  in
  let outcome, fps, _ = run 1 in
  Alcotest.(check string) "budget consumed exactly" "truncated:7" outcome;
  let _, all, _ = run ~budget:max_int 1 in
  Alcotest.(check bool) "some layers expanded" true (fps <> [] && List.length fps < 7);
  Alcotest.(check (list int)) "expanded prefix"
    (List.filteri (fun i _ -> i < List.length fps) all)
    fps;
  List.iter
    (fun jobs ->
      let outcome, fps, _ = run ~par_mode:Patterns_search.Search.Async jobs in
      Alcotest.(check string)
        (Printf.sprintf "async jobs=%d: budget consumed exactly" jobs)
        "truncated:7" outcome;
      Alcotest.(check int)
        (Printf.sprintf "async jobs=%d: expanded = budget" jobs)
        7 (List.length fps))
    [ 1; 2; 4 ]

(* ----- hunt: the winner is the smallest violating run index ----- *)

let test_hunt_jobs_invariant () =
  let two_pc = Option.get (Patterns_protocols.Registry.find "2pc") in
  let hunt ~max_failures ~max_runs ~property ~seed jobs =
    Patterns_adversary.Hunt.hunt ~max_failures ~max_runs ~jobs
      ~mode:Patterns_adversary.Hunt.Random ~property
      ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3 ~seed two_pc
  in
  let run = hunt ~max_failures:2 ~max_runs:2_000 ~property:Audit.TC ~seed:1984 in
  let r1 = run 1 in
  Alcotest.(check bool) "hunt finds the 2pc violation" true (Result.is_ok r1);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "hunt jobs=%d identical" jobs)
        true (run jobs = r1))
    jobs_values;
  (* a clean hunt reports the same run budget for every jobs value *)
  let clean = hunt ~max_failures:1 ~max_runs:200 ~property:Audit.Agreement ~seed:7 in
  Alcotest.(check bool) "clean hunt jobs=4 identical" true (clean 1 = clean 4)

(* ----- qcheck: hashed visited set vs the old balanced tree ----- *)

module P_chain = (val Patterns_protocols.Chain_proto.fig3 : Protocol.S)
module E = Engine.Make (P_chain)

module Cset = Set.Make (struct
  type t = E.config

  let compare = E.compare_config
end)

module Ctbl = Hashtbl.Make (struct
  type t = E.config

  let equal a b = E.compare_config a b = 0
  let hash = E.hash_config
end)

(* A random walk through chain-protocol configurations, failure steps
   included, collecting every configuration along the way. *)
let walk ~seed ~n ~steps =
  let prng = Prng.create ~seed in
  let inputs = List.init n (fun _ -> Prng.bool prng) in
  let rec go acc cfg k =
    if k = 0 then acc
    else
      let acts =
        E.applicable cfg @ (if Prng.int prng ~bound:4 = 0 then E.failure_actions cfg else [])
      in
      match acts with
      | [] -> acc
      | acts ->
        let a = List.nth acts (Prng.int prng ~bound:(List.length acts)) in
        let cfg', _ = E.apply_exn ~step:(steps - k) cfg a in
        go (cfg' :: acc) cfg' (k - 1)
  in
  let c0 = E.init ~n ~inputs in
  go [ c0 ] c0 steps

let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~name:"drivers visit the reference set" ~count:40
      Gen.(
        triple (int_bound (List.length exhaustable - 1)) (int_bound 1000) (oneofl drivers))
      (fun (idx, seed, (par_mode, jobs)) ->
        let entry = List.nth exhaustable idx in
        let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
        let n = pick_n (module P) ~default_n:entry.Patterns_protocols.Registry.default_n in
        let prng = Prng.create ~seed in
        let inputs = List.init n (fun _ -> Prng.bool prng) in
        let ref_fps, ref_card = reference_visited (module P) ~n ~inputs in
        let outcome, fps, m =
          kernel_visited ~par_mode (module P) ~n ~inputs ~jobs ~budget:max_int
        in
        outcome = "exhausted" && List.length fps = ref_card
        && List.sort Int.compare fps = ref_fps
        && m.Patterns_search.Metrics.states_expanded = ref_card);
    Test.make ~name:"hash_config is compare_config-consistent" ~count:60
      Gen.(pair (int_bound 100_000) (int_bound 100_000))
      (fun (s1, s2) ->
        let pool = walk ~seed:s1 ~n:3 ~steps:30 @ walk ~seed:s2 ~n:3 ~steps:30 in
        List.for_all
          (fun a ->
            List.for_all
              (fun b -> E.compare_config a b <> 0 || E.hash_config a = E.hash_config b)
              pool)
          pool);
    Test.make ~name:"hashtable visited set = Set.Make visited set" ~count:60
      Gen.(pair (int_bound 100_000) (int_bound 100_000))
      (fun (s1, s2) ->
        let inserted = walk ~seed:s1 ~n:3 ~steps:40 in
        let probes = walk ~seed:s2 ~n:3 ~steps:40 in
        let set = Cset.of_list inserted in
        let tbl = Ctbl.create 64 in
        List.iter (fun c -> Ctbl.replace tbl c ()) inserted;
        List.for_all (fun c -> Cset.mem c set = Ctbl.mem tbl c) (inserted @ probes));
    Test.make ~name:"hash_behavioral is compare_behavioral-consistent" ~count:40
      Gen.(int_bound 100_000)
      (fun s ->
        let pool = walk ~seed:s ~n:3 ~steps:40 in
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                E.compare_behavioral a b <> 0 || E.hash_behavioral a = E.hash_behavioral b)
              pool)
          pool);
  ]

let () =
  Alcotest.run "parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "fold merge" `Quick test_pool_fold;
          Alcotest.test_case "exceptions" `Quick test_pool_exn;
        ] );
      ( "jobs invariance",
        [
          Alcotest.test_case "scheme, whole registry" `Quick test_scheme_jobs_invariant;
          Alcotest.test_case "classify, whole registry" `Slow test_classify_jobs_invariant;
          Alcotest.test_case "scheme, async exhaustive" `Quick test_scheme_async_invariant;
          Alcotest.test_case "classify, async exhaustive" `Quick
            test_classify_async_invariant;
          Alcotest.test_case "hunt" `Quick test_hunt_jobs_invariant;
          Alcotest.test_case "every sweep, both drivers" `Quick
            test_sweeps_jobs_invariant_both_drivers;
        ] );
      ( "kernel drivers",
        [
          Alcotest.test_case "matches reference, whole registry" `Quick
            test_drivers_match_reference;
          Alcotest.test_case "truncation invariant" `Quick test_truncation_invariant;
        ] );
      ("visited sets", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
