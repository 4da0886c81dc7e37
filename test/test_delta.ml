(* The incremental layer's single contract: answers computed through
   the per-root memo — wholesale per-root reuse — or through memoized
   failure-free prefixes in the systematic hunt are bit-identical to
   the from-scratch answers under the same driver, across the whole
   protocol registry, every jobs value and both drivers.  These tests
   pin that contract, plus the determinism of the /8 counters and the
   inertness of [memo] on the random adversary's PRNG stream. *)

open Patterns_stdx
open Patterns_core
module Db = Patterns_db.Db

let check = Alcotest.check

(* the CLI's protocol -> decision-rule mapping, for registry-wide
   sweeps *)
let rule_of_registry entry =
  let open Patterns_protocols in
  if entry.Registry.name = "ben-or" then Decision_rule.Any_input
  else if entry.Registry.name = "reliable-broadcast" then Decision_rule.Broadcast 0
  else if entry.Registry.name = "termination" then Decision_rule.Threshold 1
  else if entry.Registry.name = "voting-star-thr3-5" then Decision_rule.Threshold 3
  else if entry.Registry.name = "voting-star-subset-5" then Decision_rule.Subset [ 0; 1 ]
  else Decision_rule.Unanimity

let entry_exn name =
  match Patterns_protocols.Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "registry lost %s" name

(* verdicts are scalar records (bools, ints, strings): structural
   equality is the bit-identity the contract promises *)
let check_verdict name (a : Classify.verdict) (b : Classify.verdict) =
  Alcotest.(check bool) name true (a = b)

(* ----- registry-wide reuse oracle -----

   For every protocol: classify at max_failures 0 and 1 recording
   per-vector facts into a fresh memo, then again through the same
   memo (every vector reused: untruncated ones by the budget-free key,
   truncated ones by the budgeted one), and compare every verdict
   against the from-scratch runs.  A memo holding only the first half
   of the vectors, as a run killed halfway leaves it, must answer the
   same.  The budget cap keeps the big fixed-n protocols bounded.  The
   serial driver pins the truncation points. *)

let test_registry_reuse () =
  List.iter
    (fun entry ->
      let (module P : Patterns_sim.Protocol.S) =
        entry.Patterns_protocols.Registry.protocol
      in
      let n =
        if entry.Patterns_protocols.Registry.fixed_n then
          entry.Patterns_protocols.Registry.default_n
        else min entry.Patterns_protocols.Registry.default_n 3
      in
      let rule = rule_of_registry entry in
      let max_configs = 20_000 in
      let par_mode = Patterns_search.Search.Layers in
      let classify ?base ?inputs_choices mf =
        Classify.classify ?base ?inputs_choices ~max_failures:mf ~max_configs ~par_mode ~rule
          ~n entry.Patterns_protocols.Registry.protocol
      in
      let all = Listx.all_bool_vectors n in
      let half = List.filteri (fun i _ -> i < List.length all / 2) all in
      let base = Db.create () in
      List.iter
        (fun mf ->
          let scratch = classify mf in
          check_verdict (Printf.sprintf "%s mf=%d through base" P.name mf) scratch
            (classify ~base mf);
          check_verdict (Printf.sprintf "%s mf=%d reused" P.name mf) scratch
            (classify ~base mf);
          let killed = Db.create () in
          ignore (classify ~base:killed ~inputs_choices:half mf : Classify.verdict);
          check_verdict (Printf.sprintf "%s mf=%d resumed" P.name mf) scratch
            (classify ~base:killed mf))
        [ 0; 1 ])
    Patterns_protocols.Registry.all

(* The same oracle for pattern schemes: a scheme through a fresh memo,
   a fully reused one and a half-filled one is the from-scratch
   scheme, with the same stats. *)
let test_scheme_registry_reuse () =
  List.iter
    (fun entry ->
      let (module P : Patterns_sim.Protocol.S) =
        entry.Patterns_protocols.Registry.protocol
      in
      let module S = Patterns_pattern.Scheme.Make (P) in
      let n =
        if entry.Patterns_protocols.Registry.fixed_n then
          entry.Patterns_protocols.Registry.default_n
        else min entry.Patterns_protocols.Registry.default_n 3
      in
      let scheme ?base () =
        S.scheme ?base ~max_configs:2_000 ~par_mode:Patterns_search.Search.Layers ~n ()
      in
      let pats, stats = scheme () in
      let same name (pats', stats') =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s" P.name name)
          true
          (Patterns_pattern.Pattern.Set.equal pats pats' && stats = stats')
      in
      let base = Db.create () in
      same "through a fresh memo" (scheme ~base ());
      same "reused" (scheme ~base ());
      (* half the vectors' facts damaged: a run killed halfway *)
      List.iteri
        (fun i (key, _) ->
          if i mod 2 = 1 then Db.put_fact base ~kind:"scheme_vec2" ~key Json.Null)
        (Db.facts base ~kind:"scheme_vec2");
      same "resumed" (scheme ~base ()))
    Patterns_protocols.Registry.all

(* ----- added input vectors -----

   Facts are per-vector, so growing the vector set reuses the old
   vectors wholesale and explores only the new ones. *)

let test_added_inputs () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  let n = 3 in
  let all = Listx.all_bool_vectors n in
  let half = List.filteri (fun i _ -> i < List.length all / 2) all in
  let scratch =
    Classify.classify ~max_failures:1 ~inputs_choices:all ~rule ~n
      entry.Patterns_protocols.Registry.protocol
  in
  let base = Db.create () in
  let _seed : Classify.verdict =
    Classify.classify ~base ~max_failures:1 ~inputs_choices:half ~rule ~n
      entry.Patterns_protocols.Registry.protocol
  in
  let metrics = ref Patterns_search.Metrics.zero in
  let grown =
    Classify.classify ~metrics ~base ~max_failures:1 ~inputs_choices:all ~rule ~n
      entry.Patterns_protocols.Registry.protocol
  in
  check_verdict "half-then-all ≡ from-scratch" scratch grown;
  Alcotest.(check bool)
    "old vectors were reused" true
    (!metrics.Patterns_search.Metrics.delta_reused_edges > 0)

(* ----- budget gate -----

   A stored fact larger than the current per-vector budget must not be
   reused: the incremental run falls back to a fresh (truncating)
   search and reproduces the from-scratch truncated verdict.  The
   other way round, a vector truncated under a small budget is keyed
   by that budget, so it answers the same budget again but not a
   larger one.  The serial driver pins the truncation order, and
   writes the base too, so the facts are keyed for it. *)

let test_budget_gate () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  let n = 3 in
  let par_mode = Patterns_search.Search.Layers in
  let base = Db.create () in
  let _big : Classify.verdict =
    Classify.classify ~base ~max_failures:1 ~par_mode ~rule ~n
      entry.Patterns_protocols.Registry.protocol
  in
  let small mf_opts =
    Classify.classify ?base:mf_opts ~max_failures:1 ~max_configs:8_000 ~par_mode ~rule ~n
      entry.Patterns_protocols.Registry.protocol
  in
  let scratch = small None and through_base = small (Some base) in
  Alcotest.(check bool) "small budget truncates" true scratch.Classify.truncated;
  check_verdict "oversized facts are not reused" scratch through_base;
  let truncated = Db.create () in
  let _small : Classify.verdict = small (Some truncated) in
  check_verdict "a truncated vector answers its own budget" scratch (small (Some truncated));
  let full ?base () =
    Classify.classify ?base ~max_failures:1 ~par_mode ~rule ~n
      entry.Patterns_protocols.Registry.protocol
  in
  check_verdict "but not a larger one" (full ()) (full ~base:truncated ())

(* ----- live-state limit gate -----

   A live-state limit can stop a vector that ran to completion without
   one, so a run under a limit never answers from the budget-free
   facts: it gives the from-scratch verdict under the same limit, and
   records what it sees under keys that name the limit. *)

let test_live_limit_gate () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  let classify ?base ?max_live () =
    Classify.classify ?base ?max_live ~max_failures:1
      ~par_mode:Patterns_search.Search.Layers ~rule ~n:3
      entry.Patterns_protocols.Registry.protocol
  in
  let base = Db.create () in
  let full = classify ~base () in
  let limited = classify ~max_live:40 () in
  Alcotest.(check bool) "the limit truncates" true limited.Classify.truncated;
  check_verdict "complete facts do not answer a limited run" limited
    (classify ~base ~max_live:40 ());
  check_verdict "and the limited run's facts do not answer an unlimited one" full
    (classify ~base ());
  check_verdict "but answer the same limit again" limited (classify ~base ~max_live:40 ())

(* ----- jobs and par-mode invariance of the reuse path ----- *)

let test_matrix_invariance () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  let n = 3 in
  let scratch =
    Classify.classify ~max_failures:1 ~rule ~n entry.Patterns_protocols.Registry.protocol
  in
  let combos =
    [
      (1, Patterns_search.Search.Async);
      (4, Patterns_search.Search.Async);
      (1, Patterns_search.Search.Layers);
      (4, Patterns_search.Search.Layers);
    ]
  in
  let reused_edges =
    List.map
      (fun (jobs, par_mode) ->
        let base = Db.create () in
        let _seed : Classify.verdict =
          Classify.classify ~base ~max_failures:1 ~jobs ~par_mode ~rule ~n
            entry.Patterns_protocols.Registry.protocol
        in
        let metrics = ref Patterns_search.Metrics.zero in
        let reused =
          Classify.classify ~metrics ~base ~max_failures:1 ~jobs ~par_mode ~rule ~n
            entry.Patterns_protocols.Registry.protocol
        in
        check_verdict
          (Printf.sprintf "reused ≡ scratch (jobs=%d mode=%s)" jobs
             (Patterns_search.Search.par_mode_string par_mode))
          scratch reused;
        check Alcotest.int "no expansions on reuse" 0
          !metrics.Patterns_search.Metrics.states_expanded;
        !metrics.Patterns_search.Metrics.delta_reused_edges)
      combos
  in
  match reused_edges with
  | [] -> assert false
  | e0 :: rest ->
    Alcotest.(check bool) "delta_reused_edges > 0" true (e0 > 0);
    List.iter (fun e -> check Alcotest.int "delta_reused_edges invariant" e0 e) rest

(* ----- facts are keyed by driver -----

   On coop-2pc at one crash, distinct paths converge on one
   behavioural node, and which path's configuration is kept depends on
   visit order: the two drivers report different counts.  A base
   written under the serial driver must therefore not answer an async
   query — the async run through it gives the async from-scratch
   answer. *)

let test_base_keyed_by_driver () =
  let entry = entry_exn "coop-2pc" in
  let rule = rule_of_registry entry in
  let classify ?base par_mode =
    Classify.classify ?base ~max_failures:1 ~par_mode ~rule ~n:3
      entry.Patterns_protocols.Registry.protocol
  in
  let layers = classify Patterns_search.Search.Layers in
  let async = classify Patterns_search.Search.Async in
  Alcotest.(check bool) "the drivers disagree here" true
    (layers.Classify.configs <> async.Classify.configs);
  let base = Db.create () in
  check_verdict "layers through base" layers (classify ~base Patterns_search.Search.Layers);
  check_verdict "async through a layers base" async
    (classify ~base Patterns_search.Search.Async);
  check_verdict "layers reused" layers (classify ~base Patterns_search.Search.Layers)

(* ----- unsealable facts are recomputed -----

   Base facts are a cache.  A fact in the retired JSON form, or a
   sealed fact with one hex digit flipped, does not unseal: its vector
   is explored afresh, so the verdict is the from-scratch one with
   every vector re-explored, and the fresh fact overwrites the damaged
   one. *)

(* the kind Explore's per-root memo seals its per-vector reports under *)
let vec_kind = "classify_vec3"

let flip_hex_digit h =
  let i = String.length h / 2 in
  String.mapi (fun j c -> if j <> i then c else if c = '0' then '1' else '0') h

let test_unsealable_facts_recomputed () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  let classify ?metrics ?base () =
    Classify.classify ?metrics ?base ~max_failures:1 ~rule ~n:3
      entry.Patterns_protocols.Registry.protocol
  in
  let scratch_m = ref Patterns_search.Metrics.zero in
  let scratch = classify ~metrics:scratch_m () in
  let expanded m = !m.Patterns_search.Metrics.states_expanded in
  let recomputed name damage =
    let base = Db.create () in
    let _seed : Classify.verdict = classify ~base () in
    let facts = Db.facts base ~kind:vec_kind in
    check Alcotest.int "one fact per vector" 8 (List.length facts);
    List.iter (fun (key, fact) -> Db.put_fact base ~kind:vec_kind ~key (damage fact)) facts;
    let metrics = ref Patterns_search.Metrics.zero in
    check_verdict (name ^ " ≡ scratch") scratch (classify ~metrics ~base ());
    check Alcotest.int (name ^ ": every vector re-explored") (expanded scratch_m)
      (expanded metrics);
    check Alcotest.int (name ^ ": nothing reused") 0
      !metrics.Patterns_search.Metrics.delta_reused_edges;
    let metrics = ref Patterns_search.Metrics.zero in
    check_verdict (name ^ ": overwritten facts reused") scratch (classify ~metrics ~base ());
    check Alcotest.int (name ^ ": no expansions on reuse") 0 (expanded metrics)
  in
  recomputed "old-format JSON facts" (fun _ ->
      Json.Obj
        [
          ("configs", Json.Int 1);
          ("terminal", Json.Int 1);
          ("edges_gen", Json.Int 0);
          ("cells", Json.List []);
          ("errors", Json.List []);
          ("smap", Json.String (Hex.encode "pre-seal"));
        ]);
  recomputed "flipped hex digit" (function
    | Json.String h -> Json.String (flip_hex_digit h)
    | _ -> Alcotest.fail "sealed fact is not a string")

(* ----- facts under a retired kind are recomputed -----

   Per-vector facts were sealed as ["classify_vec"] while the
   accumulator held a persistent state map, and as ["classify_vec2"]
   while they held the accumulator; the kind changed with the type
   each time.  A base holding a fact of a retired kind for one vector
   (000 here) must not answer from it, even though it unseals under
   its own kind: that vector alone is explored afresh, the other
   seven are reused, the verdict is the from-scratch one, and the
   fresh fact is stored under the current kind. *)

(* the retired accumulator's layout, which the current reader would
   misread *)
type retired_vobs = {
  terminal : int;
  cells : (int * string) option array;
  errors : string list;
  smap : (string * int) list;
  edges_gen : int;
}

let test_retired_kind_recomputed () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  let classify ?metrics ?base ?inputs_choices () =
    Classify.classify ?metrics ?base ?inputs_choices ~max_failures:1 ~rule ~n:3
      entry.Patterns_protocols.Registry.protocol
  in
  let expanded m = !m.Patterns_search.Metrics.states_expanded in
  let scratch = classify () in
  let zeros_m = ref Patterns_search.Metrics.zero in
  let _zeros : Classify.verdict =
    classify ~metrics:zeros_m ~inputs_choices:[ [ false; false; false ] ] ()
  in
  let seeded = Db.create () in
  let _seed : Classify.verdict = classify ~base:seeded () in
  let base = Db.create () in
  let retired = ref 0 in
  List.iter
    (fun (key, fact) ->
      if String.ends_with ~suffix:"vec=000" key then begin
        incr retired;
        Db.put_sealed base ~kind:"classify_vec" ~key
          ( expanded zeros_m,
            { terminal = 0; cells = Array.make 7 None; errors = []; smap = []; edges_gen = 0 } )
      end
      else Db.put_fact base ~kind:vec_kind ~key fact)
    (Db.facts seeded ~kind:vec_kind);
  check Alcotest.int "one retired fact" 1 !retired;
  let metrics = ref Patterns_search.Metrics.zero in
  check_verdict "retired kind ≡ scratch" scratch (classify ~metrics ~base ());
  check Alcotest.int "only vector 000 re-explored" (expanded zeros_m) (expanded metrics);
  Alcotest.(check bool)
    "the other vectors reused" true
    (!metrics.Patterns_search.Metrics.delta_reused_edges > 0);
  check Alcotest.int "current-kind facts" 8 (List.length (Db.facts base ~kind:vec_kind));
  let metrics = ref Patterns_search.Metrics.zero in
  check_verdict "then reused ≡ scratch" scratch (classify ~metrics ~base ());
  check Alcotest.int "no expansions on reuse" 0 (expanded metrics)

(* ----- systematic hunt: memoized prefixes ≡ full replays ----- *)

let test_hunt_memo_oracle () =
  List.iter
    (fun entry ->
      let rule = rule_of_registry entry in
      let n =
        if entry.Patterns_protocols.Registry.fixed_n then
          entry.Patterns_protocols.Registry.default_n
        else min entry.Patterns_protocols.Registry.default_n 3
      in
      let hunt ?base memo =
        Patterns_adversary.Hunt.hunt ?base ~memo ~max_failures:2 ~max_runs:1_200
          ~mode:Patterns_adversary.Hunt.Systematic ~property:Audit.TC ~rule ~n ~seed:0
          entry
      in
      let a = hunt true and b = hunt false in
      let name = entry.Patterns_protocols.Registry.name in
      Alcotest.(check bool) (name ^ ": memoized ≡ replayed") true (a = b);
      (* and through the per-root memo, fresh then reused *)
      let base = Db.create () in
      Alcotest.(check bool) (name ^ ": through a fresh memo") true (a = hunt ~base true);
      Alcotest.(check bool) (name ^ ": reused") true (a = hunt ~base true))
    Patterns_protocols.Registry.all

let test_hunt_counters_jobs_invariant () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  (* interactive consistency holds for fig3-chain, so the sweep runs to
     its cap — a full sweep, on which the prefix tallies are
     jobs-invariant *)
  let run jobs =
    let metrics = ref Patterns_search.Metrics.zero in
    let r =
      Patterns_adversary.Hunt.hunt ~metrics ~max_failures:2 ~max_runs:2_000 ~jobs
        ~mode:Patterns_adversary.Hunt.Systematic ~property:Audit.IC ~rule ~n:3 ~seed:0
        entry
    in
    (match r with
    | Error tried -> check Alcotest.int "full sweep" 2_000 tried
    | Ok _ -> Alcotest.fail "unexpected IC violation");
    ( !metrics.Patterns_search.Metrics.prefix_hits,
      !metrics.Patterns_search.Metrics.prefix_states_saved )
  in
  let h1, s1 = run 1 and h4, s4 = run 4 in
  Alcotest.(check bool) "prefix_hits > 0" true (h1 > 0);
  Alcotest.(check bool) "prefix_states_saved > 0" true (s1 > 0);
  check Alcotest.int "hits jobs-invariant" h1 h4;
  check Alcotest.int "saved jobs-invariant" s1 s4

let test_random_mode_stream_untouched () =
  let entry = entry_exn "fig3-chain" in
  let rule = rule_of_registry entry in
  let hunt memo =
    Patterns_adversary.Hunt.hunt ~memo ~max_failures:2 ~max_runs:3_000
      ~mode:Patterns_adversary.Hunt.Random ~property:Audit.TC ~rule ~n:3 ~seed:42 entry
  in
  (* [memo] must be inert in random mode: same draws, same winner, same
     certificate text *)
  Alcotest.(check bool) "random stream draw-for-draw" true (hunt true = hunt false)

(* ----- descriptor cache: bounded fds, counted reopens ----- *)

let test_fd_reopens () =
  let d = Filename.temp_file "patterns-fd" ".d" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d)
    (fun () ->
      let key i = Spill_store.key_of_fingerprint (Fingerprint.feed Fingerprint.seed i) in
      let run cache name i =
        Block_file.create ~cache ~path:(Filename.concat d name) [| (key i, i land max_int) |]
      in
      let probe r i = ignore (Block_file.probe r (key i) : int option) in
      (* two stores' caches: one run in the other store's, probed
         before and after 70 one-record runs of this store fill this
         store's 64-entry cache.  Probing them all once evicts the
         first few here, so probing run 0 again must transparently
         reopen it — and count it — while the other store's descriptor
         stays open *)
      let mine = Block_file.cache () and other = Block_file.cache () in
      let neighbour = run other "other.blk" 1000 in
      probe neighbour 1000;
      let runs =
        Array.init 70 (fun i ->
            let r = run mine (Printf.sprintf "r%02d.blk" i) i in
            probe r i;
            r)
      in
      Alcotest.(check int) "no reopen on first probe" 0 (Block_file.reopens runs.(69));
      probe runs.(0) 0;
      Alcotest.(check int) "evicted run reopened once" 1 (Block_file.reopens runs.(0));
      probe neighbour 1000;
      Alcotest.(check int) "another store's cache untouched" 0 (Block_file.reopens neighbour);
      Array.iter Block_file.close runs;
      Block_file.close neighbour)

let () =
  Alcotest.run "delta"
    [
      ( "classify",
        [
          Alcotest.test_case "registry reuse oracle" `Slow test_registry_reuse;
          Alcotest.test_case "added input vectors" `Quick test_added_inputs;
          Alcotest.test_case "budget gate" `Quick test_budget_gate;
          Alcotest.test_case "jobs x par-mode matrix" `Slow test_matrix_invariance;
          Alcotest.test_case "base keyed by driver" `Quick test_base_keyed_by_driver;
          Alcotest.test_case "unsealable facts recomputed" `Quick
            test_unsealable_facts_recomputed;
          Alcotest.test_case "retired fact kind recomputed" `Quick
            test_retired_kind_recomputed;
          Alcotest.test_case "live-state limit gate" `Quick test_live_limit_gate;
        ] );
      ( "scheme",
        [ Alcotest.test_case "registry reuse oracle" `Slow test_scheme_registry_reuse ] );
      ( "hunt",
        [
          Alcotest.test_case "memo oracle (registry)" `Slow test_hunt_memo_oracle;
          Alcotest.test_case "counters jobs-invariant" `Quick
            test_hunt_counters_jobs_invariant;
          Alcotest.test_case "random stream untouched" `Quick
            test_random_mode_stream_untouched;
        ] );
      ( "fd_cache", [ Alcotest.test_case "reopens counted" `Quick test_fd_reopens ] );
    ]
