(* Unit tests for the instrumented search kernel: the serial driver's
   layer order, budget truncation, goals, pruning, dedup
   accounting, the per-root sweep and batched goal search. *)

open Patterns_search

let check = Alcotest.check

(* A tiny synthetic graph on ints: successors of [x] are given by a
   table, so tests control branching, sharing and depth exactly.
   [run] is the serial driver with no observations. *)
module Graph (G : sig
  val succs : int -> int list
end) =
struct
  module K = Search.Make (struct
    type state = int

    let compare = Int.compare
    let fingerprint = Patterns_stdx.Fingerprint.of_int
  end)

  let run ?budget ?deadline ?max_live ?is_goal ?prune ~root () =
    let outcome, (), m =
      K.run ?budget ?deadline ?max_live ?is_goal ?prune
        ~expand:{ K.empty = Fun.id; merge = (fun () () -> ()); expand = (fun () x -> G.succs x) }
        ~root ()
    in
    (outcome, m)
end

(* a diamond with a tail: 0 -> {1, 2}, 1 -> 3, 2 -> 3, 3 -> 4 *)
module Diamond = Graph (struct
  let succs = function
    | 0 -> [ 1; 2 ]
    | 1 -> [ 3 ]
    | 2 -> [ 3 ]
    | 3 -> [ 4 ]
    | _ -> []
end)

let test_bfs_order () =
  let seen = ref [] in
  let module G = Graph (struct
    let succs x =
      seen := x :: !seen;
      match x with 0 -> [ 1; 2 ] | 1 -> [ 3; 4 ] | 2 -> [ 5; 6 ] | _ -> []
  end) in
  let outcome, m = G.run ~root:0 () in
  (match outcome with Search.Exhausted -> () | _ -> Alcotest.fail "expected exhausted");
  check Alcotest.int "three layers" 3 m.Metrics.layers;
  (* layer by layer, each layer in the order its states were
     generated: 1 and 2 from 0, then 3 and 4 from 1 before 5 and 6
     from 2 *)
  match List.rev !seen with
  | [ a; b; c; d; e; f; g ] ->
    let layer l want =
      check (Alcotest.list Alcotest.int) "layer members" want (List.sort Int.compare l);
      check (Alcotest.list Alcotest.int) "generation order" want l
    in
    layer [ a ] [ 0 ];
    layer [ b; c ] [ 1; 2 ];
    layer [ d; e; f; g ] [ 3; 4; 5; 6 ]
  | order -> Alcotest.failf "expanded %d states" (List.length order)

let test_dedup_hits () =
  let outcome, m = Diamond.run ~root:0 () in
  (match outcome with Search.Exhausted -> () | _ -> Alcotest.fail "expected exhausted");
  check Alcotest.int "expanded each node once" 5 m.Metrics.states_expanded;
  (* node 3 is generated twice in one layer: the second claim is
     answered by the visited set *)
  check Alcotest.int "one dedup hit" 1 m.Metrics.dedup_hits;
  check Alcotest.int "budget consumed = expanded" m.Metrics.states_expanded
    m.Metrics.budget_consumed

let test_goal_stops () =
  let expanded_after_goal = ref false in
  let module G = Graph (struct
    let succs x =
      if x = 3 then expanded_after_goal := true;
      match x with 0 -> [ 1 ] | 1 -> [ 2 ] | 2 -> [ 3 ] | _ -> []
  end) in
  let outcome, m = G.run ~is_goal:(fun x -> x = 3) ~root:0 () in
  (match outcome with
  | Search.Goal_found 3 -> ()
  | _ -> Alcotest.fail "expected Goal_found 3");
  Alcotest.(check bool) "goal tested before expansion" false !expanded_after_goal;
  check Alcotest.int "goal counted as visited" 4 m.Metrics.states_expanded;
  Alcotest.(check string) "outcome kind" "goal_found"
    (Metrics.outcome_string m.Metrics.outcome)

let test_budget_truncates () =
  let module G = Graph (struct
    let succs x = [ (2 * x) + 1; (2 * x) + 2 ] (* infinite binary tree *)
  end) in
  let outcome, m = G.run ~budget:10 ~root:0 () in
  (match outcome with
  | Search.Truncated (Search.Budget_exhausted { budget = 10; consumed = 10 }) -> ()
  | _ -> Alcotest.fail "expected Truncated at 10");
  check Alcotest.int "expanded = budget" 10 m.Metrics.states_expanded;
  check Alcotest.int "truncated root counted" 1 m.Metrics.truncated_roots;
  Alcotest.(check bool) "truncated predicate" true (Search.truncated outcome)

let test_deadline_truncates () =
  (* a zero deadline fires before the first layer: no hang on an
     infinite graph, one metrics hit, the reason carries the elapsed
     time *)
  let module G = Graph (struct
    let succs x = [ (2 * x) + 1; (2 * x) + 2 ]
  end) in
  let outcome, m = G.run ~deadline:0.0 ~root:0 () in
  (match outcome with
  | Search.Truncated (Search.Deadline_exceeded { deadline; elapsed }) ->
    Alcotest.(check (float 1e-9)) "deadline recorded" 0.0 deadline;
    Alcotest.(check bool) "elapsed nonnegative" true (elapsed >= 0.0)
  | _ -> Alcotest.fail "expected Truncated (Deadline_exceeded _)");
  check Alcotest.int "deadline hit recorded" 1 m.Metrics.deadline_hits;
  check Alcotest.int "nothing expanded" 0 m.Metrics.states_expanded

let test_max_live_truncates () =
  let module G = Graph (struct
    let succs x = [ (2 * x) + 1; (2 * x) + 2 ]
  end) in
  let outcome, m = G.run ~max_live:5 ~root:0 () in
  (match outcome with
  | Search.Truncated (Search.Live_limit_exceeded { limit = 5; live }) ->
    Alcotest.(check bool) "live over the limit" true (live > 5)
  | _ -> Alcotest.fail "expected Truncated (Live_limit_exceeded _)");
  check Alcotest.int "live-limit hit recorded" 1 m.Metrics.live_limit_hits;
  (* a generous limit on a finite graph never fires *)
  let outcome, m = Diamond.run ~max_live:1_000 ~root:0 () in
  (match outcome with Search.Exhausted -> () | _ -> Alcotest.fail "expected exhausted");
  check Alcotest.int "no hit on a finite graph" 0 m.Metrics.live_limit_hits

let test_find_first_deadline () =
  (* deadline 0 stops before any batch: Error 0 and the metrics say
     both truncated and deadline-hit *)
  let metrics = ref Metrics.zero in
  (match
     Search.find_first ~metrics ~jobs:2 ~deadline:0.0 ~max_index:1_000_000
       ~f:(fun _ -> None) ()
   with
  | Error 0 -> ()
  | Error k -> Alcotest.failf "expected Error 0, got Error %d" k
  | Ok _ -> Alcotest.fail "expected no goal");
  check Alcotest.int "deadline hit recorded" 1 !metrics.Metrics.deadline_hits;
  Alcotest.(check string) "outcome is truncated" "truncated"
    (Metrics.outcome_string !metrics.Metrics.outcome)

let test_prune () =
  let module G = Graph (struct
    let succs x = if x >= 4 then [] else [ x + 1; x + 10 ]
  end) in
  let outcome, m = G.run ~prune:(fun x -> x >= 10) ~root:0 () in
  (match outcome with Search.Exhausted -> () | _ -> Alcotest.fail "expected exhausted");
  (* visits 0..4; the four reachable x+10 successors are pruned *)
  check Alcotest.int "expanded" 5 m.Metrics.states_expanded;
  check Alcotest.int "pruned" 4 m.Metrics.pruned;
  (* prune runs before the claim: a pruned successor is never probed *)
  check Alcotest.int "probes" 5 m.Metrics.fingerprint_probes

let test_find_first_smallest () =
  let f i = if i mod 7 = 0 then Some i else None in
  List.iter
    (fun jobs ->
      match Search.find_first ~jobs ~max_index:100 ~f () with
      | Ok 7 -> ()
      | Ok k -> Alcotest.failf "jobs=%d found %d, wanted 7" jobs k
      | Error _ -> Alcotest.failf "jobs=%d found nothing" jobs)
    [ 1; 2; 4 ];
  let metrics = ref Metrics.zero in
  (match Search.find_first ~metrics ~jobs:4 ~max_index:50 ~f:(fun _ -> None) () with
  | Error 50 -> ()
  | _ -> Alcotest.fail "expected Error 50");
  check Alcotest.int "all indices evaluated" 50 !metrics.Metrics.states_expanded;
  Alcotest.(check string) "no goal is a truncated search" "truncated"
    (Metrics.outcome_string !metrics.Metrics.outcome)

let test_metrics_merge_and_json () =
  let _, m1 = Diamond.run ~root:0 () in
  let m = Metrics.merge (Metrics.merge Metrics.zero m1) m1 in
  check Alcotest.int "merge sums" (2 * m1.Metrics.states_expanded) m.Metrics.states_expanded;
  check Alcotest.int "merge maxes peaks" m1.Metrics.frontier_peak m.Metrics.frontier_peak;
  let json = Metrics.to_json ~shards:false m in
  List.iter
    (fun key ->
      let needle = Printf.sprintf "\"%s\":" key in
      let found =
        let ls = String.length json and ln = String.length needle in
        let rec go i = i + ln <= ls && (String.sub json i ln = needle || go (i + 1)) in
        go 0
      in
      if not found then Alcotest.failf "missing %s in %s" key json)
    [ "schema"; "outcome"; "states_expanded"; "dedup_hits"; "frontier_peak"; "pruned";
      "fingerprint_probes"; "collision_fallbacks"; "intern_bindings"; "budget_consumed";
      "roots"; "truncated_roots" ]

(* The per-root sweep: payloads fold and metrics merge in root order,
   tagged with the root index; a resumed sweep replays recorded roots
   without searching them, and a root a deadline cut short is never
   recorded, so it is searched again.  Under a spent deadline every
   root receives a zero allowance. *)
let test_sweep () =
  let file = Filename.temp_file "sweep" ".ckpt" in
  let searched = ref [] in
  let root _pool ~deadline:_ r =
    searched := r :: !searched;
    let _, m = Diamond.run ~root:0 () in
    (r, if r = 2 then { m with Metrics.deadline_hits = 1 } else m)
  in
  let sweep resume =
    let metrics = ref Metrics.zero in
    let checkpoint = ({ Checkpoint.file; resume; kill_after = None }, "sweep-test") in
    let acc =
      Search.sweep ~metrics ~checkpoint ~jobs:1 Search.Layers ~root
        ~merge:(fun acc r -> r :: acc) [] [ 0; 1; 2 ]
    in
    (List.rev acc, !metrics)
  in
  let ints = Alcotest.(list int) in
  let fresh, m = sweep false in
  check ints "payloads in root order" [ 0; 1; 2 ] fresh;
  check ints "root indices" [ 0; 1; 2 ]
    (List.map (fun (s : Metrics.shard) -> s.root) m.Metrics.shards);
  check Alcotest.int "metrics merged" 15 m.Metrics.states_expanded;
  searched := [];
  let resumed, m' = sweep true in
  check ints "resumed payloads" [ 0; 1; 2 ] resumed;
  check ints "only the deadline-cut root searched again" [ 2 ] !searched;
  check Alcotest.int "resumed metrics" m.Metrics.states_expanded m'.Metrics.states_expanded;
  Sys.remove file;
  let allowances =
    Search.sweep ~deadline:0.0 ~jobs:1 Search.Async
      ~root:(fun _ ~deadline () -> (deadline, Metrics.zero))
      ~merge:(fun acc d -> d :: acc) [] [ (); () ]
  in
  Alcotest.(check (list (option (float 0.)))) "zero allowance" [ Some 0.; Some 0. ] allowances

let () =
  Alcotest.run "search"
    [
      ( "kernel",
        [
          Alcotest.test_case "bfs order" `Quick test_bfs_order;
          Alcotest.test_case "dedup hits" `Quick test_dedup_hits;
          Alcotest.test_case "goal stops" `Quick test_goal_stops;
          Alcotest.test_case "budget truncates" `Quick test_budget_truncates;
          Alcotest.test_case "deadline truncates" `Quick test_deadline_truncates;
          Alcotest.test_case "max-live truncates" `Quick test_max_live_truncates;
          Alcotest.test_case "find_first deadline" `Quick test_find_first_deadline;
          Alcotest.test_case "prune" `Quick test_prune;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "find_first smallest" `Quick test_find_first_smallest;
          Alcotest.test_case "metrics merge and json" `Quick test_metrics_merge_and_json;
          Alcotest.test_case "sweep" `Quick test_sweep;
        ] );
    ]
