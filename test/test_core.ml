(* Tests for the analysis layer: taxonomy, checkers, exploration,
   classification, theorem witnesses and the lattice. *)

open Patterns_sim
open Patterns_core

(* ----- taxonomy ----- *)

let test_taxonomy_implications () =
  let open Taxonomy in
  Alcotest.(check bool) "TC implies IC" true (consistency_implies TC IC);
  Alcotest.(check bool) "IC does not imply TC" false (consistency_implies IC TC);
  Alcotest.(check bool) "HT implies WT" true (termination_implies HT WT);
  Alcotest.(check bool) "WT does not imply ST" false (termination_implies WT ST)

let test_taxonomy_theorem1 () =
  let open Taxonomy in
  (* Theorem 1: T-IC <= T-TC and WT-C <= ST-C <= HT-C *)
  List.iter
    (fun t ->
      Alcotest.(check bool) "T-IC <= T-TC" true (trivially_reduces (make IC t) (make TC t)))
    [ WT; ST; HT ];
  List.iter
    (fun c ->
      Alcotest.(check bool) "WT-C <= ST-C" true (trivially_reduces (make c WT) (make c ST));
      Alcotest.(check bool) "ST-C <= HT-C" true (trivially_reduces (make c ST) (make c HT)))
    [ IC; TC ];
  Alcotest.(check bool) "HT-IC and WT-TC incomparable (trivial direction)" false
    (trivially_reduces (make IC HT) (make TC WT) || trivially_reduces (make TC WT) (make IC HT))

let test_taxonomy_names () =
  Alcotest.(check string) "short name" "WT-TC" (Taxonomy.short_name Taxonomy.(make TC WT));
  Alcotest.(check int) "six problems" 6 (List.length Taxonomy.all_six)

(* ----- trace checkers on hand-built traces ----- *)

let decided step proc decision = Trace.Decided { step; proc; decision }
let failed step proc = Trace.Failed_proc { step; proc }
let amnesic step proc = Trace.Became_amnesic { step; proc }

let test_check_tc () =
  Alcotest.(check bool) "agreeing trace ok" true
    (Result.is_ok
       (Check.total_consistency [ decided 0 0 Decision.Commit; decided 1 1 Decision.Commit ]));
  Alcotest.(check bool) "disagreeing trace violated" true
    (Result.is_error
       (Check.total_consistency [ decided 0 0 Decision.Commit; decided 1 1 Decision.Abort ]));
  Alcotest.(check bool) "dead decider still counts" true
    (Result.is_error
       (Check.total_consistency
          [ decided 0 0 Decision.Commit; failed 1 0; decided 2 1 Decision.Abort ]))

let test_check_ic () =
  (* conflicting decisions, but the first decider fails in between: IC holds *)
  let trace = [ decided 0 0 Decision.Commit; failed 1 0; decided 2 1 Decision.Abort ] in
  Alcotest.(check bool) "ic tolerates dead deciders" true
    (Result.is_ok (Check.interactive_consistency trace));
  let live = [ decided 0 0 Decision.Commit; decided 1 1 Decision.Abort ] in
  Alcotest.(check bool) "ic catches live conflict" true
    (Result.is_error (Check.interactive_consistency live));
  (* amnesia vacates the decision state *)
  let amn = [ decided 0 0 Decision.Commit; amnesic 1 0; decided 2 1 Decision.Abort ] in
  Alcotest.(check bool) "amnesia hides the conflict from IC" true
    (Result.is_ok (Check.interactive_consistency amn));
  Alcotest.(check bool) "but not from nonfaulty agreement" true
    (Result.is_error (Check.nonfaulty_agreement amn))

let test_check_rule_and_validity () =
  let inputs = [ true; true ] in
  Alcotest.(check bool) "commit on all ones ok" true
    (Result.is_ok (Check.decision_rule Patterns_protocols.Decision_rule.Unanimity ~inputs
         [ decided 0 0 Decision.Commit ]));
  Alcotest.(check bool) "abort without failure violates" true
    (Result.is_error
       (Check.decision_rule Patterns_protocols.Decision_rule.Unanimity ~inputs
          [ decided 0 0 Decision.Abort ]));
  Alcotest.(check bool) "abort after failure ok" true
    (Result.is_ok
       (Check.decision_rule Patterns_protocols.Decision_rule.Unanimity ~inputs
          [ failed 0 1; decided 1 0 Decision.Abort ]));
  Alcotest.(check bool) "validity flags wrong decision" true
    (Result.is_error
       (Check.validity Patterns_protocols.Decision_rule.Unanimity ~inputs
          [ decided 0 0 Decision.Abort ]))

let test_check_terminations () =
  let statuses = [| Status.decided Decision.Commit; Status.decided_halted Decision.Commit |] in
  let ever = [| Some Decision.Commit; Some Decision.Commit |] in
  let failed = [| false; false |] in
  Alcotest.(check bool) "wt ok" true
    (Result.is_ok (Check.weak_termination ~quiescent:true ~statuses ~ever_decided:ever ~failed));
  Alcotest.(check bool) "ht fails (p0 listening)" true
    (Result.is_error
       (Check.halting_termination ~quiescent:true ~statuses ~ever_decided:ever ~failed));
  Alcotest.(check bool) "wt fails when not quiescent" true
    (Result.is_error (Check.weak_termination ~quiescent:false ~statuses ~ever_decided:ever ~failed));
  let undecided = [| None; Some Decision.Commit |] in
  Alcotest.(check bool) "wt fails with undecided nonfaulty" true
    (Result.is_error
       (Check.weak_termination ~quiescent:true ~statuses ~ever_decided:undecided ~failed));
  Alcotest.(check bool) "wt ok when the undecided one failed" true
    (Result.is_ok
       (Check.weak_termination ~quiescent:true ~statuses ~ever_decided:undecided
          ~failed:[| true; false |]))

(* ----- exploration and classification ----- *)

let classify_n3 protocol =
  Classify.classify ~max_failures:1 ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3 protocol

let test_classify_fig2_is_ht_ic () =
  let v = classify_n3 Patterns_protocols.Central_proto.fig2 in
  Alcotest.(check bool) "ic" true v.Classify.ic;
  Alcotest.(check bool) "not tc" false v.Classify.tc;
  Alcotest.(check bool) "ht" true v.Classify.ht;
  Alcotest.(check bool) "unsafe states exist" false v.Classify.all_states_safe;
  Alcotest.(check (option string)) "strongest problem" (Some "HT-IC")
    (Option.map Taxonomy.short_name (Classify.best_problem v))

let test_classify_3pc_is_wt_tc () =
  let v = classify_n3 (Patterns_protocols.Tree_proto.three_phase_commit 3) in
  Alcotest.(check bool) "tc" true v.Classify.tc;
  Alcotest.(check bool) "wt" true v.Classify.wt;
  Alcotest.(check bool) "not ht" false v.Classify.ht;
  Alcotest.(check bool) "all states safe (Theorem 2)" true v.Classify.all_states_safe;
  Alcotest.(check bool) "corollary 6" true v.Classify.corollary6;
  Alcotest.(check (option string)) "strongest problem" (Some "WT-TC")
    (Option.map Taxonomy.short_name (Classify.best_problem v))

let test_classify_chain_is_wt_ic () =
  let v = classify_n3 Patterns_protocols.Chain_proto.fig3 in
  Alcotest.(check bool) "ic" true v.Classify.ic;
  Alcotest.(check bool) "not tc" false v.Classify.tc;
  Alcotest.(check bool) "wt" true v.Classify.wt;
  Alcotest.(check bool) "unsafe states exist (not TC)" false v.Classify.all_states_safe

let test_classify_2pc_not_tc () =
  let v = classify_n3 Patterns_protocols.Two_phase_commit.default in
  Alcotest.(check bool) "ic" true v.Classify.ic;
  Alcotest.(check bool) "not tc (blocking window)" false v.Classify.tc;
  Alcotest.(check bool) "wt" true v.Classify.wt

let test_classify_termination_is_ht_tc () =
  (* paper model: unordered failure notices *)
  let v =
    Classify.classify ~max_failures:1 ~rule:(Patterns_protocols.Decision_rule.Threshold 1) ~n:3
      Patterns_protocols.Termination_proto.default
  in
  Alcotest.(check bool) "tc" true v.Classify.tc;
  Alcotest.(check bool) "ht" true v.Classify.ht;
  Alcotest.(check bool) "rule ok" true v.Classify.rule_ok;
  (* under the fail-stop (fifo) notice discipline, Theorem 2 safety
     also holds — see Theorems.appendix_anomaly for the contrast *)
  let v' =
    Classify.classify ~max_failures:1 ~fifo_notices:true
      ~rule:(Patterns_protocols.Decision_rule.Threshold 1) ~n:3
      Patterns_protocols.Termination_proto.default
  in
  Alcotest.(check bool) "all states safe under fifo notices" true v'.Classify.all_states_safe

let test_appendix_anomaly () =
  (* capped exploration: the violation is found quickly; absence under
     fifo notices is checked within the same budget *)
  let e = Theorems.appendix_anomaly ~max_configs:2_000_000 () in
  if not e.Theorems.holds then
    Alcotest.fail (Format.asprintf "%a" Theorems.pp_evidence e)

let test_explore_failure_free_fig4 () =
  let (module P) = Patterns_protocols.Perverse_proto.fig4 in
  let module X = Explore.Make (P) in
  let options = { (X.default_options ~n:4) with X.max_failures = 0 } in
  let r = X.explore ~options ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:4 () in
  Alcotest.(check bool) "no violations failure-free" true
    (r.X.ic_violation = None && r.X.tc_violation = None && r.X.wt_violation = None
   && r.X.validity_violation = None);
  Alcotest.(check bool) "complete" false r.X.truncated

(* ----- randomized audits ----- *)

let test_audit_tc_protocols_clean () =
  List.iter
    (fun (name, p, n, rule, fifo_notices) ->
      let report = Audit.random_audit ~max_failures:2 ~fifo_notices ~rule ~n ~runs:120 ~seed:7 p in
      if not (Audit.clean report) then
        Alcotest.fail (Format.asprintf "%s audit unclean: %a" name Audit.pp report))
    [
      ("fig1", Patterns_protocols.Tree_proto.fig1, 7, Patterns_protocols.Decision_rule.Unanimity, false);
      ("fig4", Patterns_protocols.Perverse_proto.fig4, 4, Patterns_protocols.Decision_rule.Unanimity, false);
      ( "3pc-5",
        Patterns_protocols.Tree_proto.three_phase_commit 5,
        5,
        Patterns_protocols.Decision_rule.Unanimity,
        false );
      (* the standalone Appendix protocol is 2-crash TC only under the
         fail-stop notice discipline — see Theorems.appendix_anomaly *)
      ( "termination",
        Patterns_protocols.Termination_proto.default,
        5,
        Patterns_protocols.Decision_rule.Threshold 1,
        true );
    ]

let test_audit_ic_protocols_keep_agreement () =
  (* IC-only protocols may violate TC but never operational agreement *)
  List.iter
    (fun (name, p, n, rule) ->
      let report = Audit.random_audit ~max_failures:2 ~rule ~n ~runs:120 ~seed:21 p in
      if report.Audit.ic_violations <> 0 || report.Audit.wt_incomplete <> 0
         || report.Audit.rule_violations <> 0 || report.Audit.non_quiescent <> 0 then
        Alcotest.fail (Format.asprintf "%s audit unclean: %a" name Audit.pp report))
    [
      ("fig2", Patterns_protocols.Central_proto.fig2, 4, Patterns_protocols.Decision_rule.Unanimity);
      ("fig3", Patterns_protocols.Chain_proto.fig3, 4, Patterns_protocols.Decision_rule.Unanimity);
      ("2pc", Patterns_protocols.Two_phase_commit.default, 4, Patterns_protocols.Decision_rule.Unanimity);
      ("d2pc", Patterns_protocols.Decentralized_commit.default, 4, Patterns_protocols.Decision_rule.Unanimity);
      ("rbcast", Patterns_protocols.Reliable_broadcast.default, 4, Patterns_protocols.Decision_rule.Broadcast 0);
    ]

(* ----- hunting and state knowledge ----- *)

(* the sampling adversary over a protocol outside the registry's
   default sizes *)
let random_hunt ~max_failures ~max_runs ~n ~seed (module P : Protocol.S) =
  Patterns_adversary.Hunt.hunt ~max_failures ~max_runs ~mode:Patterns_adversary.Hunt.Random
    ~property:Audit.TC ~rule:Patterns_protocols.Decision_rule.Unanimity ~n ~seed
    {
      Patterns_protocols.Registry.name = P.name;
      describe = P.describe;
      default_n = n;
      fixed_n = true;
      protocol = (module P);
    }

let test_hunt_finds_2pc_tc_violation () =
  match
    random_hunt ~max_failures:2 ~max_runs:5_000 ~n:4 ~seed:1984
      Patterns_protocols.Two_phase_commit.default
  with
  | Ok cert ->
    Alcotest.(check bool) "report mentions the violation" true
      (String.length cert.Patterns_adversary.Cert.message > 0)
  | Error tried -> Alcotest.fail (Printf.sprintf "no violation in %d runs" tried)

let test_hunt_respects_tc_protocol () =
  match
    random_hunt ~max_failures:1 ~max_runs:300 ~n:3 ~seed:7
      (Patterns_protocols.Tree_proto.three_phase_commit 3)
  with
  | Ok cert -> Alcotest.fail ("unexpected violation:\n" ^ cert.Patterns_adversary.Cert.message)
  | Error _ -> ()

let test_state_implies () =
  (* fig2's committed coordinator state implies all inputs are 1; its
     waiting participants imply nothing *)
  let (module P) = Patterns_protocols.Central_proto.fig2 in
  let module X = Explore.Make (P) in
  let options = { (X.default_options ~n:3) with X.max_failures = 0 } in
  let r = X.explore ~options ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3 () in
  let committed =
    List.filter (fun (i : X.state_info) -> i.X.decision = Some Decision.Commit) r.X.states
  in
  Alcotest.(check bool) "committed states exist" true (committed <> []);
  List.iter
    (fun info ->
      if not (X.implies ~n:3 info (Array.for_all Fun.id)) then
        Alcotest.fail "a commit state occurs in a run with a 0 input")
    committed;
  let somewhere_unconstrained =
    List.exists
      (fun (i : X.state_info) ->
        i.X.decision = None && not (X.implies ~n:3 i (Array.for_all Fun.id)))
      r.X.states
  in
  Alcotest.(check bool) "some undecided state implies nothing" true somewhere_unconstrained

(* ----- concurrency sets ----- *)

let test_concurrency_sets () =
  let (module P) = Patterns_protocols.Tree_proto.three_phase_commit 3 in
  let module C = Concurrency.Make (P) in
  let module X = Explore.Make (P) in
  let t = C.build ~n:3 () in
  Alcotest.(check bool) "not truncated" false (C.truncated t);
  Alcotest.(check bool) "states found" true (C.state_count t > 100);
  (* cross-check against the explorer's decision co-occurrence *)
  let options = X.default_options ~n:3 in
  let r = X.explore ~options ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3 () in
  List.iter
    (fun (info : X.state_info) ->
      let commit_in_cs =
        List.exists
          (fun s ->
            match (P.status s).Patterns_sim.Status.decision with
            | Some Decision.Commit -> true
            | _ -> false)
          (C.concurrency_set t info.X.state)
      in
      if commit_in_cs <> info.X.commit_cooccurs then
        Alcotest.fail
          (Format.asprintf "concurrency/explorer disagree on %a" P.pp_state info.X.state))
    r.X.states

(* ----- scheme membership: random failure-free runs produce enumerated patterns ----- *)

let test_random_patterns_in_scheme () =
  let (module P) = Patterns_protocols.Perverse_proto.fig4 in
  let module E = Patterns_sim.Engine.Make (P) in
  let module S = Patterns_pattern.Scheme.Make (P) in
  let scheme, _ = S.scheme ~n:4 () in
  for seed = 1 to 40 do
    let prng = Patterns_stdx.Prng.create ~seed in
    let inputs = List.init 4 (fun _ -> Patterns_stdx.Prng.bool prng) in
    let r = E.run ~scheduler:(E.random_scheduler prng) ~n:4 ~inputs () in
    let p = Patterns_pattern.Pattern.of_trace r.E.trace in
    if not (Patterns_pattern.Pattern.Set.mem p scheme) then
      Alcotest.fail (Printf.sprintf "seed %d: run pattern missing from the enumerated scheme" seed)
  done

(* ----- theorem witnesses ----- *)

let check_evidence e =
  if not e.Theorems.holds then
    Alcotest.fail (Format.asprintf "%a" Theorems.pp_evidence e)

let test_theorem8_forward () = check_evidence (Theorems.theorem8_forward ())
let test_theorem8_converse () = check_evidence (Theorems.theorem8_converse ())
let test_theorem13_ic () = check_evidence (Theorems.theorem13_ic ())
let test_theorem13_tc () = check_evidence (Theorems.theorem13_tc ())
let test_corollary11 () = check_evidence (Theorems.corollary11 ())

let test_theorem7 () =
  let e, measurements = Theorems.theorem7 ~sizes:[ 3; 4; 6; 8 ] () in
  check_evidence e;
  Alcotest.(check int) "four measurements" 4 (List.length measurements)

let test_lattice () =
  let evidences = Theorems.all () in
  let verified = Lattice.verify evidences in
  Alcotest.(check int) "nine links" 9 (List.length verified);
  List.iter
    (fun v ->
      if not (v.Lattice.reduction_ok && v.Lattice.witnesses_ok) then
        Alcotest.fail
          (Format.asprintf "link %s-%s not verified"
             (Taxonomy.short_name v.Lattice.link.Lattice.a)
             (Taxonomy.short_name v.Lattice.link.Lattice.b)))
    verified

let () =
  Alcotest.run "core"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "implications" `Quick test_taxonomy_implications;
          Alcotest.test_case "theorem 1" `Quick test_taxonomy_theorem1;
          Alcotest.test_case "names" `Quick test_taxonomy_names;
        ] );
      ( "checkers",
        [
          Alcotest.test_case "total consistency" `Quick test_check_tc;
          Alcotest.test_case "interactive consistency" `Quick test_check_ic;
          Alcotest.test_case "rule and validity" `Quick test_check_rule_and_validity;
          Alcotest.test_case "terminations" `Quick test_check_terminations;
        ] );
      ( "classification",
        [
          Alcotest.test_case "fig2 is HT-IC" `Quick test_classify_fig2_is_ht_ic;
          Alcotest.test_case "3pc is WT-TC" `Quick test_classify_3pc_is_wt_tc;
          Alcotest.test_case "chain is WT-IC" `Quick test_classify_chain_is_wt_ic;
          Alcotest.test_case "2pc is not TC" `Quick test_classify_2pc_not_tc;
          Alcotest.test_case "termination is HT-TC" `Slow test_classify_termination_is_ht_tc;
          Alcotest.test_case "appendix anomaly" `Slow test_appendix_anomaly;
          Alcotest.test_case "fig4 failure-free clean" `Quick test_explore_failure_free_fig4;
        ] );
      ( "audits",
        [
          Alcotest.test_case "TC protocols clean" `Slow test_audit_tc_protocols_clean;
          Alcotest.test_case "IC protocols keep agreement" `Slow test_audit_ic_protocols_keep_agreement;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "hunt finds the 2pc violation" `Slow test_hunt_finds_2pc_tc_violation;
          Alcotest.test_case "hunt respects 3pc" `Quick test_hunt_respects_tc_protocol;
          Alcotest.test_case "state implies" `Quick test_state_implies;
          Alcotest.test_case "concurrency sets" `Slow test_concurrency_sets;
          Alcotest.test_case "random patterns in scheme" `Quick test_random_patterns_in_scheme;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "theorem 8 forward" `Quick test_theorem8_forward;
          Alcotest.test_case "theorem 8 converse" `Quick test_theorem8_converse;
          Alcotest.test_case "theorem 13 (IC)" `Quick test_theorem13_ic;
          Alcotest.test_case "theorem 13 (TC)" `Quick test_theorem13_tc;
          Alcotest.test_case "corollary 11" `Slow test_corollary11;
          Alcotest.test_case "theorem 7" `Quick test_theorem7;
          Alcotest.test_case "lattice" `Slow test_lattice;
        ] );
    ]
