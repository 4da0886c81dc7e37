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

(* A truncated sweep claims only what it witnessed: no problem is
   solved, and every property without a witnessed violation prints
   "?" rather than "yes". *)
let test_classify_truncated_solves_nothing () =
  let v =
    Classify.classify ~max_failures:1 ~max_configs:50
      ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3 Patterns_protocols.Chain_proto.fig3
  in
  Alcotest.(check bool) "truncated" true v.Classify.truncated;
  Alcotest.(check (option string)) "no strongest problem" None
    (Option.map Taxonomy.short_name (Classify.best_problem v));
  List.iter
    (fun p ->
      Alcotest.(check bool) ("solves " ^ Taxonomy.short_name p) false (Classify.solves v p))
    Taxonomy.all_six;
  match String.split_on_char '\n' (Format.asprintf "%a" Classify.pp v) with
  | [ _; properties; best ] ->
    Alcotest.(check string) "properties"
      "  IC=? TC=?  WT=? ST=? HT=?  rule=? validity=? safe-states=NO cor6=NO" properties;
    Alcotest.(check string) "strongest problem" "  strongest problem solved: ?" best
  | lines -> Alcotest.failf "printed %d lines" (List.length lines)

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

(* ----- the whole Explore report, pinned -----

   Every field of the report — counts, truncation, each violation
   message, protocol errors, and each state's printed form, decision,
   co-occurrence flags, [always_all_ones], sorted input vectors and
   occurrence count — digested per protocol and driver at mf=1, jobs 1,
   with the 20 000-configuration cap the registry oracles use (Ben-Or
   is not exhaustible).  The pins guard rewrites of the observation
   fold: any change to what a sweep reports moves a digest. *)

let rule_of_registry entry =
  let open Patterns_protocols in
  if entry.Registry.name = "ben-or" then Decision_rule.Any_input
  else if entry.Registry.name = "reliable-broadcast" then Decision_rule.Broadcast 0
  else if entry.Registry.name = "termination" then Decision_rule.Threshold 1
  else if entry.Registry.name = "voting-star-thr3-5" then Decision_rule.Threshold 3
  else if entry.Registry.name = "voting-star-subset-5" then Decision_rule.Subset [ 0; 1 ]
  else Decision_rule.Unanimity

let report_digest entry par_mode =
  let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
  let module X = Explore.Make (P) in
  let n = if P.valid_n 3 then 3 else entry.Patterns_protocols.Registry.default_n in
  let options =
    { (X.default_options ~n) with X.max_failures = 1; max_configs = 20_000; jobs = 1; par_mode }
  in
  let r = X.explore ~options ~rule:(rule_of_registry entry) ~n () in
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let opt name v = line "%s=%s" name (Option.value v ~default:"-") in
  line "configs=%d terminal=%d truncated=%b" r.X.configs_visited r.X.terminal_configs
    r.X.truncated;
  opt "ic" r.X.ic_violation;
  opt "tc" r.X.tc_violation;
  opt "wt" r.X.wt_violation;
  opt "st" r.X.st_violation;
  opt "ht" r.X.ht_violation;
  opt "rule" r.X.rule_violation;
  opt "validity" r.X.validity_violation;
  List.iter (line "error=%s") r.X.protocol_errors;
  List.iter
    (fun (i : X.state_info) ->
      line "state=%s decision=%s commit=%b abort=%b ones=%b vectors=%s occurrences=%d"
        (Format.asprintf "%a" P.pp_state i.X.state)
        (match i.X.decision with None -> "-" | Some d -> Format.asprintf "%a" Decision.pp d)
        i.X.commit_cooccurs i.X.abort_cooccurs i.X.always_all_ones
        (String.concat "," (List.map string_of_int (List.sort Int.compare i.X.input_vectors)))
        i.X.occurrences)
    r.X.states;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (protocol, layers digest, async digest) *)
let pinned_report_digests =
  [
    ("2pc", "c36a06b0818227043e4bdcc14c6cdacf", "c36a06b0818227043e4bdcc14c6cdacf");
    ("3pc-5", "6d71e0df222fc8d31348bc988436a149", "7ee6b28b73ee1b1c320e149459842f34");
    ("ben-or", "a0237b5fb74bb7b502c2b48930c2ba53", "30a53af11f424e2b40881c8782f2fa98");
    ("coop-2pc", "484153f9307dc56b8029e6417473098e", "884bbdb39da5ee1792c38729a1154695");
    ("d2pc", "bbf63b1f496609f0d87ec534186fff77", "e1193834fea7b1bbc7758e2017815815");
    ("fig1-tree", "418591002194acc4b0de8e946b76bdef", "e711614dc5c7e13f3a889cf8d423e719");
    ("fig1-tree-st", "ac2636b5933ae9c81bce4d19b34754a6", "9f341fbe8dd40728caea6b9c28e041e6");
    ("fig2-central", "76dbec25a8770b318439bad756e2eee8", "76dbec25a8770b318439bad756e2eee8");
    ("fig3-chain", "d29193ee3729e2c50ec2bc823a1eee5d", "9932c02df6a02648fa9a987ec0040edf");
    ("fig3-chain-st", "617484a3ed406eccae005437439743a6", "617484a3ed406eccae005437439743a6");
    ("fig4-perverse", "e216eb470ce34c0213135e40691dec38", "6d77a088d04b06e2dc7e1c322a360c1d");
    ("fig4-perverse+totalcomm", "bb4bf3264c6da7448b29ddfc643f3eda", "8f53930dbe4a3a7d3180dad837452d0b");
    ("fig4-perverse-st", "e216eb470ce34c0213135e40691dec38", "09c1db8b1cc2554ca14b5102e3809a7d");
    ("reliable-broadcast", "0a69c3cd4acaa216d4e071033b73e36d", "0e161cd53226f158d7ad44fd0f2f40e2");
    ("termination", "6d77965b8cb64f0d920d6f06b3cdf559", "59654ad2693ec31e5d21b7d9d23f48a4");
    ("tree-2pc", "432eb7acded166043dc543814d048bab", "5d3eddadcc67d76454834a1fe1c36f3b");
    ("tree-2pc-star-5", "21902633a159d8d20d36ac05d3e58da4", "b72d06e34c75e94779f44dbb9eee8960");
    ("voting-star-subset-5", "3959dbefd22d8d319b3a7a82bfe57517", "fda5a1dc57d5ebe151a729b37fe91bc4");
    ("voting-star-thr3-5", "e5c0f0e86c62890459ffb023a1491118", "2fc7b3f87124c8c70e527944d46b5e38");
  ]

let test_report_digests () =
  List.iter
    (fun entry ->
      let name = entry.Patterns_protocols.Registry.name in
      let layers = report_digest entry Patterns_search.Search.Layers
      and async = report_digest entry Patterns_search.Search.Async in
      match List.find_opt (fun (n, _, _) -> n = name) pinned_report_digests with
      | None -> Alcotest.failf "no pinned digest for %s: (%S, %S, %S)" name name layers async
      | Some (_, l, a) ->
        Alcotest.(check string) (name ^ " layers") l layers;
        Alcotest.(check string) (name ^ " async") a async)
    Patterns_protocols.Registry.all

(* ----- concurrency sets ----- *)

let test_concurrency_sets () =
  let registry name =
    match Patterns_protocols.Registry.find name with
    | Some e -> e.Patterns_protocols.Registry.protocol
    | None -> Alcotest.failf "registry lost %s" name
  in
  List.iter
    (fun (name, (module P : Protocol.S)) ->
      let module C = Concurrency.Make (P) in
      let module X = Explore.Make (P) in
      let t = C.build ~n:3 () in
      Alcotest.(check bool) (name ^ ": not truncated") false (C.truncated t);
      (* cross-check against the explorer's states and its decision
         co-occurrence flags, on both sides *)
      let options = X.default_options ~n:3 in
      let r = X.explore ~options ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3 () in
      Alcotest.(check int) (name ^ ": state count") (List.length r.X.states) (C.state_count t);
      let in_cs decision (info : X.state_info) =
        List.exists
          (fun s -> (P.status s).Status.decision = Some decision)
          (C.concurrency_set t info.X.state)
      in
      List.iter
        (fun (info : X.state_info) ->
          if
            in_cs Decision.Commit info <> info.X.commit_cooccurs
            || in_cs Decision.Abort info <> info.X.abort_cooccurs
          then
            Alcotest.failf "%s: concurrency/explorer disagree on %a" name P.pp_state
              info.X.state)
        r.X.states)
    [
      ("3pc", Patterns_protocols.Tree_proto.three_phase_commit 3);
      ("fig3-chain", registry "fig3-chain");
      ("coop-2pc", registry "coop-2pc");
      ("2pc", registry "2pc");
      ("fig2-central", registry "fig2-central");
    ]

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
          Alcotest.test_case "truncated solves nothing" `Quick
            test_classify_truncated_solves_nothing;
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
          Alcotest.test_case "explore report digests" `Slow test_report_digests;
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
