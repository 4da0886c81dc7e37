(* Reproduction harness: one section per artifact of the paper
   (Figures 1-4, Theorem 2 / Corollary 6, Theorem 7, the closing
   lattice diagram), followed by Bechamel timings of the underlying
   machinery.  EXPERIMENTS.md records this output against the paper's
   claims.  End-to-end performance is measured by bench/perf, the
   benchmark BENCHMARK.json declares, not here.

     dune exec bench/main.exe *)

open Patterns_sim
open Patterns_pattern
open Patterns_core
open Patterns_stdx

let wall f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  let t1 = Monotonic_clock.now () in
  (r, Int64.to_float (Int64.sub t1 t0) /. 1e9)

let section title =
  Format.printf "@.============================================================@.";
  Format.printf "== %s@." title;
  Format.printf "============================================================@."

let scheme_of (module P : Protocol.S) ~n =
  let module S = Scheme.Make (P) in
  S.scheme ~n ()

let pattern_profile pats =
  Pattern.Set.elements pats
  |> List.map (fun p -> Pattern.message_count p)
  |> List.sort Int.compare

(* ----- Figure 1 ----- *)

let fig1_section () =
  section "Figure 1: the WT-TC tree protocol (7 processors)";
  let (module P) = Patterns_protocols.Tree_proto.fig1 in
  let module E = Engine.Make (P) in
  let run inputs = E.run ~scheduler:E.fifo_scheduler ~n:7 ~inputs () in
  let commit = run (List.init 7 (fun _ -> true)) in
  let abort = run [ true; true; true; false; true; true; true ] in
  Format.printf "all-ones run:   %d messages, everyone commits: %b@."
    (Trace.message_count commit.E.trace)
    (List.for_all (fun (_, d) -> Decision.equal d Decision.Commit) (Trace.decisions commit.E.trace));
  Format.printf "one-zero run:   %d messages (0-leaf skipped in the down phase), everyone aborts: %b@."
    (Trace.message_count abort.E.trace)
    (List.for_all (fun (_, d) -> Decision.equal d Decision.Abort) (Trace.decisions abort.E.trace));
  let pats, stats = scheme_of (module P) ~n:7 in
  Format.printf "scheme: %d patterns over 128 input vectors [%a]@." (Pattern.Set.cardinal pats)
    Scheme.pp_stats stats;
  Format.printf "  (expected 17: the commit pattern + one abort pattern per subset of 0-leaves)@.";
  let audit =
    Audit.random_audit ~max_failures:2 ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:7
      ~runs:200 ~seed:1984 (module P : Protocol.S)
  in
  Format.printf "failure audit (200 random runs, <=2 crashes): %a@." Audit.pp audit;
  Format.printf "@.%a@." Theorems.pp_evidence (Theorems.theorem8_forward ())

(* ----- Figure 2 ----- *)

let fig2_section () =
  section "Figure 2: the HT-IC centralized protocol";
  let v =
    Classify.classify ~max_failures:1 ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3
      Patterns_protocols.Central_proto.fig2
  in
  Format.printf "exhaustive classification (n=3, one crash anywhere):@.%a@." Classify.pp v;
  Format.printf "@.%a@." Theorems.pp_evidence (Theorems.theorem8_converse ())

(* ----- Figure 3 ----- *)

let fig3_section () =
  section "Figure 3: the WT-IC chain protocol";
  let pats, _ = scheme_of Patterns_protocols.Chain_proto.fig3 ~n:4 in
  Format.printf "scheme: %d pattern(s) — the paper: \"the only failure-free pattern\"@."
    (Pattern.Set.cardinal pats);
  (match Pattern.Set.elements pats with
  | [ p ] ->
    Format.printf "  %d messages, height %d (votes star into p0, then the decision chain)@."
      (Pattern.message_count p) (Pattern.height p)
  | _ -> ());
  let v =
    Classify.classify ~max_failures:1 ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3
      Patterns_protocols.Chain_proto.fig3
  in
  Format.printf "exhaustive classification (n=3, one crash anywhere):@.%a@." Classify.pp v;
  Format.printf "@.%a@." Theorems.pp_evidence (Theorems.theorem13_ic ())

(* ----- Figure 4 ----- *)

let fig4_section () =
  section "Figure 4: the four-pattern WT-TC protocol";
  let pats, stats = scheme_of Patterns_protocols.Perverse_proto.fig4 ~n:4 in
  Format.printf "scheme: %d patterns, message counts %s [%a]@." (Pattern.Set.cardinal pats)
    (String.concat ", " (List.map string_of_int (pattern_profile pats)))
    Scheme.pp_stats stats;
  Format.printf "  (expected: 17 base / 18 with m1 / 18 with m2 / 20 with m1,m2,m3)@.";
  let st_pats, _ = scheme_of Patterns_protocols.Perverse_proto.fig4_amnesic ~n:4 in
  Format.printf "amnesic ST attempt: %d patterns, counts %s — equal schemes: %b@."
    (Pattern.Set.cardinal st_pats)
    (String.concat ", " (List.map string_of_int (pattern_profile st_pats)))
    (Scheme.equal_schemes pats st_pats);
  Format.printf "@.%a@." Theorems.pp_evidence (Theorems.theorem13_tc ())

(* ----- Theorem 2 / Corollary 6: the classification table ----- *)

let classification_section () =
  section "Theorem 2 and Corollary 6: exhaustive classification at n=3 (one crash anywhere)";
  let rows =
    [
      ("fig2-central", Patterns_protocols.Central_proto.fig2, Patterns_protocols.Decision_rule.Unanimity);
      ("fig3-chain", Patterns_protocols.Chain_proto.fig3, Patterns_protocols.Decision_rule.Unanimity);
      ("fig3-chain-st", Patterns_protocols.Chain_proto.fig3_amnesic, Patterns_protocols.Decision_rule.Unanimity);
      ("2pc", Patterns_protocols.Two_phase_commit.default, Patterns_protocols.Decision_rule.Unanimity);
      ("coop-2pc [S81]", Patterns_protocols.Coop_2pc.default, Patterns_protocols.Decision_rule.Unanimity);
      ("d2pc", Patterns_protocols.Decentralized_commit.default, Patterns_protocols.Decision_rule.Unanimity);
      ("reliable-bcast", Patterns_protocols.Reliable_broadcast.default, Patterns_protocols.Decision_rule.Broadcast 0);
      ("tree-2pc [ML]", Patterns_protocols.Tree_commit.star 3, Patterns_protocols.Decision_rule.Unanimity);
      ("3pc (tree)", Patterns_protocols.Tree_proto.three_phase_commit 3, Patterns_protocols.Decision_rule.Unanimity);
      ("voting thr-2", Patterns_protocols.Voting_tree.threshold_star ~k:2 3, Patterns_protocols.Decision_rule.Threshold 2);
      ("voting set{0,2}", Patterns_protocols.Voting_tree.subset_star ~quorum:[ 0; 2 ] 3, Patterns_protocols.Decision_rule.Subset [ 0; 2 ]);
      ("termination", Patterns_protocols.Termination_proto.default, Patterns_protocols.Decision_rule.Threshold 1);
    ]
  in
  let table =
    Table.create
      ~headers:
        [
          ("protocol", Table.Left); ("IC", Table.Left); ("TC", Table.Left); ("WT", Table.Left);
          ("ST", Table.Left); ("HT", Table.Left); ("safe states", Table.Left);
          ("cor. 6", Table.Left); ("solves", Table.Left); ("configs", Table.Right);
        ]
  in
  let yn b = if b then "yes" else "-" in
  List.iter
    (fun (name, p, rule) ->
      let v = Classify.classify ~max_failures:1 ~rule ~n:3 p in
      Table.add_row table
        [
          name; yn v.Classify.ic; yn v.Classify.tc; yn v.Classify.wt; yn v.Classify.st;
          yn v.Classify.ht; yn v.Classify.all_states_safe; yn v.Classify.corollary6;
          (match Classify.best_problem v with None -> "none" | Some pb -> Taxonomy.short_name pb);
          string_of_int v.Classify.configs;
        ])
    rows;
  Table.print table;
  print_endline
    "\nPaper's predictions: exactly the TC protocols have all states safe (Theorem 2)\n\
     and satisfy Corollary 6 -- under every decision rule of Section 2; Figure 2 is\n\
     HT-IC; the chain and the [ML] tree commit are WT-IC; the tree family is WT-TC;\n\
     the Appendix protocol run standalone is HT-TC.  Cooperative 2PC sits outside\n\
     the six problems entirely: IC and TC hold but WT fails -- it blocks rather\n\
     than guess, and its blocked states are exactly its unsafe states.";
  (* the literal C(s) of Section 3, materialized *)
  let (module P3) = Patterns_protocols.Tree_proto.three_phase_commit 3 in
  let module C = Concurrency.Make (P3) in
  Format.printf "@.concurrency sets of 3pc (n=3, one crash): %a@." C.pp_summary (C.build ~n:3 ())

(* ----- Theorem 7 ----- *)

let theorem7_section () =
  section "Theorem 7: WT-TC within O(N^2) steps per processor";
  let evidence, measurements = Theorems.theorem7 () in
  let table =
    Table.create
      ~headers:
        [ ("N", Table.Right); ("steps/processor", Table.Right); ("2N(N-1)", Table.Right) ]
  in
  List.iter
    (fun (n, s) ->
      Table.add_row table
        [ string_of_int n; string_of_int (int_of_float s); string_of_int (2 * n * (n - 1)) ])
    measurements;
  Table.print table;
  Format.printf "@.%a@." Theorems.pp_evidence evidence;
  Format.printf "@.%a@." Theorems.pp_evidence (Theorems.appendix_anomaly ~max_configs:2_000_000 ())

(* ----- the lattice ----- *)

let lattice_section evidences =
  section "The closing diagram: the six-problem lattice";
  Format.printf "%a@." Lattice.pp_verified (Lattice.verify evidences)

(* ----- total-communication transform ----- *)

let totalcomm_section () =
  section "Section 3: the total-communication transformation";
  let base = Patterns_protocols.Perverse_proto.fig4 in
  let (module B) = base in
  let module SB = Scheme.Make (B) in
  let base_pats, _ = SB.patterns_for_inputs ~n:4 ~inputs:[ true; true; true; true ] () in
  let (module T) = Patterns_protocols.Total_comm.transform base in
  let module ST = Scheme.Make (T) in
  let tc_pats, stats = ST.patterns_for_inputs ~n:4 ~inputs:[ true; true; true; true ] () in
  Format.printf
    "fig4 all-ones scheme: %d patterns; after the transform: %d patterns [%a]@."
    (Pattern.Set.cardinal base_pats) (Pattern.Set.cardinal tc_pats) Scheme.pp_stats stats;
  Format.printf "transformed scheme within the original (as the paper claims): %b@."
    (Scheme.subscheme tc_pats base_pats)

(* ----- message-complexity sweep ----- *)

let complexity_section () =
  section "Message complexity of the commitment family (failure-free, all-ones)";
  let table =
    Table.create
      ~headers:
        [ ("n", Table.Right); ("2pc", Table.Right); ("d2pc", Table.Right); ("3pc", Table.Right);
          ("chain", Table.Right); ("central", Table.Right); ("termination", Table.Right) ]
  in
  List.iter
    (fun n ->
      let count p =
        let (module P : Protocol.S) = p in
        let module E = Engine.Make (P) in
        let r = E.run ~scheduler:E.fifo_scheduler ~n ~inputs:(List.init n (fun _ -> true)) () in
        string_of_int (Trace.message_count r.E.trace)
      in
      Table.add_row table
        [
          string_of_int n;
          count Patterns_protocols.Two_phase_commit.default;
          count Patterns_protocols.Decentralized_commit.default;
          count (Patterns_protocols.Tree_proto.three_phase_commit n);
          count Patterns_protocols.Chain_proto.fig3;
          count Patterns_protocols.Central_proto.fig2;
          count Patterns_protocols.Termination_proto.default;
        ])
    [ 3; 5; 8; 12; 16 ];
  Table.print table;
  print_endline
    "\n2(n-1) for 2PC and the chain; n(n-1) for decentralized votes and per round of\n\
     the termination protocol; 4(n-1) for 3PC; ~3(n-1)+(n-1)(n-2) for Figure 2's\n\
     rebroadcasts — the price of each rung of the lattice, in messages."

(* ----- the execution database: replay from the index ----- *)

let execution_db_section () =
  section "Execution database: replay from the index vs. replay by search";
  let module Hunt = Patterns_adversary.Hunt in
  let module Replay = Patterns_adversary.Replay in
  let module Metrics = Patterns_search.Metrics in
  let module Db = Patterns_db.Db in
  let entry =
    match Patterns_protocols.Registry.find "fig3-chain-st" with
    | Some e -> e
    | None -> failwith "registry lost fig3-chain-st"
  in
  Format.printf
    "One recording replay fills the edge log; after that the replay walk reads,@.\
     per directive, the recorded successors of the current configuration (one@.\
     adjacency of the dense-id edge store, filtered on the directive) plus a@.\
     fact-store verdict lookup — zero engine plays (states_expanded = 0, pinned@.\
     in test/cram/query.t).  It is not the faster replay: rendering and looking@.\
     up each directive costs more than the engine step it skips, so db/live@.\
     stays above 1 at both sizes below.  What the index buys is the zero.@.@.";
  let reps = 200 in
  let table =
    Table.create
      ~headers:
        [ ("instance", Table.Left); ("directives", Table.Right);
          ("replays", Table.Right); ("live us/replay", Table.Right);
          ("db us/replay", Table.Right); ("db/live", Table.Right);
          ("engine plays (db)", Table.Right) ]
  in
  let ok = ref true in
  List.iter
    (fun n ->
      match
        Hunt.hunt ~max_failures:2 ~max_runs:5_000 ~mode:Hunt.Systematic
          ~property:Patterns_core.Audit.Agreement
          ~rule:Patterns_protocols.Decision_rule.Unanimity ~n ~seed:0 entry
      with
      | Error tried -> Format.kasprintf failwith "no violation in %d runs" tried
      | Ok cert ->
        let steps = List.length cert.Patterns_adversary.Cert.script in
        let db = Db.create () in
        let baseline = Replay.replay ~db cert in
        let (), live_s =
          wall (fun () -> for _ = 1 to reps do ignore (Replay.replay cert) done)
        in
        let (), db_s =
          wall (fun () -> for _ = 1 to reps do ignore (Replay.replay ~db cert) done)
        in
        let v, m = Replay.replay_metrics ~db cert in
        ok := !ok && v = baseline && m.Metrics.states_expanded = 0;
        let us secs = Format.asprintf "%.1f" (secs /. float_of_int reps *. 1e6) in
        Table.add_row table
          [ Format.asprintf "fig3-chain-st n=%d" n; string_of_int steps;
            string_of_int reps; us live_s; us db_s;
            Format.asprintf "%.2fx" (db_s /. live_s);
            string_of_int m.Metrics.states_expanded ])
    [ 4; 6 ];
  Table.print table;
  Format.printf "@.db verdicts identical to live, zero engine plays: %b@." !ok

(* ----- latency: the lattice in wall-clock terms ----- *)

let latency_section () =
  section "Simulated latency: critical path vs. problem strength";
  Format.printf
    "Unit step cost, per-message delays ~ U(5,15), seed 42; fair FIFO schedule.@.@.";
  let table =
    Table.create
      ~headers:
        [
          ("protocol", Table.Left); ("solves", Table.Left); ("height", Table.Right);
          ("completion", Table.Right); ("last decision", Table.Right);
        ]
  in
  let n = 5 in
  let row name solves p =
    let (module P : Protocol.S) = p in
    let module E = Engine.Make (P) in
    let r = E.run ~scheduler:E.fifo_scheduler ~n ~inputs:(List.init n (fun _ -> true)) () in
    let model = Latency.Uniform { lo = 5.0; hi = 15.0 } in
    let t = Latency.evaluate ~seed:42 ~model ~n r.E.trace in
    let last_decision =
      List.fold_left (fun acc (_, w) -> Float.max acc w) 0.0
        (Latency.decision_times ~seed:42 ~model ~n r.E.trace)
    in
    Table.add_row table
      [
        name; solves;
        string_of_int (Latency.critical_path_bound r.E.trace);
        Printf.sprintf "%.1f" t.Latency.completion;
        Printf.sprintf "%.1f" last_decision;
      ]
  in
  row "d2pc" "WT-IC" Patterns_protocols.Decentralized_commit.default;
  row "2pc" "WT-IC" Patterns_protocols.Two_phase_commit.default;
  row "chain" "WT-IC" Patterns_protocols.Chain_proto.fig3;
  row "tree-2pc (star)" "WT-IC" (Patterns_protocols.Tree_commit.star n);
  row "central (fig2)" "HT-IC" Patterns_protocols.Central_proto.fig2;
  row "3pc" "WT-TC" (Patterns_protocols.Tree_proto.three_phase_commit n);
  row "termination" "HT-TC" Patterns_protocols.Termination_proto.default;
  Table.print table;
  print_endline
    "\nLatency is governed by the pattern's height (the longest causal chain):\n\
     total consistency costs two extra sequential hops (bias + ack) over 2PC,\n\
     and the flooding termination protocol pays N rounds.  The lattice, in time."

(* ----- Bechamel timings ----- *)

let bechamel_estimates () =
  let open Bechamel in
  let run_protocol p n =
    Staged.stage (fun () ->
        let (module P : Protocol.S) = p in
        let module E = Engine.Make (P) in
        ignore (E.run ~scheduler:E.fifo_scheduler ~n ~inputs:(List.init n (fun _ -> true)) ()))
  in
  let pattern_extraction =
    let (module P) = Patterns_protocols.Tree_proto.fig1 in
    let module E = Engine.Make (P) in
    let r = E.run ~scheduler:E.fifo_scheduler ~n:7 ~inputs:(List.init 7 (fun _ -> true)) () in
    Staged.stage (fun () -> ignore (Pattern.of_trace r.E.trace))
  in
  let closure =
    let prng = Prng.create ~seed:99 in
    let r = Patterns_order.Relation.create 64 in
    for _ = 1 to 300 do
      let i = Prng.int prng ~bound:63 in
      let j = i + 1 + Prng.int prng ~bound:(63 - i) in
      Patterns_order.Relation.add r i j
    done;
    Staged.stage (fun () -> ignore (Patterns_order.Relation.transitive_closure r))
  in
  let scheme_fig4 =
    Staged.stage (fun () ->
        let (module P) = Patterns_protocols.Perverse_proto.fig4 in
        let module S = Scheme.Make (P) in
        ignore (S.patterns_for_inputs ~n:4 ~inputs:[ true; true; true; true ] ()))
  in
  let tests =
    [
      Test.make ~name:"engine: 2pc n=8 run" (run_protocol Patterns_protocols.Two_phase_commit.default 8);
      Test.make ~name:"engine: 3pc n=8 run" (run_protocol (Patterns_protocols.Tree_proto.three_phase_commit 8) 8);
      Test.make ~name:"engine: fig1 n=7 run" (run_protocol Patterns_protocols.Tree_proto.fig1 7);
      Test.make ~name:"engine: termination n=8 run" (run_protocol Patterns_protocols.Termination_proto.default 8);
      Test.make ~name:"pattern: extract fig1 trace" pattern_extraction;
      Test.make ~name:"order: closure 64x300" closure;
      Test.make ~name:"scheme: fig4 single vector" scheme_fig4;
      Test.make ~name:"engine: voting-tree thr3 n=8 run"
        (run_protocol (Patterns_protocols.Voting_tree.threshold_star ~k:3 8) 8);
      Test.make ~name:"latency: evaluate fig1 trace"
        (let (module P) = Patterns_protocols.Tree_proto.fig1 in
         let module E = Engine.Make (P) in
         let r = E.run ~scheduler:E.fifo_scheduler ~n:7 ~inputs:(List.init 7 (fun _ -> true)) () in
         Staged.stage (fun () ->
             ignore
               (Latency.evaluate ~seed:1 ~model:(Latency.Uniform { lo = 1.0; hi = 9.0 }) ~n:7
                  r.E.trace)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let ols =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]) instance
          results
      in
      Hashtbl.fold
        (fun name result acc ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> (name, Some est) :: acc
          | _ -> (name, None) :: acc)
        ols [])
    tests

let bechamel_section () =
  section "Bechamel timings of the machinery";
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Format.printf "%-32s %12.1f ns/run@." name est
      | None -> Format.printf "%-32s (no estimate)@." name)
    (bechamel_estimates ())

(* ----- entry point ----- *)

let () =
  Format.printf "Patterns of Communication in Consensus Protocols (Dwork & Skeen, PODC 1984)@.";
  Format.printf "Reproduction harness — every figure, the classification table, Theorem 7,@.";
  Format.printf "and the closing lattice, regenerated from the implementation.@.";
  fig1_section ();
  fig2_section ();
  fig3_section ();
  fig4_section ();
  classification_section ();
  theorem7_section ();
  totalcomm_section ();
  latency_section ();
  complexity_section ();
  execution_db_section ();
  let evidences = Theorems.all () in
  lattice_section evidences;
  bechamel_section ();
  section "Summary";
  let all_hold = List.for_all (fun e -> e.Theorems.holds) evidences in
  Format.printf "all theorem witnesses reproduced: %b@." all_hold
