(* Behavioural tests for every protocol implementation. *)

open Patterns_sim
open Patterns_protocols

let ones n = List.init n (fun _ -> true)

let run_fifo (module P : Protocol.S) ?(failures = []) n inputs =
  let module E = Engine.Make (P) in
  let r = E.run ~failures ~scheduler:E.fifo_scheduler ~n ~inputs () in
  ( r.E.quiescent,
    Trace.message_count r.E.trace,
    Trace.decisions r.E.trace,
    Array.to_list (E.statuses r.E.final) )

let blocking_by_design e = e.Registry.name = "coop-2pc"

(* the ST "attempt" variants exist to demonstrate Theorem 13's
   impossibility: they are expected to lose nonfaulty agreement under
   the right crash schedule *)
let doomed_by_design e =
  List.mem e.Registry.name [ "fig3-chain-st"; "fig4-perverse-st" ]

let all_decide expected decisions n_nonfaulty =
  List.length decisions = n_nonfaulty
  && List.for_all (fun (_, d) -> Decision.equal d expected) decisions

(* ----- Tree shapes ----- *)

let test_tree_shapes () =
  let t = Tree.binary 7 in
  Alcotest.(check int) "root" 0 (Tree.root t);
  Alcotest.(check (list int)) "children of 0" [ 1; 2 ] (Tree.children t 0);
  Alcotest.(check (list int)) "children of 2" [ 5; 6 ] (Tree.children t 2);
  Alcotest.(check bool) "p3 is leaf" true (Tree.is_leaf t 3);
  Alcotest.(check bool) "p1 is internal" false (Tree.is_leaf t 1);
  Alcotest.(check int) "depth" 2 (Tree.depth t);
  let s = Tree.star 5 in
  Alcotest.(check (list int)) "star children" [ 1; 2; 3; 4 ] (Tree.children s 0);
  let p = Tree.path 4 in
  Alcotest.(check int) "path depth" 3 (Tree.depth p)

let test_tree_invalid () =
  Alcotest.(check bool) "two roots rejected" true
    (try
       ignore (Tree.of_parents [| None; None |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "cycle rejected" true
    (try
       ignore (Tree.of_parents [| Some 1; Some 0 |]);
       false
     with Invalid_argument _ -> true)

(* ----- Figure 1 tree protocol ----- *)

let test_fig1_commit () =
  let q, msgs, decisions, _ = run_fifo Tree_proto.fig1 7 (ones 7) in
  Alcotest.(check bool) "quiescent" true q;
  (* 6 bits up + 6 bias down + 6 acks up + 6 commits down *)
  Alcotest.(check int) "24 messages" 24 msgs;
  Alcotest.(check bool) "all commit" true (all_decide Decision.Commit decisions 7)

let test_fig1_abort_skips_zero_leaf () =
  let inputs = [ true; true; true; false; true; true; true ] in
  let q, msgs, decisions, _ = run_fifo Tree_proto.fig1 7 inputs in
  Alcotest.(check bool) "quiescent" true q;
  (* 6 bits up + 5 bias down (the 0-leaf p3 is skipped), no phase 2 *)
  Alcotest.(check int) "11 messages" 11 msgs;
  Alcotest.(check bool) "all abort" true (all_decide Decision.Abort decisions 7)

let test_fig1_failure_recovers () =
  let q, _, decisions, _ = run_fifo Tree_proto.fig1 ~failures:[ (5, 1) ] 7 (ones 7) in
  Alcotest.(check bool) "quiescent" true q;
  let nonfaulty = List.filter (fun (p, _) -> p <> 1) decisions in
  Alcotest.(check int) "six survivors decide" 6 (List.length nonfaulty);
  Alcotest.(check bool) "survivors agree" true
    (match nonfaulty with
    | (_, d) :: rest -> List.for_all (fun (_, d') -> Decision.equal d d') rest
    | [] -> false)

let test_fig1_amnesic_forgets () =
  let _, _, decisions, statuses = run_fifo Tree_proto.fig1_amnesic 7 (ones 7) in
  Alcotest.(check bool) "all decided commit first" true (all_decide Decision.Commit decisions 7);
  Alcotest.(check bool) "all amnesic at the end" true
    (List.for_all (fun st -> st.Status.amnesic) statuses)

(* ----- Figure 2 central protocol ----- *)

let test_fig2_commit_and_halt () =
  let q, msgs, decisions, statuses = run_fifo Central_proto.fig2 4 (ones 4) in
  Alcotest.(check bool) "quiescent" true q;
  (* 3 votes + p0's 3 decisions + each participant rebroadcasts to 2 peers *)
  Alcotest.(check int) "12 messages" 12 msgs;
  Alcotest.(check bool) "all commit" true (all_decide Decision.Commit decisions 4);
  Alcotest.(check bool) "all halt" true (List.for_all (fun st -> st.Status.halted) statuses)

let test_fig2_abort_on_zero () =
  let _, _, decisions, _ = run_fifo Central_proto.fig2 4 [ true; true; false; true ] in
  Alcotest.(check bool) "all abort" true (all_decide Decision.Abort decisions 4)

let test_fig2_participant_failure () =
  (* p2 fails immediately: p0 substitutes abort *)
  let q, _, decisions, _ = run_fifo Central_proto.fig2 ~failures:[ (0, 2) ] 4 (ones 4) in
  Alcotest.(check bool) "quiescent" true q;
  let nonfaulty = List.filter (fun (p, _) -> p <> 2) decisions in
  Alcotest.(check bool) "survivors abort" true
    (List.for_all (fun (_, d) -> Decision.equal d Decision.Abort) nonfaulty)

let test_fig2_threshold_rule () =
  let (module P) = Central_proto.make ~rule:(Decision_rule.Threshold 2) ~name:"central-thr2" in
  let module E = Engine.Make (P) in
  let r = E.run ~scheduler:E.fifo_scheduler ~n:4 ~inputs:[ true; false; true; false ] () in
  Alcotest.(check bool) "threshold 2 commits" true
    (List.for_all (fun (_, d) -> Decision.equal d Decision.Commit) (Trace.decisions r.E.trace))

(* ----- Figure 3 chain protocol ----- *)

let test_fig3_chain_flow () =
  let q, msgs, decisions, statuses = run_fifo Chain_proto.fig3 4 (ones 4) in
  Alcotest.(check bool) "quiescent" true q;
  (* 3 votes + 3 chain hops *)
  Alcotest.(check int) "6 messages" 6 msgs;
  Alcotest.(check bool) "all commit" true (all_decide Decision.Commit decisions 4);
  Alcotest.(check bool) "nobody halts (weak termination)" true
    (List.for_all (fun st -> not st.Status.halted) statuses)

let test_fig3_decision_order_follows_chain () =
  let (module P) = Chain_proto.fig3 in
  let module E = Engine.Make (P) in
  let r = E.run ~scheduler:E.fifo_scheduler ~n:4 ~inputs:(ones 4) () in
  let order = List.map fst (Trace.decisions r.E.trace) in
  Alcotest.(check (list int)) "p0 then p1 then p2 then p3" [ 0; 1; 2; 3 ] order

let test_fig3_mid_chain_failure () =
  (* p1 fails right away; everyone else must still decide (via termination) *)
  let q, _, decisions, _ = run_fifo Chain_proto.fig3 ~failures:[ (0, 1) ] 4 (ones 4) in
  Alcotest.(check bool) "quiescent" true q;
  let nonfaulty = List.filter (fun (p, _) -> p <> 1) decisions in
  Alcotest.(check int) "three survivors decide" 3 (List.length nonfaulty)

(* ----- two-phase commit ----- *)

let test_2pc_flow () =
  let q, msgs, decisions, statuses = run_fifo Two_phase_commit.default 5 (ones 5) in
  Alcotest.(check bool) "quiescent" true q;
  (* 4 votes + 4 decisions *)
  Alcotest.(check int) "8 messages" 8 msgs;
  Alcotest.(check bool) "all commit" true (all_decide Decision.Commit decisions 5);
  (* the coordinator halts; the participants stay available *)
  Alcotest.(check bool) "coordinator halted" true (List.hd statuses).Status.halted;
  Alcotest.(check bool) "participants listening" true
    (List.for_all (fun st -> not st.Status.halted) (List.tl statuses))

let test_2pc_coordinator_decides_first () =
  let (module P) = Two_phase_commit.default in
  let module E = Engine.Make (P) in
  let r = E.run ~scheduler:E.fifo_scheduler ~n:4 ~inputs:(ones 4) () in
  match Trace.decisions r.E.trace with
  | (first, _) :: _ -> Alcotest.(check int) "coordinator decides first" 0 first
  | [] -> Alcotest.fail "nobody decided"

(* ----- decentralized commit ----- *)

let test_d2pc_flow () =
  let q, msgs, decisions, _ = run_fifo Decentralized_commit.default 4 (ones 4) in
  Alcotest.(check bool) "quiescent" true q;
  Alcotest.(check int) "n(n-1) messages" 12 msgs;
  Alcotest.(check bool) "all commit" true (all_decide Decision.Commit decisions 4)

let test_d2pc_abort () =
  let _, _, decisions, _ = run_fifo Decentralized_commit.default 4 [ true; true; true; false ] in
  Alcotest.(check bool) "all abort" true (all_decide Decision.Abort decisions 4)

(* ----- reliable broadcast ----- *)

let test_rbcast_value_relayed () =
  let q, msgs, decisions, _ = run_fifo Reliable_broadcast.default 4 [ true; false; false; false ] in
  Alcotest.(check bool) "quiescent" true q;
  (* general: 3 sends; each lieutenant relays to the 2 others *)
  Alcotest.(check int) "9 messages" 9 msgs;
  Alcotest.(check bool) "all decide the general's 1" true (all_decide Decision.Commit decisions 4)

let test_rbcast_zero_value () =
  let _, _, decisions, _ = run_fifo Reliable_broadcast.default 4 [ false; true; true; true ] in
  Alcotest.(check bool) "all decide 0" true (all_decide Decision.Abort decisions 4)

let test_rbcast_general_fails_before_sending () =
  let q, _, decisions, _ =
    run_fifo Reliable_broadcast.default ~failures:[ (0, 0) ] 4 [ true; false; false; false ]
  in
  Alcotest.(check bool) "quiescent" true q;
  let lieutenants = List.filter (fun (p, _) -> p <> 0) decisions in
  Alcotest.(check int) "all lieutenants decide" 3 (List.length lieutenants);
  Alcotest.(check bool) "default 0" true
    (List.for_all (fun (_, d) -> Decision.equal d Decision.Abort) lieutenants)

(* ----- standalone termination protocol ----- *)

let test_termination_threshold_one () =
  let _, _, decisions, _ = run_fifo Termination_proto.default 4 [ false; false; true; false ] in
  Alcotest.(check bool) "one 1 suffices to commit" true (all_decide Decision.Commit decisions 4);
  let _, _, decisions0, _ = run_fifo Termination_proto.default 4 (List.init 4 (fun _ -> false)) in
  Alcotest.(check bool) "all 0 aborts" true (all_decide Decision.Abort decisions0 4)

let test_termination_steps_quadratic () =
  let (module P) = Termination_proto.default in
  let module E = Engine.Make (P) in
  List.iter
    (fun n ->
      let r = E.run ~scheduler:E.fifo_scheduler ~n ~inputs:(ones n) () in
      let steps = Trace.steps_per_proc ~n r.E.trace in
      (* N rounds, each N-1 sends and N-1 receives *)
      Alcotest.(check int)
        (Printf.sprintf "steps at n=%d" n)
        (2 * n * (n - 1))
        (Array.fold_left max 0 steps))
    [ 3; 5; 7 ]

let test_termination_halts () =
  let _, _, _, statuses = run_fifo Termination_proto.default 4 (ones 4) in
  Alcotest.(check bool) "all halted" true (List.for_all (fun st -> st.Status.halted) statuses)

(* ----- termination core unit behaviour ----- *)

let test_termination_core_rounds () =
  let open Termination_core in
  let up = Proc_id.set_of_list [ 0; 1 ] in
  let t = start ~n:2 ~me:0 ~up ~bias:Noncommittable in
  Alcotest.(check bool) "starts sending" true (Step_kind.equal (step_kind t) Step_kind.Sending);
  let out, t = send t in
  (match out with
  | Some (1, Round { round = 1; bias = Noncommittable }) -> ()
  | _ -> Alcotest.fail "expected round-1 broadcast to p1");
  let t = on_msg t ~from:1 (Round { round = 1; bias = Committable }) in
  Alcotest.(check bool) "bias upgraded" true (bias_equal (bias_of t) Committable);
  (* round 2 of 2: drain the broadcast, then receive the last message *)
  let _, t = send t in
  let t = on_msg t ~from:1 (Round { round = 2; bias = Committable }) in
  Alcotest.(check bool) "finished" true (finished t);
  Alcotest.(check (option bool)) "commits" (Some true)
    (Option.map Decision.to_bool (outcome t))

let test_termination_core_stale_rounds () =
  let open Termination_core in
  let up = Proc_id.set_of_list [ 0; 1; 2 ] in
  let drain t =
    let _, t = send t in
    let _, t = send t in
    t
  in
  let to_round_2 =
    let t = start ~n:3 ~me:0 ~up ~bias:Noncommittable in
    let t = drain t in
    let t = on_msg t ~from:1 (Round { round = 1; bias = Noncommittable }) in
    let t = on_msg t ~from:2 (Round { round = 1; bias = Noncommittable }) in
    drain t
  in
  (* a stale round-1 committable arriving during round 2 (of 3) can
     still be propagated in round 3, so it is adopted *)
  let t = on_msg to_round_2 ~from:1 (Round { round = 1; bias = Committable }) in
  Alcotest.(check bool) "mid-run stale bias adopted" true (bias_equal (bias_of t) Committable);
  (* ... but one arriving during the final round cannot be propagated
     and must be dropped *)
  let to_round_3 =
    let t = on_msg to_round_2 ~from:1 (Round { round = 2; bias = Noncommittable }) in
    let t = on_msg t ~from:2 (Round { round = 2; bias = Noncommittable }) in
    drain t
  in
  let t = on_msg to_round_3 ~from:1 (Round { round = 1; bias = Committable }) in
  Alcotest.(check bool) "final-round stale bias dropped" true
    (bias_equal (bias_of t) Noncommittable);
  (* a current final-round committable is adopted: its sender broadcast
     it to every peer *)
  let t = on_msg to_round_3 ~from:1 (Round { round = 3; bias = Committable }) in
  Alcotest.(check bool) "current final-round bias adopted" true
    (bias_equal (bias_of t) Committable)

let test_termination_core_failure_shrinks () =
  let open Termination_core in
  let up = Proc_id.set_of_list [ 0; 1; 2 ] in
  let t = start ~n:3 ~me:0 ~up ~bias:Committable in
  let _, t = send t in
  let _, t = send t in
  let t = on_failure t 1 in
  let t = on_msg t ~from:2 (Round { round = 1; bias = Noncommittable }) in
  (* round 2: only p2 left *)
  let _, t = send t in
  let t = on_failure t 2 in
  (* remaining rounds race to completion with an empty UP *)
  Alcotest.(check bool) "finished after all peers gone" true (finished t);
  Alcotest.(check (option bool)) "still commits" (Some true)
    (Option.map Decision.to_bool (outcome t))

let test_termination_core_amnesic_announce () =
  let open Termination_core in
  let up = Proc_id.set_of_list [ 0; 1; 2 ] in
  let t = start_amnesic ~n:3 ~me:0 ~up in
  let out1, t = send t in
  let out2, t = send t in
  (match (out1, out2) with
  | Some (1, Amnesic_notice), Some (2, Amnesic_notice) -> ()
  | _ -> Alcotest.fail "expected amnesia announcements");
  Alcotest.(check bool) "finished without outcome" true (finished t && outcome t = None)

(* ----- decision rules ----- *)

let test_decision_rules () =
  let inputs = [| true; true; false |] in
  Alcotest.(check bool) "unanimity forbids commit" false
    (Decision_rule.permits Decision_rule.Unanimity ~inputs ~failure_occurred:false Decision.Commit);
  Alcotest.(check bool) "unanimity permits abort (a zero)" true
    (Decision_rule.permits Decision_rule.Unanimity ~inputs ~failure_occurred:false Decision.Abort);
  Alcotest.(check bool) "unanimity forbids abort on all ones, failure-free" false
    (Decision_rule.permits Decision_rule.Unanimity ~inputs:[| true; true |] ~failure_occurred:false
       Decision.Abort);
  Alcotest.(check bool) "failure permits abort" true
    (Decision_rule.permits Decision_rule.Unanimity ~inputs:[| true; true |] ~failure_occurred:true
       Decision.Abort);
  Alcotest.(check bool) "broadcast follows the general" true
    (Decision.equal
       (Decision_rule.natural_decision (Decision_rule.Broadcast 2) inputs)
       Decision.Abort);
  Alcotest.(check bool) "threshold 2" true
    (Decision.equal (Decision_rule.natural_decision (Decision_rule.Threshold 2) inputs) Decision.Commit);
  Alcotest.(check bool) "subset rule" true
    (Decision.equal
       (Decision_rule.natural_decision (Decision_rule.Subset [ 0; 1 ]) inputs)
       Decision.Commit)

(* ----- vote collection ----- *)

let test_vote_collect () =
  let vc = Vote_collect.start [ 1; 2 ] in
  Alcotest.(check bool) "awaiting p1" true (Vote_collect.awaiting vc 1);
  let vc = Vote_collect.add_bit vc 1 true in
  Alcotest.(check bool) "incomplete" false (Vote_collect.complete vc);
  let vc = Vote_collect.note_failure vc 2 in
  Alcotest.(check bool) "complete" true (Vote_collect.complete vc);
  Alcotest.(check bool) "failure seen" true (Vote_collect.failure_seen vc);
  Alcotest.(check bool) "decision aborts on failure" true
    (Decision.equal
       (Vote_collect.decide ~rule:Decision_rule.Unanimity ~n:3 ~me:0 ~own:true vc)
       Decision.Abort)

(* ----- total-communication transform ----- *)

let test_total_comm_preserves_decisions () =
  let base = Two_phase_commit.default in
  let (module B) = base in
  let (module T) = Total_comm.transform base in
  let module EB = Engine.Make (B) in
  let module ET = Engine.Make (T) in
  List.iter
    (fun inputs ->
      let rb = EB.run ~scheduler:EB.fifo_scheduler ~n:4 ~inputs () in
      let rt = ET.run ~scheduler:ET.fifo_scheduler ~n:4 ~inputs () in
      Alcotest.(check bool) "same decisions" true
        (List.sort compare (Trace.decisions rb.EB.trace)
        = List.sort compare (Trace.decisions rt.ET.trace));
      Alcotest.(check int) "same number of messages" (Trace.message_count rb.EB.trace)
        (Trace.message_count rt.ET.trace))
    [ ones 4; [ true; false; true; true ]; List.init 4 (fun _ -> false) ]

let test_total_comm_random_schedules () =
  let (module T) = Total_comm.transform Patterns_protocols.Chain_proto.fig3 in
  let module E = Engine.Make (T) in
  for seed = 1 to 20 do
    let prng = Patterns_stdx.Prng.create ~seed in
    let r = E.run ~scheduler:(E.random_scheduler prng) ~n:4 ~inputs:(ones 4) () in
    if not r.E.quiescent then Alcotest.fail "transform must still quiesce";
    if List.length (Trace.decisions r.E.trace) <> 4 then Alcotest.fail "everyone decides"
  done

(* ----- tree-of-processes 2PC ([ML]) ----- *)

let test_tree_commit_flow () =
  let q, msgs, decisions, _ = run_fifo Tree_commit.binary7 7 (ones 7) in
  Alcotest.(check bool) "quiescent" true q;
  (* one up-sweep and one down-sweep: 6 bits + 6 decisions *)
  Alcotest.(check int) "12 messages" 12 msgs;
  Alcotest.(check bool) "all commit" true (all_decide Decision.Commit decisions 7)

let test_tree_commit_abort () =
  let _, _, decisions, _ = run_fifo Tree_commit.binary7 7 [ true; true; true; true; false; true; true ] in
  Alcotest.(check bool) "all abort" true (all_decide Decision.Abort decisions 7)

let test_tree_commit_root_decides_first () =
  let (module P) = Tree_commit.binary7 in
  let module E = Engine.Make (P) in
  let r = E.run ~scheduler:E.fifo_scheduler ~n:7 ~inputs:(ones 7) () in
  match Trace.decisions r.E.trace with
  | (first, _) :: _ -> Alcotest.(check int) "root decides first" 0 first
  | [] -> Alcotest.fail "nobody decided"

let test_tree_commit_failure_recovers () =
  let q, _, decisions, _ = run_fifo Tree_commit.binary7 ~failures:[ (4, 2) ] 7 (ones 7) in
  Alcotest.(check bool) "quiescent" true q;
  let nonfaulty = List.filter (fun (p, _) -> p <> 2) decisions in
  Alcotest.(check int) "six survivors decide" 6 (List.length nonfaulty);
  Alcotest.(check bool) "survivors agree" true
    (match nonfaulty with
    | (_, d) :: rest -> List.for_all (fun (_, d') -> Decision.equal d d') rest
    | [] -> false)

(* ----- rule-parametric voting tree ----- *)

let test_voting_tree_threshold () =
  let p = Voting_tree.threshold_star ~k:2 4 in
  let (module P) = p in
  let module E = Engine.Make (P) in
  let outcomes inputs =
    let r = E.run ~scheduler:E.fifo_scheduler ~n:4 ~inputs () in
    List.map snd (Trace.decisions r.E.trace)
  in
  Alcotest.(check bool) "two ones commit" true
    (List.for_all (Decision.equal Decision.Commit) (outcomes [ true; false; true; false ]));
  Alcotest.(check bool) "one one aborts" true
    (List.for_all (Decision.equal Decision.Abort) (outcomes [ false; false; true; false ]))

let test_voting_tree_subset () =
  let p = Voting_tree.subset_star ~quorum:[ 1; 3 ] 4 in
  let (module P) = p in
  let module E = Engine.Make (P) in
  let outcomes inputs =
    let r = E.run ~scheduler:E.fifo_scheduler ~n:4 ~inputs () in
    List.map snd (Trace.decisions r.E.trace)
  in
  Alcotest.(check bool) "quorum of ones commits" true
    (List.for_all (Decision.equal Decision.Commit) (outcomes [ false; true; false; true ]));
  Alcotest.(check bool) "missing quorum member aborts" true
    (List.for_all (Decision.equal Decision.Abort) (outcomes [ true; true; true; false ]))

let test_voting_tree_is_tc () =
  let v =
    Patterns_core.Classify.classify ~max_failures:1 ~rule:(Decision_rule.Threshold 2) ~n:3
      (Voting_tree.threshold_star ~k:2 3)
  in
  Alcotest.(check bool) "tc" true v.Patterns_core.Classify.tc;
  Alcotest.(check bool) "safe states" true v.Patterns_core.Classify.all_states_safe

(* ----- topology fuzzing: the tree protocols over random shapes ----- *)

let test_tree_protocols_on_random_topologies () =
  for seed = 1 to 12 do
    let n = 3 + (seed mod 5) in
    let tree = Tree.random ~seed n in
    let prng = Patterns_stdx.Prng.create ~seed:(seed * 31) in
    let inputs = List.init n (fun _ -> Patterns_stdx.Prng.bool prng) in
    List.iter
      (fun (kind, p) ->
        let (module P : Protocol.S) = p in
        let module E = Engine.Make (P) in
        (* failure-free on a random fair schedule *)
        let r = E.run ~scheduler:(E.random_scheduler (Patterns_stdx.Prng.split prng)) ~n ~inputs () in
        if not r.E.quiescent then
          Alcotest.fail (Printf.sprintf "%s seed %d: did not quiesce" kind seed);
        (match Patterns_core.Check.validity Decision_rule.Unanimity ~inputs r.E.trace with
        | Ok () -> ()
        | Error m -> Alcotest.fail (Printf.sprintf "%s seed %d: %s" kind seed m));
        (* one random crash *)
        let victim = Patterns_stdx.Prng.int prng ~bound:n in
        let at = Patterns_stdx.Prng.int prng ~bound:30 in
        let r =
          E.run ~failures:[ (at, victim) ]
            ~scheduler:(E.random_scheduler (Patterns_stdx.Prng.split prng)) ~n ~inputs ()
        in
        match Patterns_core.Check.nonfaulty_agreement r.E.trace with
        | Ok () -> ()
        | Error m -> Alcotest.fail (Printf.sprintf "%s seed %d (crash): %s" kind seed m))
      [
        ("fig1-style", Tree_proto.make ~name:"rnd-tree" ~describe:"random tree" tree);
        ("tree-2pc", Tree_commit.make ~name:"rnd-tree-2pc" tree);
        ("voting", Voting_tree.make ~rule:Decision_rule.Unanimity ~name:"rnd-voting" tree);
      ]
  done

(* ----- systematic crash sweep over the whole catalogue ----- *)

let test_crash_sweep_catalogue () =
  (* fail every processor at every step of the fair run, for every
     registry protocol: interactive consistency and nonfaulty
     agreement must always hold; everyone must decide unless the
     protocol blocks by design *)
  List.iter
    (fun e ->
      let (module P : Protocol.S) = e.Registry.protocol in
      let module E = Engine.Make (P) in
      let n = e.Registry.default_n in
      let inputs = ones n in
      let horizon = (E.run ~scheduler:E.fifo_scheduler ~n ~inputs ()).E.steps in
      for victim = 0 to n - 1 do
        for step = 0 to horizon do
          let r = E.run ~failures:[ (step, victim) ] ~scheduler:E.fifo_scheduler ~n ~inputs () in
          let ctx = Printf.sprintf "%s victim=%d step=%d" e.Registry.name victim step in
          if not r.E.quiescent then Alcotest.fail (ctx ^ ": not quiescent");
          (match Patterns_core.Check.interactive_consistency r.E.trace with
          | Ok () -> ()
          | Error m -> Alcotest.fail (ctx ^ ": " ^ m));
          (if not (doomed_by_design e) then
             match Patterns_core.Check.nonfaulty_agreement r.E.trace with
             | Ok () -> ()
             | Error m -> Alcotest.fail (ctx ^ ": " ^ m));
          if not (blocking_by_design e) then begin
            let failed = Trace.failures r.E.trace in
            let ever = Patterns_core.Check.ever_decided ~n r.E.trace in
            List.iter
              (fun p ->
                if (not (List.mem p failed)) && ever.(p) = None then
                  Alcotest.fail (ctx ^ Printf.sprintf ": nonfaulty p%d undecided" p))
              (Proc_id.all ~n)
          end
        done
      done)
    Registry.all

(* ----- scale guard ----- *)

let test_scale_guard () =
  let check name p n expected_msgs =
    let (module P : Protocol.S) = p in
    let module E = Engine.Make (P) in
    let r = E.run ~scheduler:E.fifo_scheduler ~n ~inputs:(ones n) () in
    if not r.E.quiescent then Alcotest.fail (name ^ ": did not quiesce");
    Alcotest.(check int) (name ^ " messages") expected_msgs (Trace.message_count r.E.trace)
  in
  check "2pc n=48" Two_phase_commit.default 48 (2 * 47);
  check "d2pc n=24" Decentralized_commit.default 24 (24 * 23);
  check "termination n=16" Termination_proto.default 16 (16 * 16 * 15);
  check "3pc n=32" (Tree_proto.three_phase_commit 32) 32 (4 * 31)

(* ----- cooperative-termination 2PC ([S81]) ----- *)

let test_coop_2pc_happy_path () =
  let q, msgs, decisions, _ = run_fifo Coop_2pc.default 4 (ones 4) in
  Alcotest.(check bool) "quiescent" true q;
  Alcotest.(check int) "3 votes + 3 decisions" 6 msgs;
  Alcotest.(check bool) "all commit" true (all_decide Decision.Commit decisions 4)

let test_coop_2pc_peer_answers () =
  (* coordinator crashes after sending the decision to p1 only; p2 and
     p3 learn it from p1 through decision-requests *)
  let (module P) = Coop_2pc.default in
  let module E = Engine.Make (P) in
  let c = E.init ~n:4 ~inputs:(ones 4) in
  let directives =
    [ E.Step_of 1; E.Step_of 2; E.Step_of 3;
      E.Deliver_from (0, 1); E.Deliver_from (0, 2); E.Deliver_from (0, 3);
      E.Step_of 0 (* decision to p1 only *);
      E.Fail_now 0;
      E.Deliver_from (1, 0) (* p1 decides *);
      E.Flush_fifo ]
  in
  match E.play c directives with
  | Error e -> Alcotest.fail e
  | Ok (final, trace) ->
    Alcotest.(check int) "all participants decide" 3
      (List.length (List.filter (fun (p, _) -> p <> 0) (Trace.decisions trace)));
    Alcotest.(check bool) "consistent" true
      (Result.is_ok (Patterns_core.Check.nonfaulty_agreement trace));
    ignore final

let test_coop_2pc_blocks () =
  (* coordinator crashes before any decision: everyone blocks, nobody
     guesses — total consistency preserved at the price of liveness *)
  let q, _, decisions, _ = run_fifo Coop_2pc.default ~failures:[ (6, 0) ] 4 (ones 4) in
  Alcotest.(check bool) "quiescent (deadlocked)" true q;
  Alcotest.(check bool) "nobody decided" true
    (List.for_all (fun (p, _) -> p = 0) decisions)

(* ----- registry-wide generic invariants ----- *)

let registry_rule e =
  if e.Registry.name = "ben-or" then Decision_rule.Any_input
  else if e.Registry.name = "reliable-broadcast" then Decision_rule.Broadcast 0
  else if e.Registry.name = "termination" then Decision_rule.Threshold 1
  else if e.Registry.name = "voting-star-thr3-5" then Decision_rule.Threshold 3
  else if e.Registry.name = "voting-star-subset-5" then Decision_rule.Subset [ 0; 1 ]
  else Decision_rule.Unanimity

let test_every_protocol_decides_failure_free () =
  List.iter
    (fun e ->
      let (module P : Protocol.S) = e.Registry.protocol in
      let module E = Engine.Make (P) in
      let n = e.Registry.default_n in
      let r = E.run ~scheduler:E.fifo_scheduler ~n ~inputs:(ones n) () in
      if not r.E.quiescent then Alcotest.fail (e.Registry.name ^ ": did not quiesce");
      if List.length (Trace.decisions r.E.trace) <> n then
        Alcotest.fail (e.Registry.name ^ ": not everyone decided");
      match Patterns_core.Check.validity (registry_rule e) ~inputs:(ones n) r.E.trace with
      | Ok () -> ()
      | Error m -> Alcotest.fail (e.Registry.name ^ ": " ^ m))
    Registry.all

let test_every_protocol_deterministic_per_seed () =
  List.iter
    (fun e ->
      let (module P : Protocol.S) = e.Registry.protocol in
      let module E = Engine.Make (P) in
      let n = e.Registry.default_n in
      let run seed =
        let r =
          E.run ~scheduler:(E.random_scheduler (Patterns_stdx.Prng.create ~seed)) ~n
            ~inputs:(ones n) ()
        in
        (r.E.steps, Trace.message_count r.E.trace)
      in
      if run 37 <> run 37 then Alcotest.fail (e.Registry.name ^ ": nondeterministic for a seed"))
    Registry.all

let test_every_protocol_audit_agreement () =
  (* every protocol in the catalogue keeps nonfaulty deciders agreeing
     under random crashes (the amnesic chain is the designed exception,
     exercised by the Theorem 13 scenario, not by random schedules —
     include it anyway: random runs rarely hit the needed race, so keep
     the assertion strict and let failures point at real regressions) *)
  List.iter
    (fun e ->
      let report =
        Patterns_core.Audit.random_audit ~max_failures:2 ~rule:(registry_rule e)
          ~n:e.Registry.default_n ~runs:60 ~seed:5 e.Registry.protocol
      in
      let wt_ok =
        (* cooperative 2PC blocks by design when the coordinator dies
           in the uncertain window; Ben-Or tolerates t = (n-1)/2
           crashes — at the audit's two crashes and its default n the
           survivors can legitimately starve below the n - t
           thresholds, so only safety is asserted for it here *)
        blocking_by_design e
        || e.Registry.name = "ben-or"
        || report.Patterns_core.Audit.wt_incomplete = 0
      in
      if
        report.Patterns_core.Audit.ic_violations <> 0
        || (not wt_ok)
        || report.Patterns_core.Audit.non_quiescent <> 0
      then
        Alcotest.fail
          (Format.asprintf "%s: %a" e.Registry.name Patterns_core.Audit.pp report))
    Registry.all

(* ----- registry ----- *)

let test_registry () =
  let names = Registry.names () in
  Alcotest.(check bool) "unique names" true
    (List.length names = List.length (List.sort_uniq String.compare names));
  Alcotest.(check bool) "finds fig1" true (Registry.find "fig1-tree" <> None);
  Alcotest.(check bool) "unknown is none" true (Registry.find "nope" = None);
  List.iter
    (fun e ->
      let (module P : Protocol.S) = e.Registry.protocol in
      if not (P.valid_n e.Registry.default_n) then
        Alcotest.fail (e.Registry.name ^ ": default_n not supported"))
    Registry.all

(* `patterns-cli list` tells the catalogue apart by these strings *)
let test_registry_descriptions () =
  let descriptions = List.map (fun e -> e.Registry.describe) Registry.all in
  List.iter
    (fun e ->
      if List.length (List.filter (String.equal e.Registry.describe) descriptions) > 1 then
        Alcotest.fail (e.Registry.name ^ ": description shared with another entry"))
    Registry.all

let () =
  Alcotest.run "protocols"
    [
      ( "tree",
        [
          Alcotest.test_case "shapes" `Quick test_tree_shapes;
          Alcotest.test_case "invalid shapes" `Quick test_tree_invalid;
          Alcotest.test_case "fig1 commit" `Quick test_fig1_commit;
          Alcotest.test_case "fig1 abort skips 0-leaf" `Quick test_fig1_abort_skips_zero_leaf;
          Alcotest.test_case "fig1 failure recovery" `Quick test_fig1_failure_recovers;
          Alcotest.test_case "fig1 amnesic variant" `Quick test_fig1_amnesic_forgets;
        ] );
      ( "central",
        [
          Alcotest.test_case "commit and halt" `Quick test_fig2_commit_and_halt;
          Alcotest.test_case "abort on zero" `Quick test_fig2_abort_on_zero;
          Alcotest.test_case "participant failure" `Quick test_fig2_participant_failure;
          Alcotest.test_case "threshold rule" `Quick test_fig2_threshold_rule;
        ] );
      ( "chain",
        [
          Alcotest.test_case "flow" `Quick test_fig3_chain_flow;
          Alcotest.test_case "decision order" `Quick test_fig3_decision_order_follows_chain;
          Alcotest.test_case "mid-chain failure" `Quick test_fig3_mid_chain_failure;
        ] );
      ( "commitment",
        [
          Alcotest.test_case "2pc flow" `Quick test_2pc_flow;
          Alcotest.test_case "2pc decides first" `Quick test_2pc_coordinator_decides_first;
          Alcotest.test_case "d2pc flow" `Quick test_d2pc_flow;
          Alcotest.test_case "d2pc abort" `Quick test_d2pc_abort;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "value relayed" `Quick test_rbcast_value_relayed;
          Alcotest.test_case "zero value" `Quick test_rbcast_zero_value;
          Alcotest.test_case "general fails silently" `Quick test_rbcast_general_fails_before_sending;
        ] );
      ( "termination",
        [
          Alcotest.test_case "threshold-1 semantics" `Quick test_termination_threshold_one;
          Alcotest.test_case "quadratic steps" `Quick test_termination_steps_quadratic;
          Alcotest.test_case "halts" `Quick test_termination_halts;
          Alcotest.test_case "core rounds" `Quick test_termination_core_rounds;
          Alcotest.test_case "core stale-round discipline" `Quick test_termination_core_stale_rounds;
          Alcotest.test_case "core shrinking UP" `Quick test_termination_core_failure_shrinks;
          Alcotest.test_case "core amnesia announcement" `Quick test_termination_core_amnesic_announce;
        ] );
      ( "rules",
        [
          Alcotest.test_case "decision rules" `Quick test_decision_rules;
          Alcotest.test_case "vote collection" `Quick test_vote_collect;
        ] );
      ( "transform",
        [
          Alcotest.test_case "decisions preserved" `Quick test_total_comm_preserves_decisions;
          Alcotest.test_case "random schedules" `Quick test_total_comm_random_schedules;
        ] );
      ( "voting-tree",
        [
          Alcotest.test_case "threshold" `Quick test_voting_tree_threshold;
          Alcotest.test_case "subset" `Quick test_voting_tree_subset;
          Alcotest.test_case "WT-TC under threshold" `Slow test_voting_tree_is_tc;
        ] );
      ( "coop-2pc",
        [
          Alcotest.test_case "happy path" `Quick test_coop_2pc_happy_path;
          Alcotest.test_case "peers answer" `Quick test_coop_2pc_peer_answers;
          Alcotest.test_case "blocks by design" `Quick test_coop_2pc_blocks;
        ] );
      ( "tree-2pc",
        [
          Alcotest.test_case "flow" `Quick test_tree_commit_flow;
          Alcotest.test_case "abort" `Quick test_tree_commit_abort;
          Alcotest.test_case "root decides first" `Quick test_tree_commit_root_decides_first;
          Alcotest.test_case "failure recovery" `Quick test_tree_commit_failure_recovers;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "random topologies" `Slow test_tree_protocols_on_random_topologies;
          Alcotest.test_case "crash sweep" `Slow test_crash_sweep_catalogue;
          Alcotest.test_case "scale guard" `Slow test_scale_guard;
        ] );
      ( "registry",
        [
          Alcotest.test_case "catalogue" `Quick test_registry;
          Alcotest.test_case "distinct descriptions" `Quick test_registry_descriptions;
          Alcotest.test_case "all decide failure-free" `Quick test_every_protocol_decides_failure_free;
          Alcotest.test_case "seeded determinism" `Quick test_every_protocol_deterministic_per_seed;
          Alcotest.test_case "agreement under crashes" `Slow test_every_protocol_audit_agreement;
        ] );
    ]
