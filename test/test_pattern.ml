(* Tests for communication patterns and scheme enumeration. *)

open Patterns_sim
open Patterns_pattern

let tr ~s ~r ~k = Triple.make ~sender:s ~receiver:r ~index:k

(* ----- Pattern construction ----- *)

let test_make_closure () =
  let a = tr ~s:0 ~r:1 ~k:1 and b = tr ~s:1 ~r:2 ~k:1 and c = tr ~s:2 ~r:0 ~k:1 in
  let p = Pattern.make [ a; b; c ] [ (a, b); (b, c) ] in
  Alcotest.(check bool) "transitive a<c" true (Pattern.lt p a c);
  Alcotest.(check bool) "not c<a" false (Pattern.lt p c a);
  Alcotest.(check int) "covers count" 2 (List.length (Pattern.covers p));
  Alcotest.(check int) "all pairs" 3 (List.length (Pattern.all_pairs p))

let test_concurrent () =
  let a = tr ~s:0 ~r:1 ~k:1 and b = tr ~s:2 ~r:3 ~k:1 in
  let p = Pattern.make [ a; b ] [] in
  Alcotest.(check bool) "concurrent" true (Pattern.concurrent p a b);
  Alcotest.(check bool) "not concurrent with itself" false (Pattern.concurrent p a a)

let test_width_height () =
  let a = tr ~s:0 ~r:1 ~k:1 and b = tr ~s:0 ~r:1 ~k:2 and c = tr ~s:2 ~r:3 ~k:1 in
  let p = Pattern.make [ a; b; c ] [ (a, b) ] in
  Alcotest.(check int) "height" 2 (Pattern.height p);
  Alcotest.(check int) "width" 2 (Pattern.width p)

let test_delivery_orders () =
  let a = tr ~s:0 ~r:1 ~k:1 and b = tr ~s:2 ~r:3 ~k:1 in
  let p = Pattern.make [ a; b ] [] in
  Alcotest.(check int) "two linearizations" 2 (List.length (Pattern.delivery_orders p))

let test_received_none () =
  let a = tr ~s:0 ~r:1 ~k:1 in
  let p = Pattern.make [ a ] [] in
  Alcotest.(check (list int)) "everyone but p1" [ 0; 2 ] (Pattern.received_none p ~n:3)

(* ----- extraction from traces ----- *)

(* toy relay protocol: p0 sends to p1, p1 relays to p2 *)
module Relay = struct
  type msg = Token
  type state = Start | Idle | Got of Proc_id.t | Done_st

  let name = "relay"
  let describe = "test protocol"
  let valid_n n = n = 3
  let initial ~n:_ ~me ~input:_ = if me = 0 then Start else Idle

  let step_kind = function
    | Start | Got _ -> Step_kind.Sending
    | Idle -> Step_kind.Receiving
    | Done_st -> Step_kind.Quiescent

  let send ~n:_ ~me = function
    | Start -> (Some (1, Token), Done_st)
    | Got _ when me = 1 -> (Some (2, Token), Done_st)
    | s -> (None, (match s with Got _ -> Done_st | s -> s))

  let receive ~n:_ ~me:_ s incoming =
    match (s, incoming) with
    | Idle, Incoming.Msg { from; payload = Token } -> Got from
    | s, _ -> s

  let status _ = Status.undecided
  let compare_state = Stdlib.compare
  let hash_state = Hashtbl.hash
  let pp_state ppf _ = Format.pp_print_string ppf "-"
  let compare_msg _ _ = 0
  let pp_msg ppf _ = Format.pp_print_string ppf "token"
end

module RE = Engine.Make (Relay)

let test_extraction_chain () =
  let r = RE.run ~scheduler:RE.fifo_scheduler ~n:3 ~inputs:[ true; true; true ] () in
  let p = Pattern.of_trace r.RE.trace in
  Alcotest.(check int) "two messages" 2 (Pattern.message_count p);
  let m1 = tr ~s:0 ~r:1 ~k:1 and m2 = tr ~s:1 ~r:2 ~k:1 in
  Alcotest.(check bool) "m1 < m2" true (Pattern.lt p m1 m2);
  Alcotest.(check int) "height 2" 2 (Pattern.height p)

let test_prefix_consistency () =
  let m1 = tr ~s:0 ~r:1 ~k:1 and m2 = tr ~s:1 ~r:2 ~k:1 in
  let prefix = Pattern.make [ m1 ] [] in
  let full = Pattern.make [ m1; m2 ] [ (m1, m2) ] in
  Alcotest.(check bool) "prefix consistent" true (Pattern.is_prefix_consistent prefix full);
  Alcotest.(check bool) "not conversely" false (Pattern.is_prefix_consistent full prefix)

(* ----- schemes ----- *)

let test_scheme_relay_single_pattern () =
  let module S = Scheme.Make (Relay) in
  let pats, stats = S.patterns_for_inputs ~n:3 ~inputs:[ true; true; true ] () in
  Alcotest.(check int) "one pattern" 1 (Pattern.Set.cardinal pats);
  Alcotest.(check bool) "not truncated" false stats.Scheme.truncated

let test_scheme_fig3_single_pattern () =
  let (module P) = Patterns_protocols.Chain_proto.fig3 in
  let module S = Scheme.Make (P) in
  let pats, _ = S.scheme ~n:4 () in
  (* "The pattern illustrated is the only failure-free pattern" *)
  Alcotest.(check int) "exactly one pattern" 1 (Pattern.Set.cardinal pats);
  let p = List.hd (Pattern.Set.elements pats) in
  Alcotest.(check int) "6 messages" 6 (Pattern.message_count p)

let test_scheme_fig1_pattern_count () =
  let (module P) = Patterns_protocols.Tree_proto.fig1 in
  let module S = Scheme.Make (P) in
  let pats, _ = S.scheme ~n:7 () in
  (* one commit pattern + one abort pattern per subset of 0-leaves *)
  Alcotest.(check int) "17 patterns" 17 (Pattern.Set.cardinal pats)

let test_scheme_fig4_four_patterns () =
  let (module P) = Patterns_protocols.Perverse_proto.fig4 in
  let module S = Scheme.Make (P) in
  let pats, _ = S.scheme ~n:4 () in
  Alcotest.(check int) "four patterns" 4 (Pattern.Set.cardinal pats);
  let sizes =
    List.sort Int.compare (List.map Pattern.message_count (Pattern.Set.elements pats))
  in
  Alcotest.(check (list int)) "message counts" [ 17; 18; 18; 20 ] sizes

let test_subscheme () =
  let m1 = tr ~s:0 ~r:1 ~k:1 in
  let p1 = Pattern.make [ m1 ] [] in
  let small = Pattern.Set.singleton p1 in
  let big = Pattern.Set.add Pattern.empty small in
  Alcotest.(check bool) "subset" true (Scheme.subscheme small big);
  Alcotest.(check bool) "not superset" false (Scheme.subscheme big small);
  Alcotest.(check bool) "equal reflexive" true (Scheme.equal_schemes big big)

let test_totalcomm_subscheme () =
  let base = Patterns_protocols.Perverse_proto.fig4 in
  let (module B) = base in
  let module SB = Scheme.Make (B) in
  let base_pats, _ = SB.patterns_for_inputs ~n:4 ~inputs:[ true; true; true; true ] () in
  let (module T) = Patterns_protocols.Total_comm.transform base in
  let module ST = Scheme.Make (T) in
  let tc_pats, _ = ST.patterns_for_inputs ~n:4 ~inputs:[ true; true; true; true ] () in
  Alcotest.(check bool) "transform scheme within base scheme" true
    (Scheme.subscheme tc_pats base_pats);
  Alcotest.(check bool) "transform produces patterns" true (not (Pattern.Set.is_empty tc_pats))

(* ----- realize: pattern -> execution round trip ----- *)

let test_realize_fig4_roundtrip () =
  let (module P) = Patterns_protocols.Perverse_proto.fig4 in
  let module S = Scheme.Make (P) in
  let inputs = [ true; true; true; true ] in
  let pats, _ = S.patterns_for_inputs ~n:4 ~inputs () in
  Alcotest.(check int) "four patterns" 4 (Pattern.Set.cardinal pats);
  Pattern.Set.iter
    (fun target ->
      match S.realize ~n:4 ~inputs ~target () with
      | Scheme.Unrealizable -> Alcotest.fail "an enumerated pattern must be realizable"
      | Scheme.Truncated -> Alcotest.fail "realize must not truncate at this scope"
      | Scheme.Realized actions ->
        (* replay and re-extract *)
        let final =
          List.fold_left (fun c a -> fst (S.E.apply_exn ~step:0 c a)) (S.E.init ~n:4 ~inputs)
            actions
        in
        let extracted = Pattern.make (S.E.triples_of final) (S.E.pattern_edges final) in
        if not (Pattern.equal extracted target) then
          Alcotest.fail "replayed execution does not reproduce the target pattern")
    pats

let test_realize_rejects_foreign_pattern () =
  let (module P) = Patterns_protocols.Chain_proto.fig3 in
  let module S = Scheme.Make (P) in
  (* a pattern the chain protocol never produces *)
  let foreign = Pattern.make [ tr ~s:3 ~r:2 ~k:1 ] [] in
  Alcotest.(check bool) "not realizable" true
    (S.realize ~n:4 ~inputs:[ true; true; true; true ] ~target:foreign ()
    = Scheme.Unrealizable)

(* ----- latency ----- *)

let test_latency_fixed_delays () =
  let r = RE.run ~scheduler:RE.fifo_scheduler ~n:3 ~inputs:[ true; true; true ] () in
  (* chain of two messages, fixed delay 10, unit steps:
     p0 sends at 1; arrives 11; p1 receives at 12, sends at 13;
     arrives 23; p2 receives at 24 and takes one final (null) step *)
  let t = Latency.evaluate ~seed:1 ~model:(Latency.Fixed 10.0) ~n:3 r.RE.trace in
  Alcotest.(check (float 1e-9)) "completion" 25.0 t.Latency.completion;
  Alcotest.(check int) "critical path" 2 (Latency.critical_path_bound r.RE.trace)

let test_latency_deterministic_per_seed () =
  let (module P) = Patterns_protocols.Two_phase_commit.default in
  let module E = Engine.Make (P) in
  let r = E.run ~scheduler:E.fifo_scheduler ~n:4 ~inputs:[ true; true; true; true ] () in
  let model = Latency.Uniform { lo = 1.0; hi = 9.0 } in
  let t1 = Latency.evaluate ~seed:7 ~model ~n:4 r.E.trace in
  let t2 = Latency.evaluate ~seed:7 ~model ~n:4 r.E.trace in
  let t3 = Latency.evaluate ~seed:8 ~model ~n:4 r.E.trace in
  Alcotest.(check (float 1e-12)) "same seed same completion" t1.Latency.completion
    t2.Latency.completion;
  Alcotest.(check bool) "different seed differs" true
    (t1.Latency.completion <> t3.Latency.completion)

let test_latency_receive_after_send () =
  let (module P) = Patterns_protocols.Tree_proto.fig1 in
  let module E = Engine.Make (P) in
  let r = E.run ~scheduler:E.fifo_scheduler ~n:7 ~inputs:(List.init 7 (fun _ -> true)) () in
  let t = Latency.evaluate ~seed:3 ~model:(Latency.Uniform { lo = 2.0; hi = 5.0 }) ~n:7 r.E.trace in
  List.iter
    (fun (_, sent, received) ->
      if received <= sent then Alcotest.fail "message received no later than sent")
    t.Latency.msg_times

let test_latency_per_link () =
  let r = RE.run ~scheduler:RE.fifo_scheduler ~n:3 ~inputs:[ true; true; true ] () in
  (* p0->p1 slow, p1->p2 fast *)
  let model = Latency.Per_link (fun s _ -> if s = 0 then 100.0 else 1.0) in
  let t = Latency.evaluate ~seed:1 ~model ~n:3 r.RE.trace in
  Alcotest.(check (float 1e-9)) "completion dominated by slow link" 106.0 t.Latency.completion

let test_latency_decision_times () =
  let (module P) = Patterns_protocols.Chain_proto.fig3 in
  let module E = Engine.Make (P) in
  let r = E.run ~scheduler:E.fifo_scheduler ~n:4 ~inputs:[ true; true; true; true ] () in
  let times =
    Latency.decision_times ~seed:5 ~model:(Latency.Fixed 10.0) ~n:4 r.E.trace
  in
  Alcotest.(check int) "four decisions" 4 (List.length times);
  (* decisions flow down the chain, so their times strictly increase *)
  let rec increasing = function
    | (_, a) :: ((_, b) :: _ as tl) -> a < b && increasing tl
    | _ -> true
  in
  Alcotest.(check bool) "chain order in time" true (increasing times)

let test_lanes_rendering () =
  let r = RE.run ~scheduler:RE.fifo_scheduler ~n:3 ~inputs:[ true; true; true ] () in
  let out = Render.lanes ~pp_msg:Relay.pp_msg ~n:3 r.RE.trace in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "has header" true
    (match lines with h :: _ -> String.length h >= 3 && String.sub h 0 2 = "p0" | [] -> false);
  (* one row per event plus header and rule *)
  Alcotest.(check int) "rows" (List.length r.RE.trace + 2)
    (List.length (List.filter (fun l -> l <> "") lines))

(* ----- reduce ----- *)

let test_reduce_equal_and_subscheme () =
  let m1 = tr ~s:0 ~r:1 ~k:1 and m2 = tr ~s:1 ~r:2 ~k:1 in
  let p1 = Pattern.make [ m1 ] [] in
  let p2 = Pattern.make [ m1; m2 ] [ (m1, m2) ] in
  let small = Pattern.Set.singleton p1 in
  let big = Pattern.Set.of_list [ p1; p2 ] in
  Alcotest.(check bool) "equal" true (Reduce.compare_schemes small small = Reduce.Equal);
  Alcotest.(check bool) "left sub" true (Reduce.compare_schemes small big = Reduce.Left_subscheme);
  Alcotest.(check bool) "right sub" true (Reduce.compare_schemes big small = Reduce.Right_subscheme)

let test_reduce_fig4_variants_incomparable () =
  let rel, left, right =
    Reduce.compare_protocols ~n:4 Patterns_protocols.Perverse_proto.fig4_amnesic
      Patterns_protocols.Perverse_proto.fig4
  in
  Alcotest.(check int) "left has 4" 4 (Pattern.Set.cardinal left);
  Alcotest.(check int) "right has 4" 4 (Pattern.Set.cardinal right);
  match rel with
  | Reduce.Incomparable { only_left; only_right } ->
    Alcotest.(check int) "witness: {m1,m2} without m3" 19 (Pattern.message_count only_left);
    Alcotest.(check int) "witness: the full pattern" 20 (Pattern.message_count only_right)
  | _ -> Alcotest.fail "expected incomparable schemes"

(* ----- rendering ----- *)

let test_render_dot () =
  let m1 = tr ~s:0 ~r:1 ~k:1 and m2 = tr ~s:1 ~r:2 ~k:1 in
  let p = Pattern.make [ m1; m2 ] [ (m1, m2) ] in
  let dot = Patterns_stdx.Dot.to_string (Render.pattern_to_dot p) in
  let contains s frag =
    let ls = String.length s and lf = String.length frag in
    let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "nodes present" true (contains dot "p0->p1#1");
  Alcotest.(check bool) "edge present" true (contains dot "\"p0->p1#1\" -> \"p1->p2#1\"")

let test_render_ascii_and_msc () =
  let r = RE.run ~scheduler:RE.fifo_scheduler ~n:3 ~inputs:[ true; true; true ] () in
  let p = Pattern.of_trace r.RE.trace in
  Alcotest.(check bool) "ascii nonempty" true (String.length (Render.pattern_ascii p) > 0);
  Alcotest.(check bool) "msc nonempty" true
    (String.length (Render.msc ~pp_msg:Relay.pp_msg r.RE.trace) > 0)

(* ----- independent happens-before reference ----- *)

(* Compute the paper's <_I directly from trace positions: rule (1) —
   same sender, earlier send; rule (2) — m1's receiver sends m2 after
   receiving m1; then close transitively.  This shares no code with
   the engine's knowledge-set bookkeeping. *)
let reference_pattern trace =
  let sends = ref [] and receives = ref [] in
  List.iteri
    (fun pos ev ->
      match ev with
      | Trace.Sent { triple; _ } -> sends := (triple, pos) :: !sends
      | Trace.Delivered_msg { triple; _ } -> receives := (triple, pos) :: !receives
      | _ -> ())
    trace;
  let sends = List.rev !sends and receives = List.rev !receives in
  let triples = List.map fst sends in
  let send_pos m = List.assoc m sends in
  let recv_pos m = List.assoc_opt m receives in
  let direct m1 m2 =
    (not (Triple.equal m1 m2))
    && ((m1.Triple.sender = m2.Triple.sender && send_pos m1 < send_pos m2)
       ||
       match recv_pos m1 with
       | Some r -> m1.Triple.receiver = m2.Triple.sender && r < send_pos m2
       | None -> false)
  in
  let pairs =
    List.concat_map
      (fun m1 -> List.filter_map (fun m2 -> if direct m1 m2 then Some (m1, m2) else None) triples)
      triples
  in
  Pattern.make triples pairs

let test_reference_happens_before () =
  (* engine bookkeeping must agree with the paper's rules on random
     fair runs of several protocols, each under a random plan of 0-2
     crashes: both the pattern rebuilt from the trace's causes and the
     one the final configuration carries *)
  List.iter
    (fun (p, n) ->
      let (module P : Protocol.S) = p in
      let module E = Engine.Make (P) in
      for seed = 1 to 15 do
        let prng = Patterns_stdx.Prng.create ~seed in
        let inputs = List.init n (fun _ -> Patterns_stdx.Prng.bool prng) in
        let failures =
          List.init (Patterns_stdx.Prng.int prng ~bound:3) (fun _ ->
              let k = Patterns_stdx.Prng.int prng ~bound:60 in
              (k, Patterns_stdx.Prng.int prng ~bound:n))
        in
        let r = E.run ~failures ~scheduler:(E.random_scheduler prng) ~n ~inputs () in
        let reference = reference_pattern r.E.trace in
        List.iter
          (fun (what, engine_pattern) ->
            if not (Pattern.equal engine_pattern reference) then
              Alcotest.fail
                (Format.asprintf
                   "%s seed %d: %s pattern differs from the reference@.%a@.vs@.%a" P.name seed
                   what Pattern.pp engine_pattern Pattern.pp reference))
          [
            ("trace", Pattern.of_trace r.E.trace);
            ( "final configuration",
              Pattern.make (E.triples_of r.E.final) (E.pattern_edges r.E.final) );
          ]
      done)
    [
      (Patterns_protocols.Two_phase_commit.default, 4);
      (Patterns_protocols.Tree_proto.fig1, 7);
      (Patterns_protocols.Perverse_proto.fig4, 4);
      (Patterns_protocols.Central_proto.fig2, 4);
      (Patterns_protocols.Termination_proto.default, 3);
    ]

(* ----- properties ----- *)

let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~count:50 ~name:"patterns of random fair runs are strict partial orders"
      Gen.(int_range 1 10_000)
      (fun seed ->
        let (module P) = Patterns_protocols.Two_phase_commit.default in
        let module E = Engine.Make (P) in
        let prng = Patterns_stdx.Prng.create ~seed in
        let inputs = List.init 4 (fun _ -> Patterns_stdx.Prng.bool prng) in
        let r = E.run ~scheduler:(E.random_scheduler prng) ~n:4 ~inputs () in
        let p = Pattern.of_trace r.E.trace in
        (* closure is irreflexive and transitive by construction; check
           sanity: same-sender messages are totally ordered *)
        let msgs = Pattern.messages p in
        List.for_all
          (fun (a : Triple.t) ->
            List.for_all
              (fun (b : Triple.t) ->
                Triple.equal a b
                || a.Triple.sender <> b.Triple.sender
                || Pattern.lt p a b || Pattern.lt p b a)
              msgs)
          msgs);
    Test.make ~count:30 ~name:"pattern of a prefix embeds in the full pattern"
      Gen.(int_range 1 10_000)
      (fun seed ->
        let (module P) = Patterns_protocols.Chain_proto.fig3 in
        let module E = Engine.Make (P) in
        let prng = Patterns_stdx.Prng.create ~seed in
        let r = E.run ~scheduler:(E.random_scheduler prng) ~n:4 ~inputs:[ true; true; true; true ] () in
        let k = Patterns_stdx.Prng.int prng ~bound:(List.length r.E.trace + 1) in
        let prefix = Pattern.of_trace (Patterns_stdx.Listx.take k r.E.trace) in
        let full = Pattern.of_trace r.E.trace in
        Pattern.is_prefix_consistent prefix full);
  ]

let () =
  Alcotest.run "pattern"
    [
      ( "construction",
        [
          Alcotest.test_case "closure" `Quick test_make_closure;
          Alcotest.test_case "concurrency" `Quick test_concurrent;
          Alcotest.test_case "width/height" `Quick test_width_height;
          Alcotest.test_case "delivery orders" `Quick test_delivery_orders;
          Alcotest.test_case "received none" `Quick test_received_none;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "relay chain" `Quick test_extraction_chain;
          Alcotest.test_case "prefix consistency" `Quick test_prefix_consistency;
          Alcotest.test_case "reference happens-before" `Quick test_reference_happens_before;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "relay has one pattern" `Quick test_scheme_relay_single_pattern;
          Alcotest.test_case "fig3 single pattern" `Quick test_scheme_fig3_single_pattern;
          Alcotest.test_case "fig1 pattern count" `Slow test_scheme_fig1_pattern_count;
          Alcotest.test_case "fig4 four patterns" `Quick test_scheme_fig4_four_patterns;
          Alcotest.test_case "subscheme" `Quick test_subscheme;
          Alcotest.test_case "total-communication subscheme" `Slow test_totalcomm_subscheme;
        ] );
      ( "realize",
        [
          Alcotest.test_case "fig4 round trip" `Quick test_realize_fig4_roundtrip;
          Alcotest.test_case "foreign pattern rejected" `Quick test_realize_rejects_foreign_pattern;
        ] );
      ( "latency",
        [
          Alcotest.test_case "fixed delays" `Quick test_latency_fixed_delays;
          Alcotest.test_case "seeded determinism" `Quick test_latency_deterministic_per_seed;
          Alcotest.test_case "receive after send" `Quick test_latency_receive_after_send;
          Alcotest.test_case "per-link model" `Quick test_latency_per_link;
          Alcotest.test_case "decision times" `Quick test_latency_decision_times;
          Alcotest.test_case "lane rendering" `Quick test_lanes_rendering;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "equal and subscheme" `Quick test_reduce_equal_and_subscheme;
          Alcotest.test_case "fig4 variants incomparable" `Quick test_reduce_fig4_variants_incomparable;
        ] );
      ( "render",
        [
          Alcotest.test_case "dot" `Quick test_render_dot;
          Alcotest.test_case "ascii and msc" `Quick test_render_ascii_and_msc;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
