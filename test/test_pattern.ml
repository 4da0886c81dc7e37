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

(* ----- the pattern layer against a reference over configurations ----- *)

module Search = Patterns_search.Search
module Metrics = Patterns_search.Metrics

(* Scheme enumeration and realization as the kernel ran them over
   [E.config]: deduplicated on [compare_config] and [fingerprint],
   stepped with [apply].  A test-owned reference for [Scheme.Make],
   which runs on [E.Patterned]. *)
module Reference (P : Protocol.S) = struct
  module E = Engine.Make (P)

  module K = Search.Make (struct
    type state = E.config

    let compare = E.compare_config
    let fingerprint = E.fingerprint
  end)

  let pattern c = Pattern.make (E.triples_of c) (E.pattern_edges c)
  let step c a = fst (E.apply_exn ~step:0 c a)

  let patterns ~par_mode ~max_configs ~n ~inputs =
    let expand =
      {
        K.empty = (fun () -> (ref Pattern.Set.empty, ref 0));
        merge = (fun a _ -> a);
        expand =
          (fun (pats, terminal) c ->
            match E.applicable c with
            | [] ->
              incr terminal;
              pats := Pattern.Set.add (pattern c) !pats;
              []
            | actions -> List.rev_map (step c) actions);
      }
    in
    let root = E.init ~n ~inputs in
    let outcome, (pats, terminal), m =
      match par_mode with
      | Search.Layers -> K.run ~budget:max_configs ~expand ~root ()
      | Search.Async -> K.run_par_async ~budget:max_configs ~expand ~root ()
    in
    ( !pats,
      {
        Scheme.configs_visited = m.Metrics.states_expanded;
        terminal_configs = !terminal;
        truncated = Search.truncated outcome;
      },
      m )

  module R = struct
    type state = { c : E.config; path : Action.t list }

    let compare a b = E.compare_config a.c b.c
    let fingerprint s = E.fingerprint s.c
  end

  module KR = Search.Make (R)

  let realize ~par_mode ~max_configs ~n ~inputs ~target =
    let expand =
      {
        KR.empty = Fun.id;
        merge = (fun () () -> ());
        expand =
          (fun () s ->
            List.map (fun a -> { R.c = step s.R.c a; path = a :: s.R.path }) (E.applicable s.R.c));
      }
    in
    let is_goal s = E.applicable s.R.c = [] && Pattern.equal (pattern s.R.c) target in
    let prune s = not (Pattern.is_prefix_consistent (pattern s.R.c) target) in
    let root = { R.c = E.init ~n ~inputs; path = [] } in
    let outcome, (), m =
      match par_mode with
      | Search.Layers -> KR.run ~budget:max_configs ~is_goal ~prune ~expand ~root ()
      | Search.Async -> KR.run_par_async ~budget:max_configs ~is_goal ~prune ~expand ~root ()
    in
    ( (match outcome with
      | Search.Goal_found s -> Scheme.Realized (List.rev s.R.path)
      | Search.Exhausted -> Scheme.Unrealizable
      | Search.Truncated _ -> Scheme.Truncated),
      m )

  (* the states a behaviour-only dedup ([compare_behavioral]) expands *)
  module KB = Search.Make (struct
    type state = E.config

    let compare = E.compare_behavioral
    let fingerprint = E.behavioral_fingerprint
  end)

  let behavioural_states ~n ~inputs =
    let expand =
      {
        KB.empty = Fun.id;
        merge = (fun () () -> ());
        expand = (fun () c -> List.rev_map (step c) (E.applicable c));
      }
    in
    let _, (), m = KB.run_par_async ~expand ~root:(E.init ~n ~inputs) () in
    m.Metrics.states_expanded

  (* A depth-first walk from one root that steps a configuration and
     a pattern-layer one side by side, stops at behavioural repeats
     and expands at most [limit] behavioural states: every repeat,
     paired with the configuration it repeats.  The two agree on
     states, failure flags and buffers, and may differ in their
     pattern bookkeeping. *)
  let behavioural_twins ~limit ~n ~inputs =
    let module C = E.Patterned in
    let seen = Hashtbl.create 256 in
    let twins = ref [] and expanded = ref 0 in
    let rec visit ((c, l) as node) =
      let key = E.hash_behavioral c in
      let bucket = Option.value (Hashtbl.find_opt seen key) ~default:[] in
      match List.find_opt (fun (c', _) -> E.compare_behavioral c c' = 0) bucket with
      | Some twin -> twins := (node, twin) :: !twins
      | None ->
        Hashtbl.replace seen key (node :: bucket);
        if !expanded < limit then begin
          incr expanded;
          List.iter (fun a -> visit (step c a, C.step l a)) (E.applicable c)
        end
    in
    visit (E.init ~n ~inputs, C.init ~n ~inputs);
    !twins
end

let drivers = Search.[ Layers; Async ]

(* [what] of a run, labelled with its parameters *)
let oracle_label name inputs par_mode budget what =
  Printf.sprintf "%s %s %s budget %d: %s" name (Patterns_stdx.Listx.bits inputs)
    (Search.par_mode_string par_mode) budget what

let check_counts label (m : Metrics.t) (rm : Metrics.t) =
  Alcotest.(check int) (label "states_expanded") rm.Metrics.states_expanded
    m.Metrics.states_expanded;
  Alcotest.(check int) (label "dedup_hits") rm.Metrics.dedup_hits m.Metrics.dedup_hits

(* Every registry protocol at small n, two input vectors each, under
   both drivers, with a budget most vectors exhaust (1 500 states;
   500 for realizations) and a tiny one: the same pattern sets, stats
   and kernel counters as the reference, and the same [realize]
   answers and witnesses for two enumerated patterns and one that no
   execution has. *)
let test_oracle_registry () =
  List.iter
    (fun entry ->
      let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
      let n = if P.valid_n 3 then 3 else entry.Patterns_protocols.Registry.default_n in
      let module S = Scheme.Make (P) in
      let module Ref = Reference (P) in
      let vectors = [ List.init n (fun _ -> true); List.init n (fun i -> i mod 2 = 0) ] in
      List.iter
        (fun inputs ->
          List.iter
            (fun par_mode ->
              let targets = ref [] in
              List.iter
                (fun budget ->
                  let label = oracle_label P.name inputs par_mode budget in
                  let metrics = ref Metrics.zero in
                  let pats, stats =
                    S.patterns_for_inputs ~metrics ~par_mode ~max_configs:budget ~n ~inputs ()
                  in
                  let rpats, rstats, rm = Ref.patterns ~par_mode ~max_configs:budget ~n ~inputs in
                  Alcotest.(check bool) (label "patterns") true (Pattern.Set.equal rpats pats);
                  Alcotest.(check bool) (label "stats") true (rstats = stats);
                  check_counts label !metrics rm;
                  if !targets = [] then
                    targets :=
                      List.filteri (fun i _ -> i < 2) (Pattern.Set.elements rpats)
                      @ [ Pattern.make [ tr ~s:(n - 1) ~r:0 ~k:9 ] [] ])
                [ 1_500; 40 ];
              List.iter
                (fun target ->
                  List.iter
                    (fun budget ->
                      let label = oracle_label P.name inputs par_mode budget in
                      let metrics = ref Metrics.zero in
                      let r = S.realize ~metrics ~par_mode ~max_configs:budget ~n ~inputs ~target () in
                      let rr, rm = Ref.realize ~par_mode ~max_configs:budget ~n ~inputs ~target in
                      Alcotest.(check bool) (label "realize") true (rr = r);
                      check_counts label !metrics rm)
                    [ 500; 10 ])
                !targets)
            drivers)
        vectors)
    Patterns_protocols.Registry.all

(* Figure 4's scheme over all 16 vectors, whose count a behaviour-only
   dedup would change (6 800 configurations instead of 6 816): the
   layer's sweep reads the reference's patterns and counts. *)
let test_oracle_fig4 () =
  let (module P) = Patterns_protocols.Perverse_proto.fig4 in
  let module S = Scheme.Make (P) in
  let module Ref = Reference (P) in
  let vectors = Patterns_stdx.Listx.all_bool_vectors 4 in
  List.iter
    (fun par_mode ->
      let metrics = ref Metrics.zero in
      let pats, stats = S.scheme ~metrics ~par_mode ~n:4 () in
      let rpats, states, dedup =
        List.fold_left
          (fun (pats, states, dedup) inputs ->
            let p, _, m = Ref.patterns ~par_mode ~max_configs:max_int ~n:4 ~inputs in
            (Pattern.Set.union pats p, states + m.Metrics.states_expanded, dedup + m.Metrics.dedup_hits))
          (Pattern.Set.empty, 0, 0) vectors
      in
      let mode = Search.par_mode_string par_mode in
      Alcotest.(check bool) (mode ^ ": patterns") true (Pattern.Set.equal rpats pats);
      Alcotest.(check int) (mode ^ ": reference configs") 6_816 states;
      Alcotest.(check int) (mode ^ ": configs") states stats.Scheme.configs_visited;
      Alcotest.(check int) (mode ^ ": states_expanded") states !metrics.Metrics.states_expanded;
      Alcotest.(check int) (mode ^ ": dedup_hits") dedup !metrics.Metrics.dedup_hits;
      Alcotest.(check int) (mode ^ ": reference dedup_hits") 10_368 dedup)
    drivers;
  Alcotest.(check int) "behaviour-only dedup" 6_800
    (List.fold_left (fun acc inputs -> acc + Ref.behavioural_states ~n:4 ~inputs) 0 vectors)

(* The search outcomes above cannot see a comparison that is wrong
   only where the fingerprints already differ, so the comparison is
   checked on its own, at the pairs where it matters: configurations
   with the same behaviour.  Over every registry protocol (all-ones
   inputs, up to 1 500 behavioural states) the layer's equality is
   [compare_config]'s at every such pair.  Some of them differ in
   their send counts (fig4-perverse) and some in their edges alone
   (reliable-broadcast, termination, ben-or). *)
let test_oracle_twins () =
  let differ_in_counts = ref 0 and differ_in_edges = ref 0 in
  List.iter
    (fun entry ->
      let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
      let n = if P.valid_n 3 then 3 else entry.Patterns_protocols.Registry.default_n in
      let module Ref = Reference (P) in
      List.iter
        (fun ((c, l), (c', l')) ->
          let same = Ref.E.compare_config c c' = 0 in
          Alcotest.(check bool) (P.name ^ ": twin equality") same (Ref.E.Patterned.compare l l' = 0);
          if not same then
            if Ref.E.triples_of c = Ref.E.triples_of c' then incr differ_in_edges
            else incr differ_in_counts)
        (Ref.behavioural_twins ~limit:1_500 ~n ~inputs:(List.init n (fun _ -> true))))
    Patterns_protocols.Registry.all;
  Alcotest.(check bool) "twins differing in their send counts" true (!differ_in_counts > 0);
  Alcotest.(check bool) "twins differing in their edges alone" true (!differ_in_edges > 0)

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
      ( "oracle",
        [
          Alcotest.test_case "registry, both drivers" `Quick test_oracle_registry;
          Alcotest.test_case "fig4 full vs behavioural" `Quick test_oracle_fig4;
          Alcotest.test_case "behavioural twins" `Quick test_oracle_twins;
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
