(* Shadow searches for the traced run.

   A shadow replays a sweep's search on the same kernel driver
   ([Search.Make(_).run_par_async], one worker) over a bench-owned
   Problem whose node is the real call's node — Explore's (behavioural
   configuration, first decisions) pair with at most [max_failures]
   [Fail] successors, or Scheme's full configuration — but observes
   nothing.  Its engine calls and its fingerprint/compare are spanned,
   so the search kernel's self time is what the enclosing op span
   keeps, and the real call minus the untraced shadow is the
   observation layer's cost.  That split only holds if the shadow does
   the real call's work, so callers check [states] and [dedup] against
   the real call's metrics. *)

open Patterns_sim
module Fingerprint = Patterns_stdx.Fingerprint
module Domain_pool = Patterns_stdx.Domain_pool
module Search = Patterns_search.Search
module Metrics = Patterns_search.Metrics

let s_applicable = Span.make "sim.applicable"
let s_failure_actions = Span.make "sim.failure_actions"
let s_apply = Span.make "sim.apply"
let s_fingerprint = Span.make "sim.fingerprint"
let s_compare = Span.make "sim.compare"

(* the expand callback itself: its self time is the node bookkeeping
   (failure count, first-decision array, successor list) *)
let s_expand = Span.make "shadow.expand"

type result = {
  states : int;
  dedup : int;
  terminal : int;
  search_s : float;  (** per-root kernel wall clock, summed *)
}

let empty = { states = 0; dedup = 0; terminal = 0; search_s = 0. }

let add_root acc (m : Metrics.t) terminal =
  {
    states = acc.states + m.Metrics.states_expanded;
    dedup = acc.dedup + m.Metrics.dedup_hits;
    terminal = acc.terminal + terminal;
    search_s =
      List.fold_left
        (fun s (sh : Metrics.shard) -> s +. sh.Metrics.seconds)
        acc.search_s m.Metrics.shards;
  }

(* Explore's sweep: [Classify.classify ~max_failures ~jobs:1] minus
   every observation *)
module Explore (P : Protocol.S) = struct
  module E = Engine.Make (P)

  module Node = struct
    type state = E.config * Decision.t option array

    let compare (c1, d1) (c2, d2) =
      Span.enter s_compare;
      let c = E.compare_behavioral c1 c2 in
      let c = if c <> 0 then c else Stdlib.compare d1 d2 in
      Span.leave ();
      c

    let fingerprint (c, d) =
      Span.enter s_fingerprint;
      let h =
        Array.fold_left
          (fun h cell ->
            Fingerprint.feed h
              (match cell with
              | None -> 0
              | Some Decision.Commit -> 1
              | Some Decision.Abort -> 2))
          (E.behavioral_fingerprint c) d
      in
      Span.leave ();
      h

    let expand _ = invalid_arg "Shadow.Explore: expansion goes through run_par_async"
  end

  module K = Search.Make (Node)

  let first_decisions decided events =
    List.fold_left
      (fun decided ev ->
        match ev with
        | Trace.Decided { proc; decision; _ } when decided.(proc) = None ->
          let d = Array.copy decided in
          d.(proc) <- Some decision;
          d
        | _ -> decided)
      decided events

  let expand ~max_failures terminal ((config, decided) : Node.state) =
    Span.enter s_expand;
    Span.enter s_applicable;
    let actions = E.applicable config in
    Span.leave ();
    if actions = [] then incr terminal;
    let n = E.n_of config in
    let failed = List.length (List.filter (E.is_failed config) (Proc_id.all ~n)) in
    let fails =
      if failed < max_failures then begin
        Span.enter s_failure_actions;
        let f = E.failure_actions config in
        Span.leave ();
        f
      end
      else []
    in
    let succs =
      List.filter_map
        (fun a ->
          Span.enter s_apply;
          let r = E.apply ~step:0 config a in
          Span.leave ();
          match r with
          | Error _ -> None
          | Ok (config', events) -> Some (config', first_decisions decided events))
        (actions @ fails)
    in
    Span.leave ();
    List.rev succs

  let run ~max_failures ~max_configs ~n () =
    let vectors = Patterns_stdx.Listx.all_bool_vectors n in
    let budget = (max_configs + List.length vectors - 1) / List.length vectors in
    Domain_pool.with_pool ~jobs:1 (fun pool ->
        List.fold_left
          (fun acc inputs ->
            let root = (E.init ~n ~inputs, Array.make n None) in
            let _, terminal, m =
              K.run_par_async ~pool ~budget
                ~expand:
                  {
                    K.empty = (fun () -> ref 0);
                    merge = (fun a b -> a := !a + !b; a);
                    expand = expand ~max_failures;
                  }
                ~root ()
            in
            add_root acc m !terminal)
          empty vectors)
end

(* Scheme's sweep: [Scheme.Make(P).scheme ~jobs:1] minus the terminal
   pattern extraction *)
module Scheme (P : Protocol.S) = struct
  module E = Engine.Make (P)

  module Node = struct
    type state = E.config

    let compare a b =
      Span.enter s_compare;
      let c = E.compare_config a b in
      Span.leave ();
      c

    let fingerprint c =
      Span.enter s_fingerprint;
      let h = E.fingerprint c in
      Span.leave ();
      h

    let expand _ = invalid_arg "Shadow.Scheme: expansion goes through run_par_async"
  end

  module K = Search.Make (Node)

  let expand terminal c =
    Span.enter s_expand;
    Span.enter s_applicable;
    let actions = E.applicable c in
    Span.leave ();
    let succs =
      match actions with
      | [] ->
        incr terminal;
        []
      | actions ->
        List.rev_map
          (fun a ->
            Span.enter s_apply;
            let c' = fst (E.apply_exn ~step:0 c a) in
            Span.leave ();
            c')
          actions
    in
    Span.leave ();
    succs

  let run ~max_configs ~n () =
    Domain_pool.with_pool ~jobs:1 (fun pool ->
        List.fold_left
          (fun acc inputs ->
            let _, terminal, m =
              K.run_par_async ~pool ~budget:max_configs
                ~expand:
                  {
                    K.empty = (fun () -> ref 0);
                    merge = (fun a b -> a := !a + !b; a);
                    expand;
                  }
                ~root:(E.init ~n ~inputs) ()
            in
            add_root acc m !terminal)
          empty
          (Patterns_stdx.Listx.all_bool_vectors n))
end
