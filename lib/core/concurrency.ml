open Patterns_sim
open Patterns_stdx
module Search = Patterns_search.Search

module Make (P : Protocol.S) = struct
  module E = Engine.Make (P)

  module State_set = Set.Make (struct
    type t = P.state

    let compare = P.compare_state
  end)

  module State_map = Map.Make (struct
    type t = P.state

    let compare = P.compare_state
  end)

  (* flat behaviour-only configurations, deduplicated as Explore does *)
  module Config = struct
    type state = E.Flat.t

    let compare = E.Flat.compare
    let fingerprint = E.Flat.fingerprint
  end

  module K = Search.Make (Config)

  (* C(s) of every operational local state reached *)
  type t = { sets : State_set.t State_map.t; truncated : bool }

  let union = State_map.union (fun _ a b -> Some (State_set.union a b))

  (* Folds the configuration's co-occurrences into [acc] and returns
     its successors.  A processor's state co-occurs with the states of
     the other operational processors — two processors sharing a
     state legitimately put that state in its own C(s). *)
  let expand ~n ~max_failures acc c =
    let ops = List.filter (fun p -> not (E.Flat.is_failed c p)) (Proc_id.all ~n) in
    List.iter
      (fun p ->
        let others =
          List.filter_map (fun q -> if q = p then None else Some (E.Flat.state_of c q)) ops
          |> State_set.of_list
        in
        acc :=
          State_map.update (E.Flat.state_of c p)
            (fun cs -> Some (Option.fold ~none:others ~some:(State_set.union others) cs))
            !acc)
      ops;
    let fails = if n - List.length ops < max_failures then E.Flat.failure_actions c else [] in
    List.filter_map
      (fun a ->
        match E.Flat.step c a with E.Flat.Next (c', _) -> Some c' | E.Flat.Refused _ -> None)
      (E.Flat.applicable c @ fails)

  let build ?(max_failures = 1) ?(max_configs = 400_000) ?inputs_choices ~n () =
    let inputs_choices =
      match inputs_choices with Some v -> v | None -> Listx.all_bool_vectors n
    in
    (* Explore's even split of the total node budget over the vectors *)
    let nvec = max 1 (List.length inputs_choices) in
    let budget = (max_configs + nvec - 1) / nvec in
    let expand =
      {
        K.empty = (fun () -> ref State_map.empty);
        merge = (fun a b -> ref (union !a !b));
        expand = expand ~n ~max_failures;
      }
    in
    let metrics = ref Patterns_search.Metrics.zero in
    let sets =
      Search.sweep ~metrics ~jobs:1
        ~root:(fun ~deadline:_ inputs ->
          let _, acc, m = K.run ~budget ~expand ~root:(E.Flat.init ~n ~inputs) () in
          (!acc, m))
        ~merge:union State_map.empty inputs_choices
    in
    { sets; truncated = !metrics.Patterns_search.Metrics.truncated_roots > 0 }

  let state_count t = State_map.cardinal t.sets
  let states t = List.map fst (State_map.bindings t.sets)

  let concurrency_set t s =
    match State_map.find_opt s t.sets with None -> [] | Some cs -> State_set.elements cs

  let co_occur t s1 s2 =
    match State_map.find_opt s1 t.sets with None -> false | Some cs -> State_set.mem s2 cs

  let truncated t = t.truncated

  let pp_summary ppf t =
    let sizes =
      State_map.fold (fun _ cs acc -> float_of_int (State_set.cardinal cs) :: acc) t.sets []
    in
    let stats = Stats.summarize sizes in
    Format.fprintf ppf "%d states%s; |C(s)|: mean %.1f, max %.0f" (state_count t)
      (if t.truncated then " (truncated)" else "")
      stats.Stats.mean stats.Stats.max
end
