open Patterns_sim
open Patterns_search

type stats = {
  configs_visited : int;
  terminal_configs : int;
  truncated : bool;
}

let pp_stats ppf s =
  Format.fprintf ppf "visited=%d terminal=%d%s" s.configs_visited s.terminal_configs
    (if s.truncated then " (TRUNCATED)" else "")

type realization =
  | Realized of Action.t list
  | Unrealizable
  | Truncated

module Make (P : Protocol.S) = struct
  module E = Engine.Make (P)

  (* One root per input vector; all bookkeeping (frontier, visited
     set, budget, counters) lives in the kernel — this layer only
     says how a configuration expands and what to collect at
     terminals. *)

  module Pr = struct
    type state = E.config

    let compare = E.compare_config
    let fingerprint = E.fingerprint

    (* expansion without observation: reversed, because the
       historical stack discipline explored the last applicable action
       first, and truncated counts are pinned to that order by the
       jobs-invariance tests *)
    let successors c actions = List.rev_map (fun a -> fst (E.apply_exn ~step:0 c a)) actions
  end

  module K = Search.Make (Pr)

  (* Observation accumulator (one per search under the serial driver,
     one per worker under the async one).  [seen_pats] is the
     terminal-pattern cache: distinct
     terminal configurations mostly repeat a handful of patterns, and
     extraction ([Pattern.make]) is far more expensive than a
     fingerprint probe.  Keyed by [E.pattern_fp]; a hit is only
     trusted when [E.same_pattern_rep] confirms it on the interned
     representation, so a fingerprint collision merely costs one
     redundant extraction.  The cache is accumulator-local (dropped at
     merge), so it never leaks observations across accumulators —
     [Pattern.Set.union] dedups structurally either way. *)
  type obs = {
    mutable pats : Pattern.Set.t;
    mutable terminal : int;
    seen_pats : (int, E.config list) Hashtbl.t;
  }

  let obs_expand =
    {
      K.empty =
        (fun () ->
          { pats = Pattern.Set.empty; terminal = 0; seen_pats = Hashtbl.create 16 });
      merge =
        (fun a b ->
          a.pats <- Pattern.Set.union a.pats b.pats;
          a.terminal <- a.terminal + b.terminal;
          a);
      expand =
        (fun o c ->
          match E.applicable c with
          | [] ->
            o.terminal <- o.terminal + 1;
            let key = Patterns_stdx.Fingerprint.to_int (E.pattern_fp c) in
            let bucket = Option.value (Hashtbl.find_opt o.seen_pats key) ~default:[] in
            if not (List.exists (E.same_pattern_rep c) bucket) then begin
              Hashtbl.replace o.seen_pats key (c :: bucket);
              o.pats <-
                Pattern.Set.add (Pattern.make (E.triples_of c) (E.pattern_edges c)) o.pats
            end;
            []
          | actions -> Pr.successors c actions);
    }

  (* [obs] merging is union/sum — commutative as well as associative —
     so the async driver's worker-order fold collects the same pattern
     set and terminal count as the serial driver's single fold. *)
  let patterns_for_inputs_m ?pool ?(par_mode = Search.Async)
      ?(max_configs = 1_000_000) ?deadline ?max_live ?spill ~n ~inputs () =
    let root = E.init ~n ~inputs in
    let outcome, o, m =
      match par_mode with
      | Search.Layers ->
        K.run ~budget:max_configs ?deadline ?max_live ?spill ~expand:obs_expand ~root ()
      | Search.Async ->
        K.run_par_async ?pool ~budget:max_configs ?deadline ?max_live ?spill
          ~expand:obs_expand ~root ()
    in
    let m = Metrics.with_intern_bindings (E.intern_bindings root) m in
    ( ( o.pats,
        {
          configs_visited = m.Metrics.states_expanded;
          terminal_configs = o.terminal;
          truncated = Search.truncated outcome;
        } ),
      m )

  let patterns_for_inputs ?metrics ?(jobs = 1) ?(par_mode = Search.Async) ?max_configs
      ?deadline ?max_live ?spill ~n ~inputs () =
    let result, m =
      Search.with_pool ~jobs par_mode (fun pool ->
          patterns_for_inputs_m ~pool ~par_mode ?max_configs ?deadline ?max_live ?spill ~n
            ~inputs ())
    in
    Search.merge_into metrics m;
    result

  (* The checkpoint header encodes everything a per-root payload
     depends on: protocol, n, the per-root budget knobs, the driver
     family, the spill budget (which shifts the /7 counters inside
     recorded metrics) and any extra client key (realization targets).
     [jobs] and [deadline] are deliberately absent — jobs never
     changes a payload, and deadline-truncated roots are never
     recorded. *)
  let checkpoint_header ~kind ?max_configs ?max_live ?par_mode ?spill ?(extra = "") ~n ()
      =
    let opt = function None -> "-" | Some i -> string_of_int i in
    Printf.sprintf "%s/1|%s|n=%d|mc=%s|ml=%s|mode=%s|spill=%s%s" kind P.name n
      (opt max_configs) (opt max_live)
      (Search.par_mode_string (Option.value par_mode ~default:Search.Async))
      (opt (Option.map (fun s -> s.Search.mem_budget) spill))
      (if extra = "" then "" else "|" ^ extra)

  (* [par_mode] defaults to [Layers], not [Async]: the documented
     shortest-witness guarantee, identical for every [jobs], needs the
     serial driver's breadth-first order.  [Async] is still accepted
     for callers that only need *a* witness. *)
  let realize ?metrics ?(jobs = 1) ?(par_mode = Search.Layers)
      ?(max_configs = 1_000_000) ?deadline ?max_live ?spill ?checkpoint ~n ~inputs
      ~target () =
    (* the accumulated pattern must be a prefix of the target: its
       triples a subset, and the orders in agreement *)
    let prefix_ok c =
      let here = Pattern.make (E.triples_of c) (E.pattern_edges c) in
      Pattern.is_prefix_consistent here target
    in
    let module R = struct
      (* A configuration plus the reversed event path that reached it;
         dedup ignores the path.  [acts] memoizes [E.applicable], which
         both the goal test and the expansion need; a state is
         goal-tested and expanded by the same worker, so the lazy is
         never forced concurrently. *)
      type state = { c : E.config; path : Action.t list; acts : Action.t list Lazy.t }

      let make c path = { c; path; acts = lazy (E.applicable c) }
      let compare a b = E.compare_config a.c b.c
      let fingerprint s = E.fingerprint s.c
    end in
    let module K = Search.Make (R) in
    let expand =
      {
        K.empty = Fun.id;
        merge = (fun () () -> ());
        expand =
          (fun () s ->
            List.map
              (fun a -> R.make (fst (E.apply_exn ~step:0 s.R.c a)) (a :: s.R.path))
              (Lazy.force s.R.acts));
      }
    in
    let is_goal s =
      Lazy.force s.R.acts = []
      && Pattern.equal (Pattern.make (E.triples_of s.R.c) (E.pattern_edges s.R.c)) target
    in
    let prune s = not (prefix_ok s.R.c) in
    (* the target (and input vector) are part of what the recorded
       answer depends on; a structural digest keys them into the
       header *)
    let checkpoint =
      Option.map
        (fun spec ->
          ( spec,
            checkpoint_header ~kind:"realize" ~max_configs ?max_live ~par_mode ?spill
              ~extra:
                (Printf.sprintf "key=%s"
                   (Digest.to_hex (Digest.string (Marshal.to_string (inputs, target) []))))
              ~n () ))
        checkpoint
    in
    (* a realization is a sweep of one root, recorded at index 0 *)
    Search.sweep ?metrics ?deadline ?checkpoint ~jobs par_mode
      ~root:(fun pool ~deadline () ->
        let root_config = E.init ~n ~inputs in
        let root = R.make root_config [] in
        let outcome, (), m =
          match par_mode with
          | Search.Layers ->
            K.run ~budget:max_configs ?deadline ?max_live ?spill ~is_goal ~prune ~expand ~root ()
          | Search.Async ->
            K.run_par_async ~pool ~budget:max_configs ?deadline ?max_live ?spill ~is_goal
              ~prune ~expand ~root ()
        in
        let r =
          match outcome with
          | Search.Goal_found s -> Realized (List.rev s.R.path)
          | Search.Exhausted -> Unrealizable
          | Search.Truncated _ -> Truncated
        in
        (r, Metrics.with_intern_bindings (E.intern_bindings root_config) m))
      ~merge:(fun _ r -> r) Truncated [ () ]

  let merge_stats a b =
    {
      configs_visited = a.configs_visited + b.configs_visited;
      terminal_configs = a.terminal_configs + b.terminal_configs;
      truncated = a.truncated || b.truncated;
    }

  (* Input vectors are part of every configuration, so no configuration
     is reachable from two different vectors: the roots partition the
     state space, and payloads merge in vector order. *)
  let scheme ?metrics ?max_configs ?deadline ?max_live ?(jobs = 1) ?par_mode ?spill
      ?checkpoint ~n () =
    let checkpoint =
      Option.map
        (fun spec ->
          (spec, checkpoint_header ~kind:"scheme" ?max_configs ?max_live ?par_mode ?spill ~n ()))
        checkpoint
    in
    Search.sweep ?metrics ?deadline ?checkpoint ~jobs
      (Option.value par_mode ~default:Search.Async)
      ~root:(fun pool ~deadline inputs ->
        patterns_for_inputs_m ~pool ?par_mode ?max_configs ?deadline ?max_live ?spill ~n
          ~inputs ())
      ~merge:(fun (acc, st) (pats, st') -> (Pattern.Set.union acc pats, merge_stats st st'))
      (Pattern.Set.empty, { configs_visited = 0; terminal_configs = 0; truncated = false })
      (Patterns_stdx.Listx.all_bool_vectors n)
end

let subscheme a b = Pattern.Set.subset a b

let equal_schemes a b = Pattern.Set.equal a b

let pp_scheme ppf s =
  let pats = Pattern.Set.elements s in
  Format.fprintf ppf "@[<v>%d pattern(s):@," (List.length pats);
  List.iteri (fun i p -> Format.fprintf ppf "-- pattern %d --@,%a@," (i + 1) Pattern.pp p) pats;
  Format.fprintf ppf "@]"
