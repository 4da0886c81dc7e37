open Patterns_sim
open Patterns_stdx
module Db = Patterns_db.Db

module Make (P : Protocol.S) = struct
  module E = Engine.Make (P)

  type options = {
    max_failures : int;
    max_configs : int;
    inputs_choices : bool list list;
    fifo_notices : bool;
    jobs : int;
    par_mode : Patterns_search.Search.par_mode;
    deadline : float option;
    max_live : int option;
    edge_sink : (src:int -> event:string -> dst:int -> unit) option;
    spill : Patterns_search.Search.spill option;
    checkpoint : Patterns_search.Checkpoint.spec option;
    base : Db.t option;
  }

  let default_options ~n =
    {
      max_failures = 1;
      max_configs = 400_000;
      inputs_choices = Listx.all_bool_vectors n;
      fifo_notices = false;
      jobs = 1;
      par_mode = Patterns_search.Search.Async;
      deadline = None;
      max_live = None;
      edge_sink = None;
      spill = None;
      checkpoint = None;
      base = None;
    }

  type state_info = {
    state : P.state;
    decision : Decision.t option;
    commit_cooccurs : bool;
    abort_cooccurs : bool;
    always_all_ones : bool;
    input_vectors : int list;
    occurrences : int;
  }

  let encode_inputs inputs =
    Array.to_list inputs
    |> List.mapi (fun i b -> if b then 1 lsl i else 0)
    |> List.fold_left ( lor ) 0

  let decode_inputs ~n code = Array.init n (fun i -> code land (1 lsl i) <> 0)

  let implies ~n info pred = List.for_all (fun code -> pred (decode_inputs ~n code)) info.input_vectors

  let safe info =
    (not (info.commit_cooccurs && info.abort_cooccurs))
    && ((not info.commit_cooccurs) || info.always_all_ones)

  let committable info = info.always_all_ones && not info.abort_cooccurs

  type report = {
    configs_visited : int;
    terminal_configs : int;
    truncated : bool;
    ic_violation : string option;
    tc_violation : string option;
    wt_violation : string option;
    st_violation : string option;
    ht_violation : string option;
    rule_violation : string option;
    validity_violation : string option;
    protocol_errors : string list;
    states : state_info list;
  }

  let unsafe_states report = List.filter (fun i -> not (safe i)) report.states

  (* Corollary 6 restated on concurrency data: a committed processor
     must only co-occur with committable states, an aborted one only
     with noncommittable states.  [commit_cooccurs s && not
     (committable s)] is a violation of the commit side; [abort_cooccurs
     s && committable s] of the abort side.  Both reduce to the
     safe-state conditions. *)
  let corollary6_holds report =
    List.for_all
      (fun i ->
        ((not i.commit_cooccurs) || committable i)
        && ((not i.abort_cooccurs) || not (committable i)))
      report.states

  module State_map = Map.Make (struct
    type t = P.state

    let compare = P.compare_state
  end)

  let first_violation a b = match a with Some _ -> a | None -> b

  (* Two accumulators can observe the same state under different
     schedules or input vectors; the merged info is the same
     conjunction/disjunction the sequential accumulation computes.
     The [decision] field depends only on the state itself, so either
     side's value is correct. *)
  let merge_info a b =
    {
      a with
      commit_cooccurs = a.commit_cooccurs || b.commit_cooccurs;
      abort_cooccurs = a.abort_cooccurs || b.abort_cooccurs;
      always_all_ones = a.always_all_ones && b.always_all_ones;
      input_vectors =
        a.input_vectors
        @ List.filter (fun c -> not (List.mem c a.input_vectors)) b.input_vectors;
      occurrences = a.occurrences + b.occurrences;
    }

  (* Observation accumulator: one per search (serial driver) or per
     worker (async).  [cells] holds the seven violation witnesses,
     indexed below, each tagged with the fingerprint key of the node
     whose expansion observed it; the canonical witness is the one at
     the {e smallest key}, which is a property of the violation set
     alone — not of worker schedules or visitation order — so both
     drivers and every [jobs] value report the same witness.  (A key
     tie between two distinct violating nodes is a 62-bit fingerprint
     collision; ties within one node's expansion resolve
     first-observed, which is the node's deterministic internal
     order.) *)
  let ic_cell = 0
  and tc_cell = 1
  and wt_cell = 2
  and st_cell = 3
  and ht_cell = 4
  and rule_cell = 5
  and validity_cell = 6

  type vobs = {
    mutable terminal : int;
    cells : (int * string) option array;
    mutable errors : string list;
    mutable smap : state_info State_map.t;
    mutable edges_gen : int;
        (* successor derivations performed (summed [List.length succs]
           over expansions) — an exact count, unlike the kernel's
           driver-dependent frontier statistics *)
  }

  let vobs_empty () =
    {
      terminal = 0;
      cells = Array.make 7 None;
      errors = [];
      smap = State_map.empty;
      edges_gen = 0;
    }

  let min_violation a b =
    match (a, b) with
    | None, v | v, None -> v
    | Some (ka, _), Some (kb, _) -> if kb < ka then b else a

  let vobs_merge a b =
    a.terminal <- a.terminal + b.terminal;
    Array.iteri (fun i v -> a.cells.(i) <- min_violation a.cells.(i) v) b.cells;
    a.errors <- a.errors @ b.errors;
    a.smap <- State_map.union (fun _ x y -> Some (merge_info x y)) a.smap b.smap;
    a.edges_gen <- a.edges_gen + b.edges_gen;
    a

  (* [key] is the expanded node's fingerprint key: keep the witness
     with the smallest key; within one node (equal keys) keep the
     first observed *)
  let record o key cell msg =
    match o.cells.(cell) with
    | Some (k, _) when k <= key -> ()
    | _ -> o.cells.(cell) <- Some (key, msg)

  let observe_config ~rule o key config decided =
      (* "s implies the commit rule is satisfied": track whether every
         configuration containing a state permits commit on its inputs *)
      let commit_permitted =
        Patterns_protocols.Decision_rule.permits rule ~inputs:(E.inputs_of config)
          ~failure_occurred:false Decision.Commit
      in
      let statuses = E.statuses config in
      let ops =
        List.filter (fun p -> not (E.is_failed config p)) (Proc_id.all ~n:(E.n_of config))
      in
      (* interactive consistency at this configuration *)
      let op_decisions =
        List.filter_map (fun p -> Option.map (fun d -> (p, d)) statuses.(p).Status.decision) ops
      in
      (match op_decisions with
      | (p0, d0) :: rest -> (
        match List.find_opt (fun (_, d) -> not (Decision.equal d d0)) rest with
        | Some (p1, d1) ->
          record o key ic_cell
            (Format.asprintf "operational %a in %a while %a in %a" Proc_id.pp p0 Decision.pp d0
               Proc_id.pp p1 Decision.pp d1)
        | None -> ())
      | [] -> ());
      (* total consistency over first decisions (includes the failed) *)
      let all_decided =
        List.filter_map
          (fun p -> Option.map (fun d -> (p, d)) decided.(p))
          (Proc_id.all ~n:(E.n_of config))
      in
      (match all_decided with
      | (p0, d0) :: rest -> (
        match List.find_opt (fun (_, d) -> not (Decision.equal d d0)) rest with
        | Some (p1, d1) ->
          record o key tc_cell
            (Format.asprintf "%a decided %a but %a decided %a" Proc_id.pp p0 Decision.pp d0
               Proc_id.pp p1 Decision.pp d1)
        | None -> ())
      | [] -> ());
      (* concurrency-set accumulation over operational states *)
      let commit_here p =
        List.exists
          (fun q ->
            q <> p
            && match statuses.(q).Status.decision with
               | Some Decision.Commit -> true
               | _ -> false)
          ops
      in
      let abort_here p =
        List.exists
          (fun q ->
            q <> p
            && match statuses.(q).Status.decision with
               | Some Decision.Abort -> true
               | _ -> false)
          ops
      in
      List.iter
        (fun p ->
          let s = E.state_of config p in
          let prev =
            match State_map.find_opt s o.smap with
            | Some i -> i
            | None ->
              {
                state = s;
                decision = statuses.(p).Status.decision;
                commit_cooccurs = false;
                abort_cooccurs = false;
                always_all_ones = true;
                input_vectors = [];
                occurrences = 0;
              }
          in
          let code = encode_inputs (E.inputs_of config) in
          let info =
            {
              prev with
              commit_cooccurs = prev.commit_cooccurs || commit_here p;
              abort_cooccurs = prev.abort_cooccurs || abort_here p;
              always_all_ones = prev.always_all_ones && commit_permitted;
              input_vectors =
                (if List.mem code prev.input_vectors then prev.input_vectors
                 else code :: prev.input_vectors);
              occurrences = prev.occurrences + 1;
            }
          in
          o.smap <- State_map.add s info o.smap)
        ops

  let observe_terminal o key config decided =
      o.terminal <- o.terminal + 1;
      let statuses = E.statuses config in
      List.iter
        (fun p ->
          if not (E.is_failed config p) then begin
            if decided.(p) = None then
              record o key wt_cell
                (Format.asprintf "terminal configuration with nonfaulty %a undecided:@,%a"
                   Proc_id.pp p E.pp_config config);
            (match decided.(p) with
            | Some _ when not (statuses.(p).Status.amnesic || statuses.(p).Status.halted) ->
              record o key st_cell
                (Format.asprintf "nonfaulty %a decided but never forgot or halted" Proc_id.pp p)
            | _ -> ());
            if not statuses.(p).Status.halted then
              record o key ht_cell
                (Format.asprintf "nonfaulty %a never halted" Proc_id.pp p)
          end)
        (Proc_id.all ~n:(E.n_of config))

  (* decision-time checks carried on the trace events of one edge *)
  let observe_events ~rule o key pre_config events decided =
      let inputs = E.inputs_of pre_config in
      let failure_before =
        Array.exists Fun.id
          (Array.init (E.n_of pre_config) (fun p -> E.is_failed pre_config p))
      in
      List.fold_left
        (fun decided ev ->
          match ev with
          | Trace.Decided { proc; decision; _ } ->
            if not (Patterns_protocols.Decision_rule.permits rule ~inputs ~failure_occurred:failure_before decision)
            then
              record o key rule_cell
                (Format.asprintf "%a's %a not permitted by %a" Proc_id.pp proc Decision.pp
                   decision Patterns_protocols.Decision_rule.pp rule);
            if
              (not failure_before)
              && not
                   (Decision.equal decision
                      (Patterns_protocols.Decision_rule.natural_decision rule inputs))
            then
              record o key validity_cell
                (Format.asprintf "failure-free path: %a decided %a, natural decision differs"
                   Proc_id.pp proc Decision.pp decision);
            let decided = Array.copy decided in
            if decided.(proc) = None then decided.(proc) <- Some decision;
            decided
          | _ -> decided)
        decided events

  let failures_in config =
    List.length (List.filter (fun p -> E.is_failed config p) (Proc_id.all ~n:(E.n_of config)))

  module Node = struct
      (* exploration node: behavioural configuration plus each
         processor's first decision (amnesia may erase it from the
         state) *)
      type state = E.config * Decision.t option array

      let compare (c1, d1) (c2, d2) =
        let c = E.compare_behavioral c1 c2 in
        if c <> 0 then c else Stdlib.compare d1 d2

      (* behavioural fingerprint of the configuration, extended with an
         explicit full fold over the decision array — [Hashtbl.hash]
         samples only a bounded prefix of arrays and would alias nodes
         at larger [n] *)
      let fingerprint (c, d) =
        Array.fold_left
          (fun h cell ->
            Fingerprint.feed h
              (match cell with None -> 0 | Some Decision.Commit -> 1 | Some Decision.Abort -> 2))
          (E.behavioral_fingerprint c) d
    end

  module K = Patterns_search.Search.Make (Node)

  let node_expand ~fifo_notices ~max_failures ~rule o
      ((config, decided) as node : Node.state) =
    (* every violation observed while expanding this node is tagged
       with the node's fingerprint key — the canonical-witness order *)
    let key = Fingerprint.to_int (Node.fingerprint node) in
    observe_config ~rule o key config decided;
    let actions = E.applicable ~fifo_notices config in
    if actions = [] then observe_terminal o key config decided;
    let fail_actions =
      if failures_in config < max_failures then E.failure_actions config else []
    in
    let succs =
      List.filter_map
        (fun a ->
          match E.apply ~step:0 config a with
          | Error e ->
            o.errors <- e :: o.errors;
            None
          | Ok (config', events) ->
            Some (config', observe_events ~rule o key config events decided))
        (actions @ fail_actions)
    in
    o.edges_gen <- o.edges_gen + List.length succs;
    (* reversed: the historical stack discipline explored the last
       applicable action first; truncated counts are pinned to that
       order by the jobs-invariance tests *)
    List.rev succs

  (* kernel edge sink: node fingerprints as src/dst, the successor
     ordinal (stringified) as the event descriptor — anonymous
     expansion edges, as opposed to the replay recorder's rendered
     directives *)
  let edge_adapter sink ~src ~event ~dst =
    sink
      ~src:(Fingerprint.to_int (Node.fingerprint src))
      ~event:("#" ^ string_of_int event)
      ~dst:(Fingerprint.to_int (Node.fingerprint dst))

  (* One root of the sweep: exhaustive search from a single input
     vector.  Input vectors are part of every configuration (and
     compared by [compare_behavioral]), so roots never share reachable
     nodes and the per-root visited sets partition the whole space
     exactly.  The frontier, visited store and budget live in the
     search kernel; this function only hangs the paper's observations
     on the expansion closure. *)
  let explore_one_vector ?deadline ~options ~pool ~budget ~rule ~n inputs =
    let root_config = E.init ~n ~inputs in
    let edges = Option.map edge_adapter options.edge_sink in
    let outcome, o, m =
      let expand =
        {
          K.empty = vobs_empty;
          merge = vobs_merge;
          expand =
            node_expand ~fifo_notices:options.fifo_notices
              ~max_failures:options.max_failures ~rule;
        }
      in
      let root = (root_config, Array.make n None) in
      match options.par_mode with
      | Patterns_search.Search.Layers ->
        K.run ~budget ?deadline ?max_live:options.max_live ?spill:options.spill ?edges
          ~expand ~root ()
      | Patterns_search.Search.Async ->
        K.run_par_async ~pool ~budget ?deadline ?max_live:options.max_live
          ?spill:options.spill ?edges ~expand ~root ()
    in
    let m = Patterns_search.Metrics.with_intern_bindings (E.intern_bindings root_config) m in
    (o, Patterns_search.Search.truncated outcome, m)

  let report_of ~configs ~truncated o =
    let cell i = Option.map snd o.cells.(i) in
    {
      configs_visited = configs;
      terminal_configs = o.terminal;
      truncated;
      ic_violation = cell ic_cell;
      tc_violation = cell tc_cell;
      wt_violation = cell wt_cell;
      st_violation = cell st_cell;
      ht_violation = cell ht_cell;
      rule_violation = cell rule_cell;
      validity_violation = cell validity_cell;
      protocol_errors = Listx.dedup_sorted ~cmp:String.compare o.errors;
      states = List.map snd (State_map.bindings o.smap);
    }

  (* ----- per-vector base facts -----

     One fact per fully explored input vector, kind ["classify_vec"]:
     the vector's size and its observation accumulator, sealed
     ({!Db.put_sealed}) — everything a later sweep at the same
     [max_failures] needs to reuse the vector wholesale, the exact
     derivation count included.  The key pins the answer-relevant
     parameters (protocol, n, rule, max_failures, fifo, driver,
     vector) and deliberately excludes budgets, [jobs] and deadlines:
     reuse re-checks the budget against the stored size, and
     deadline-bounded runs never store or consume facts.  The driver
     is in the key because the two can disagree on count statistics
     where distinct paths converge on one behavioural node (the
     representative kept is visit-order dependent).  A fact that does
     not unseal is a miss: the vector runs fresh and overwrites it. *)

  let bits_of inputs =
    String.concat "" (List.map (fun b -> if b then "1" else "0") inputs)

  let vec_fact_key ~rule ~n ~max_failures ~fifo_notices ~par_mode inputs =
    Printf.sprintf "%s|%d|%s|mf=%d|fifo=%b|mode=%s|vec=%s" P.name n
      (Format.asprintf "%a" Patterns_protocols.Decision_rule.pp rule)
      max_failures fifo_notices
      (Patterns_search.Search.par_mode_string par_mode)
      (bits_of inputs)

  (* One vector of the sweep, with the base database consulted when it
     is sound to do so: a fact for this vector whose size fits the
     per-vector budget is the answer, with no search at all
     ([delta_reused_edges] counts the derivations skipped); otherwise
     the vector runs fresh and, when it completes untruncated, stores
     a new fact.  Base consultation is disabled under a wall-clock
     deadline or a live-state cap: both make completeness
     run-dependent, and the facts only speak for completed regions. *)
  let vector_result ?deadline ~options ~pool ~budget ~rule ~n inputs =
    let fresh ~store =
      let o, truncated, m =
        explore_one_vector ?deadline ~options ~pool ~budget ~rule ~n inputs
      in
      let configs = m.Patterns_search.Metrics.states_expanded in
      if (not truncated) && m.Patterns_search.Metrics.deadline_hits = 0 then
        store (configs, o);
      (report_of ~configs ~truncated o, m)
    in
    match options.base with
    | Some db when options.deadline = None && options.max_live = None -> (
      let key =
        vec_fact_key ~rule ~n ~max_failures:options.max_failures
          ~fifo_notices:options.fifo_notices ~par_mode:options.par_mode inputs
      in
      match (Db.get_sealed db ~kind:"classify_vec" ~key : (int * vobs) option) with
      | Some (configs, o) when configs <= budget ->
        let m =
          Patterns_search.Metrics.with_incremental ~delta_reused_edges:o.edges_gen
            Patterns_search.Metrics.zero
        in
        (report_of ~configs ~truncated:false o, m)
      | _ -> fresh ~store:(Db.put_sealed db ~kind:"classify_vec" ~key))
    | _ -> fresh ~store:ignore

  (* ----- deterministic merge of per-vector reports ----- *)

  (* both lists sorted by [compare_state] (State_map binding order) *)
  let rec merge_states xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | x :: xs', y :: ys' ->
      let c = P.compare_state x.state y.state in
      if c < 0 then x :: merge_states xs' ys
      else if c > 0 then y :: merge_states xs ys'
      else merge_info x y :: merge_states xs' ys'

  let merge_reports a b =
    {
      configs_visited = a.configs_visited + b.configs_visited;
      terminal_configs = a.terminal_configs + b.terminal_configs;
      truncated = a.truncated || b.truncated;
      ic_violation = first_violation a.ic_violation b.ic_violation;
      tc_violation = first_violation a.tc_violation b.tc_violation;
      wt_violation = first_violation a.wt_violation b.wt_violation;
      st_violation = first_violation a.st_violation b.st_violation;
      ht_violation = first_violation a.ht_violation b.ht_violation;
      rule_violation = first_violation a.rule_violation b.rule_violation;
      validity_violation = first_violation a.validity_violation b.validity_violation;
      protocol_errors =
        Listx.dedup_sorted ~cmp:String.compare (a.protocol_errors @ b.protocol_errors);
      states = merge_states a.states b.states;
    }

  let empty_report =
    {
      configs_visited = 0;
      terminal_configs = 0;
      truncated = false;
      ic_violation = None;
      tc_violation = None;
      wt_violation = None;
      st_violation = None;
      ht_violation = None;
      rule_violation = None;
      validity_violation = None;
      protocol_errors = [];
      states = [];
    }

  let explore ?metrics ?options ~rule ~n () =
    let options = match options with Some o -> o | None -> default_options ~n in
    let nvec = max 1 (List.length options.inputs_choices) in
    (* even split of the total node budget, so the sharded sweep does
       roughly the work of the old single-visited-set loop *)
    let budget = (options.max_configs + nvec - 1) / nvec in
    (* Checkpoint granularity is the input vector, the sweep's natural
       unit of deterministic work.  The header pins everything a
       per-vector (report, metrics) payload depends on; [jobs] and
       [deadline] are absent because jobs never changes a payload and
       deadline-truncated vectors are never recorded. *)
    let checkpoint =
      Option.map
        (fun spec ->
          let opt = function None -> "-" | Some i -> string_of_int i in
          ( spec,
            Printf.sprintf "explore/1|%s|rule=%s|n=%d|mf=%d|mc=%d|fifo=%b|ml=%s|mode=%s|spill=%s|iv=%s"
              P.name
              (Format.asprintf "%a" Patterns_protocols.Decision_rule.pp rule)
              n options.max_failures options.max_configs options.fifo_notices
              (opt options.max_live)
              (Patterns_search.Search.par_mode_string options.par_mode)
              (opt
                 (Option.map
                    (fun s -> s.Patterns_search.Search.mem_budget)
                    options.spill))
              (Digest.to_hex (Digest.string (Marshal.to_string options.inputs_choices []))) ))
        options.checkpoint
    in
    (* Input vectors are baked into every configuration, so the roots
       partition the state space; reports merge in vector order. *)
    Patterns_search.Search.sweep ?metrics ?deadline:options.deadline ?checkpoint
      ~jobs:options.jobs options.par_mode
      ~root:(fun pool ~deadline inputs ->
        vector_result ?deadline ~options ~pool ~budget ~rule ~n inputs)
      ~merge:merge_reports empty_report options.inputs_choices

  let pp_report ppf r =
    let opt name = function
      | None -> Format.fprintf ppf "  %s: ok@," name
      | Some v -> Format.fprintf ppf "  %s: VIOLATED (%s)@," name v
    in
    Format.fprintf ppf "@[<v>configs=%d terminal=%d%s states=%d@," r.configs_visited
      r.terminal_configs
      (if r.truncated then " (TRUNCATED)" else "")
      (List.length r.states);
    opt "interactive consistency" r.ic_violation;
    opt "total consistency" r.tc_violation;
    opt "weak termination" r.wt_violation;
    opt "strong termination" r.st_violation;
    opt "halting termination" r.ht_violation;
    opt "decision rule" r.rule_violation;
    opt "validity" r.validity_violation;
    let unsafe = unsafe_states r in
    Format.fprintf ppf "  safe states: %d/%d%s@," (List.length r.states - List.length unsafe)
      (List.length r.states)
      (if unsafe = [] then "" else " (UNSAFE STATES EXIST)");
    if r.protocol_errors <> [] then
      Format.fprintf ppf "  protocol errors: %d@," (List.length r.protocol_errors);
    Format.fprintf ppf "@]"
end
