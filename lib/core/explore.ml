open Patterns_sim
open Patterns_stdx
module Db = Patterns_db.Db

(* the edge descriptor "#k" of the k-th successor ordinal, made once
   for the ordinals a search meets *)
let ordinals = Array.init 64 (fun k -> "#" ^ string_of_int k)
let ordinal k = if k < Array.length ordinals then ordinals.(k) else "#" ^ string_of_int k

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

  (* One operational local state's tally within a root: whether an
     operational committed or aborted processor ever co-occurred with
     it, and how many (node, operational processor) visits it had.
     The rest of its [state_info] is read off the state or is a
     constant of the root ([vobs.code], [vobs.all_ones]). *)
  type tally = {
    decision : Decision.t option;
    mutable commit : bool;
    mutable abort : bool;
    mutable visits : int;
  }

  module State_tbl = Hashtbl.Make (struct
    type t = P.state

    (* states are interned per root, so most probes are physical *)
    let equal a b = a == b || P.compare_state a b = 0
    let hash = P.hash_state
  end)

  type vobs = {
    code : int;  (* the root's input vector ([encode_inputs]) *)
    all_ones : bool;
        (* the rule permits commit on the root's inputs: the
           [always_all_ones] of every state reached under it *)
    mutable terminal : int;
    cells : (int * string) option array;
    mutable errors : string list;
    tallies : tally State_tbl.t;
  }

  let vobs_empty ~code ~all_ones () =
    {
      code;
      all_ones;
      terminal = 0;
      cells = Array.make 7 None;
      errors = [];
      tallies = State_tbl.create 64;
    }

  let min_violation a b =
    match (a, b) with
    | None, v | v, None -> v
    | Some (ka, _), Some (kb, _) -> if kb < ka then b else a

  (* [b] is dead after the merge, so its tallies move into [a] *)
  let vobs_merge a b =
    a.terminal <- a.terminal + b.terminal;
    Array.iteri (fun i v -> a.cells.(i) <- min_violation a.cells.(i) v) b.cells;
    a.errors <- a.errors @ b.errors;
    State_tbl.iter
      (fun s y ->
        match State_tbl.find a.tallies s with
        | x ->
          x.commit <- x.commit || y.commit;
          x.abort <- x.abort || y.abort;
          x.visits <- x.visits + y.visits
        | exception Not_found -> State_tbl.add a.tallies s y)
      b.tallies;
    a

  (* [key] is the expanded node's fingerprint key: keep the witness
     with the smallest key; within one node (equal keys) keep the
     first observed *)
  let record o key cell msg =
    match o.cells.(cell) with
    | Some (k, _) when k <= key -> ()
    | _ -> o.cells.(cell) <- Some (key, msg)

  (* Decisions packed 2 bits per processor, the codes
     {!E.Flat.step} reports: 0 none, 1 commit, 2 abort.  A node's
     first decisions are one such word, so [n] is at most
     [max_procs]. *)
  let max_procs = (Sys.int_size - 1) / 2

  let code_at codes p = (codes lsr (2 * p)) land 3
  let decision_of_code code = if code = 1 then Decision.Commit else Decision.Abort

  (* The first processor holding a decision in [codes], and the first
     later one holding the other decision, if there is one. *)
  let first_conflict ~n codes =
    let rec first p = if p = n || code_at codes p <> 0 then p else first (p + 1) in
    let p0 = first 0 in
    if p0 = n then None
    else
      let c0 = code_at codes p0 in
      let rec other p =
        if p = n then None
        else
          let c = code_at codes p in
          if c <> 0 && c <> c0 then Some (p0, decision_of_code c0, p, decision_of_code c)
          else other (p + 1)
      in
      other (p0 + 1)

  let observe_config o key config decided =
    let n = E.Flat.n_of config in
    (* operational processors' current decisions, none at the failed *)
    let ops = ref 0 and commits = ref 0 and aborts = ref 0 in
    for p = 0 to n - 1 do
      if not (E.Flat.is_failed config p) then
        match (E.Flat.status_of config p).Status.decision with
        | Some Decision.Commit ->
          ops := !ops lor (1 lsl (2 * p));
          incr commits
        | Some Decision.Abort ->
          ops := !ops lor (2 lsl (2 * p));
          incr aborts
        | None -> ()
    done;
    (* interactive consistency at this configuration *)
    if !commits > 0 && !aborts > 0 then begin
      match first_conflict ~n !ops with
      | Some (p0, d0, p1, d1) ->
        record o key ic_cell
          (Format.asprintf "operational %a in %a while %a in %a" Proc_id.pp p0 Decision.pp d0
             Proc_id.pp p1 Decision.pp d1)
      | None -> ()
    end;
    (* total consistency over first decisions (includes the failed) *)
    (match first_conflict ~n decided with
    | Some (p0, d0, p1, d1) ->
      record o key tc_cell
        (Format.asprintf "%a decided %a but %a decided %a" Proc_id.pp p0 Decision.pp d0
           Proc_id.pp p1 Decision.pp d1)
    | None -> ());
    (* concurrency-set accumulation over operational states: a
       processor co-occurs with a commit (abort) when some other
       operational processor holds one *)
    for p = 0 to n - 1 do
      if not (E.Flat.is_failed config p) then begin
        let d = code_at !ops p in
        let commit = !commits > (if d = 1 then 1 else 0) in
        let abort = !aborts > (if d = 2 then 1 else 0) in
        let s = E.Flat.state_of config p in
        match State_tbl.find o.tallies s with
        | t ->
          t.commit <- t.commit || commit;
          t.abort <- t.abort || abort;
          t.visits <- t.visits + 1
        | exception Not_found ->
          (* the status's own value, not a rebuilt one: the sealed
             report marshals it, sharing included *)
          let decision = (P.status s).Status.decision in
          State_tbl.add o.tallies s { decision; commit; abort; visits = 1 }
      end
    done

  let observe_terminal o key config decided =
    o.terminal <- o.terminal + 1;
    for p = 0 to E.Flat.n_of config - 1 do
      if not (E.Flat.is_failed config p) then begin
        let status = E.Flat.status_of config p in
        let first = code_at decided p in
        if first = 0 then
          record o key wt_cell
            (Format.asprintf "terminal configuration with nonfaulty %a undecided:@,%a"
               Proc_id.pp p E.Flat.pp config);
        if first <> 0 && not (status.Status.amnesic || status.Status.halted) then
          record o key st_cell
            (Format.asprintf "nonfaulty %a decided but never forgot or halted" Proc_id.pp p);
        if not status.Status.halted then
          record o key ht_cell (Format.asprintf "nonfaulty %a never halted" Proc_id.pp p)
      end
    done

  (* What the decision-time checks read of a root's input vector,
     computed once per root: every configuration under it carries the
     same inputs. *)
  type vector = { inputs : bool array; natural : Decision.t }

  (* decision-time checks on a step that gave processor [p] its first
     decision [code]; [failure_before] is whether the expanded node
     holds a failure.  Returns the successor's first decisions. *)
  let observe_decision ~rule ~vector ~failure_before o key p code decided =
    let decision = decision_of_code code in
    if
      not
        (Patterns_protocols.Decision_rule.permits rule ~inputs:vector.inputs
           ~failure_occurred:failure_before decision)
    then
      record o key rule_cell
        (Format.asprintf "%a's %a not permitted by %a" Proc_id.pp p Decision.pp decision
           Patterns_protocols.Decision_rule.pp rule);
    if (not failure_before) && not (Decision.equal decision vector.natural) then
      record o key validity_cell
        (Format.asprintf "failure-free path: %a decided %a, natural decision differs" Proc_id.pp
           p Decision.pp decision);
    if code_at decided p = 0 then decided lor (code lsl (2 * p)) else decided

  let failures_in config =
    let k = ref 0 in
    for p = 0 to E.Flat.n_of config - 1 do
      if E.Flat.is_failed config p then incr k
    done;
    !k

  module Node = struct
      (* exploration node: flat behavioural configuration plus each
         processor's first decision (amnesia may erase it from the
         state), packed as [code_at] reads it *)
      type state = E.Flat.t * int

      let compare (c1, d1) (c2, d2) =
        let c = E.Flat.compare c1 c2 in
        if c <> 0 then c else Int.compare d1 d2

      (* behavioural fingerprint of the configuration, extended with an
         explicit fold over the processors' decision codes *)
      let fingerprint (c, d) =
        let h = ref (E.Flat.fingerprint c) in
        for p = 0 to E.Flat.n_of c - 1 do
          h := Fingerprint.feed !h (code_at d p)
        done;
        !h
    end

  module K = Patterns_search.Search.Make (Node)

  let actor = function
    | Action.Send_step p | Action.Fail p -> p
    | Action.Deliver { at; _ } | Action.Drop { at; _ } -> at

  let node_expand ~fifo_notices ~max_failures ~rule ~vector o
      ((config, decided) as node : Node.state) =
    (* every violation observed while expanding this node is tagged
       with the node's fingerprint key — the canonical-witness order *)
    let key = Fingerprint.to_int (Node.fingerprint node) in
    observe_config o key config decided;
    let actions = E.Flat.applicable ~fifo_notices config in
    if actions = [] then observe_terminal o key config decided;
    let failures = failures_in config in
    let failure_before = failures > 0 in
    let successor succs a =
      match E.Flat.step config a with
      | E.Flat.Refused e ->
        o.errors <- e :: o.errors;
        succs
      | E.Flat.Next (config', 0) -> (config', decided) :: succs
      | E.Flat.Next (config', code) ->
        (config', observe_decision ~rule ~vector ~failure_before o key (actor a) code decided)
        :: succs
    in
    (* consed in action order, applicable actions then failures, so
       the last action comes out first: the historical stack
       discipline explored it first, and truncated counts are pinned
       to that order by the jobs-invariance tests *)
    let succs = List.fold_left successor [] actions in
    if failures < max_failures then
      List.fold_left successor succs (E.Flat.failure_actions config)
    else succs

  (* kernel edge sink: node fingerprints as src/dst, the successor
     ordinal (stringified) as the event descriptor — anonymous
     expansion edges, as opposed to the replay recorder's rendered
     directives *)
  let edge_adapter sink ~src ~event ~dst =
    sink ~src:(Fingerprint.to_int src) ~event:(ordinal event) ~dst:(Fingerprint.to_int dst)

  (* One root of the sweep: exhaustive search from a single input
     vector.  Input vectors are part of every configuration (and
     compared by [compare_behavioral]), so roots never share reachable
     nodes and the per-root visited sets partition the whole space
     exactly.  The frontier, visited store and budget live in the
     search kernel; this function only hangs the paper's observations
     on the expansion closure.  Nothing here reads a communication
     pattern or a trace, so the root is a flat configuration. *)
  let explore_one_vector ?deadline ~options ~pool ~budget ~rule ~n inputs =
    let root_config = E.Flat.init ~n ~inputs in
    let vector =
      let inputs = Array.of_list inputs in
      { inputs; natural = Patterns_protocols.Decision_rule.natural_decision rule inputs }
    in
    let code = encode_inputs vector.inputs in
    let all_ones =
      Patterns_protocols.Decision_rule.permits rule ~inputs:vector.inputs ~failure_occurred:false
        Decision.Commit
    in
    let edges = Option.map edge_adapter options.edge_sink in
    let outcome, o, m =
      let expand =
        {
          K.empty = vobs_empty ~code ~all_ones;
          merge = vobs_merge;
          expand =
            node_expand ~fifo_notices:options.fifo_notices
              ~max_failures:options.max_failures ~rule ~vector;
        }
      in
      let root = (root_config, 0) in
      match options.par_mode with
      | Patterns_search.Search.Layers ->
        K.run ~budget ?deadline ?max_live:options.max_live ?spill:options.spill ?edges
          ~expand ~root ()
      | Patterns_search.Search.Async ->
        K.run_par_async ~pool ~budget ?deadline ?max_live:options.max_live
          ?spill:options.spill ?edges ~expand ~root ()
    in
    let m = Patterns_search.Metrics.with_intern_bindings (E.Flat.intern_bindings root_config) m in
    (o, Patterns_search.Search.truncated outcome, m)

  let report_of ~configs ~truncated o =
    let cell i = Option.map snd o.cells.(i) in
    let states =
      State_tbl.fold
        (fun state t acc ->
          {
            state;
            decision = t.decision;
            commit_cooccurs = t.commit;
            abort_cooccurs = t.abort;
            always_all_ones = o.all_ones;
            input_vectors = [ o.code ];
            occurrences = t.visits;
          }
          :: acc)
        o.tallies []
    in
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
      states = List.sort (fun a b -> P.compare_state a.state b.state) states;
    }

  (* ----- deterministic merge of per-vector reports ----- *)

  (* both lists sorted by [compare_state] ([report_of]'s order) *)
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
    if n > max_procs then
      invalid_arg (Printf.sprintf "Explore.explore: n = %d exceeds %d processors" n max_procs);
    let options = match options with Some o -> o | None -> default_options ~n in
    let nvec = max 1 (List.length options.inputs_choices) in
    (* even split of the total node budget, so the sharded sweep does
       roughly the work of the old single-visited-set loop *)
    let budget = (options.max_configs + nvec - 1) / nvec in
    (* The memo keys every parameter a vector's report depends on but
       the budgets, which {!Patterns_search.Search.memo} adds where the
       report depends on them.  The driver is in the key because the
       two can disagree on count statistics where distinct paths
       converge on one behavioural node (the representative kept is
       visit-order dependent).  The kind names the sealed [report];
       facts of the retired kinds ["classify_vec"] and
       ["classify_vec2"], which sealed observation accumulators, are
       never read. *)
    let memo =
      Option.map
        (fun base ->
          {
            Patterns_search.Search.base;
            kind = "classify_vec3";
            params =
              Printf.sprintf "%s|%d|%s|mf=%d|fifo=%b|mode=%s" P.name n
                (Format.asprintf "%a" Patterns_protocols.Decision_rule.pp rule)
                options.max_failures options.fifo_notices
                (Patterns_search.Search.par_mode_string options.par_mode);
            key = (fun inputs -> "vec=" ^ Listx.bits inputs);
            budget;
            max_live = options.max_live;
          })
        options.base
    in
    (* Input vectors are baked into every configuration, so the roots
       partition the state space; reports merge in vector order. *)
    Patterns_search.Search.sweep ?metrics ?deadline:options.deadline ?memo
      ~jobs:options.jobs options.par_mode
      ~root:(fun pool ~deadline inputs ->
        let o, truncated, m =
          explore_one_vector ?deadline ~options ~pool ~budget ~rule ~n inputs
        in
        (report_of ~configs:m.Patterns_search.Metrics.states_expanded ~truncated o, m))
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
