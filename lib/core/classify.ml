open Patterns_sim
module Db = Patterns_db.Db

type verdict = {
  name : string;
  n : int;
  ic : bool;
  tc : bool;
  wt : bool;
  st : bool;
  ht : bool;
  rule_ok : bool;
  validity_ok : bool;
  all_states_safe : bool;
  corollary6 : bool;
  configs : int;
  truncated : bool;
  details : string list;
}

(* ----- execution-database facts for classification sweeps -----

   A stored verdict is the [verdict] record itself, sealed under the
   fact kind ["classify"] ({!Db.put_sealed}); a fact that does not
   unseal is a miss, recomputed and overwritten. *)

(* The fact key names every parameter the verdict depends on, the
   driver included: the two drivers can disagree on count statistics
   where distinct paths converge on one behavioural node.  [jobs] is
   excluded — under either driver an exhaustive verdict is
   jobs-invariant, which is exactly why it is cacheable.  The deadline is excluded too, but deadline-bounded
   sweeps are never *stored* — their truncation point is wall-clock
   dependent, so their verdicts are not reproducible facts. *)
let fact_key ~name ~rule ~n ~max_failures ~max_configs ~fifo_notices ~max_live ~par_mode
    ~inputs_choices =
  let vec v = String.concat "" (List.map (fun b -> if b then "1" else "0") v) in
  Printf.sprintf "%s|%d|%s|mf=%d|mc=%d|fifo=%b|ml=%s|mode=%s|iv=%s" name n
    (Format.asprintf "%a" Patterns_protocols.Decision_rule.pp rule)
    max_failures max_configs fifo_notices
    (match max_live with None -> "-" | Some l -> string_of_int l)
    (Patterns_search.Search.par_mode_string par_mode)
    (String.concat "," (List.map vec inputs_choices))

let classify ?metrics ?db ?base ?max_failures ?max_configs ?inputs_choices
    ?(fifo_notices = false) ?(jobs = 1) ?par_mode ?deadline ?max_live ?spill
    ?checkpoint ~rule ~n (module P : Protocol.S) =
  let module X = Explore.Make (P) in
  let defaults = X.default_options ~n in
  let max_failures = Option.value max_failures ~default:defaults.X.max_failures in
  let max_configs = Option.value max_configs ~default:defaults.X.max_configs in
  let inputs_choices = Option.value inputs_choices ~default:defaults.X.inputs_choices in
  let par_mode = Option.value par_mode ~default:defaults.X.par_mode in
  let key =
    fact_key ~name:P.name ~rule ~n ~max_failures ~max_configs ~fifo_notices ~max_live
      ~par_mode ~inputs_choices
  in
  let merge_db_metrics db s0 =
    let s1 = Db.stats db in
    Patterns_search.Search.merge_into metrics
      (Patterns_search.Metrics.with_db ~edges:s1.Db.edges
         ~index_scans:(s1.Db.index_scans - s0.Db.index_scans)
         ~cache_hits:(s1.Db.cache_hits - s0.Db.cache_hits)
         ~cache_misses:(s1.Db.cache_misses - s0.Db.cache_misses)
         Patterns_search.Metrics.zero)
  in
  let cached =
    match db with
    | None -> None
    | Some db ->
      let s0 = Db.stats db in
      let v : verdict option = Db.get_sealed db ~kind:"classify" ~key in
      (* a hit answers the sweep with zero kernel expansions: only the
         database counters move *)
      if v <> None then merge_db_metrics db s0;
      v
  in
  match cached with
  | Some v -> v
  | None ->
    let s0 = Option.map Db.stats db in
    let edge_sink =
      Option.map (fun db ~src ~event ~dst -> Db.add_edge db ~src ~event ~dst) db
    in
    let options =
      {
        X.max_failures;
        max_configs;
        inputs_choices;
        fifo_notices;
        jobs;
        par_mode;
        deadline;
        max_live;
        edge_sink;
        spill;
        checkpoint;
        base;
      }
    in
    let r = X.explore ?metrics ~options ~rule ~n () in
    let detail name = Option.map (fun v -> name ^ ": " ^ v) in
    let v =
      {
        name = P.name;
        n;
        ic = r.X.ic_violation = None;
        tc = r.X.tc_violation = None;
        wt = r.X.wt_violation = None;
        st = r.X.st_violation = None;
        ht = r.X.ht_violation = None;
        rule_ok = r.X.rule_violation = None;
        validity_ok = r.X.validity_violation = None;
        all_states_safe = X.unsafe_states r = [];
        corollary6 = X.corollary6_holds r;
        configs = r.X.configs_visited;
        truncated = r.X.truncated;
        details =
          List.filter_map Fun.id
            [
              detail "IC" r.X.ic_violation;
              detail "TC" r.X.tc_violation;
              detail "WT" r.X.wt_violation;
              detail "ST" r.X.st_violation;
              detail "HT" r.X.ht_violation;
              detail "rule" r.X.rule_violation;
              detail "validity" r.X.validity_violation;
            ];
      }
    in
    (match (db, s0) with
    | Some db, Some s0 ->
      (* deadline-bounded sweeps are recorded (their edges are real)
         but their verdicts are not stored: the truncation point is
         wall-clock dependent *)
      if deadline = None then Db.put_sealed db ~kind:"classify" ~key v;
      merge_db_metrics db s0
    | _ -> ());
    v

let solves v (problem : Taxonomy.t) =
  let consistency_ok =
    match problem.Taxonomy.consistency with Taxonomy.IC -> v.ic | Taxonomy.TC -> v.tc
  in
  let termination_ok =
    match problem.Taxonomy.termination with
    | Taxonomy.WT -> v.wt
    | Taxonomy.ST -> v.st
    | Taxonomy.HT -> v.ht
  in
  (not v.truncated) && consistency_ok && termination_ok && v.rule_ok && v.validity_ok

let best_problem v =
  let candidates =
    (* strongest first *)
    Taxonomy.
      [ make TC HT; make IC HT; make TC ST; make IC ST; make TC WT; make IC WT ]
  in
  List.find_opt (solves v) candidates

(* Every property printed only goes from true to false as more states
   are explored, so a truncated verdict prints [?] for each one without
   a witnessed violation; a witnessed violation stays [NO]. *)
let pp ppf v =
  let b ppf x =
    Format.pp_print_string ppf (if not x then "NO" else if v.truncated then "?" else "yes")
  in
  Format.fprintf ppf
    "@[<v>%s (n=%d, %d configs%s)@,\
    \  IC=%a TC=%a  WT=%a ST=%a HT=%a  rule=%a validity=%a safe-states=%a cor6=%a@,\
    \  strongest problem solved: %s@]"
    v.name v.n v.configs
    (if v.truncated then ", truncated" else "")
    b v.ic b v.tc b v.wt b v.st b v.ht b v.rule_ok b v.validity_ok b v.all_states_safe
    b v.corollary6
    (match best_problem v with
    | Some p -> Taxonomy.short_name p
    | None -> if v.truncated then "?" else "none")
