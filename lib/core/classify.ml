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

(* [base] is the per-root memo; without one, [db] serves as the memo
   as well as the edge log, so a repeated sweep through [db] alone
   expands nothing.  [db]'s counters are reported either way. *)
let classify ?metrics ?db ?base ?max_failures ?max_configs ?inputs_choices
    ?(fifo_notices = false) ?(jobs = 1) ?par_mode ?deadline ?max_live ?spill ~rule ~n
    (module P : Protocol.S) =
  let module X = Explore.Make (P) in
  let defaults = X.default_options ~n in
  let s0 = Option.map Db.stats db in
  let options =
    {
      X.max_failures = Option.value max_failures ~default:defaults.X.max_failures;
      max_configs = Option.value max_configs ~default:defaults.X.max_configs;
      inputs_choices = Option.value inputs_choices ~default:defaults.X.inputs_choices;
      fifo_notices;
      jobs;
      par_mode = Option.value par_mode ~default:defaults.X.par_mode;
      deadline;
      max_live;
      edge_sink = Option.map (fun db ~src ~event ~dst -> Db.add_edge db ~src ~event ~dst) db;
      spill;
      base = (match base with Some _ -> base | None -> db);
    }
  in
  let r = X.explore ?metrics ~options ~rule ~n () in
  (match (db, s0) with
  | Some db, Some s0 ->
    let s1 = Db.stats db in
    Patterns_search.Search.merge_into metrics
      (Patterns_search.Metrics.with_db ~edges:s1.Db.edges
         ~index_scans:(s1.Db.index_scans - s0.Db.index_scans)
         ~cache_hits:(s1.Db.cache_hits - s0.Db.cache_hits)
         ~cache_misses:(s1.Db.cache_misses - s0.Db.cache_misses)
         Patterns_search.Metrics.zero)
  | _ -> ());
  let detail name = Option.map (fun v -> name ^ ": " ^ v) in
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
