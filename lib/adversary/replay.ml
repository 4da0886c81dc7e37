open Patterns_sim
module Fingerprint = Patterns_stdx.Fingerprint
module Db = Patterns_db.Db
module Metrics = Patterns_search.Metrics

type verdict =
  | Reproduced of string
  | Not_reproduced
  | Inapplicable of string

let exit_code = function Reproduced _ -> 0 | Not_reproduced -> 1 | Inapplicable _ -> 2

let pp ppf = function
  | Reproduced msg -> Format.fprintf ppf "@[<v>reproduced:@,%s@]" msg
  | Not_reproduced -> Format.pp_print_string ppf "not reproduced: the property holds on this replay"
  | Inapplicable msg -> Format.fprintf ppf "inapplicable: %s" msg

(* ----- the execution-database side ----- *)

(* The event descriptor of a directive is its stable rendering —
   "deliver to p0 message p1#0" — so recorded runs and certificate
   scripts meet in one vocabulary. *)
let descriptor d = Format.asprintf "%a" Script.pp d

(* Path fingerprint: the root fingerprint folded with each
   (descriptor, destination-fingerprint) pair in script order.  A
   verdict fact keyed on it is bound to the exact recorded transitions
   of this execution, not merely to the script text. *)
let path_feed fp desc dst_fp =
  let fp = String.fold_left (fun acc c -> Fingerprint.feed acc (Char.code c)) fp desc in
  Fingerprint.feed fp dst_fp

let inputs_string inputs = String.concat "" (List.map (fun b -> if b then "1" else "0") inputs)

let verdict_key (cert : Cert.t) path_fp =
  Printf.sprintf "%s|%d|%s|%s|%s|%d" cert.Cert.protocol cert.Cert.n
    (inputs_string cert.Cert.inputs)
    (Cert.property_string cert.Cert.property)
    (Cert.rule_string cert.Cert.rule)
    (Fingerprint.to_int path_fp)

let replay_metrics ?db (cert : Cert.t) =
  let live_applied = ref 0 in
  let stats0 = Option.map (fun db -> Db.stats db) db in
  let verdict =
    match Patterns_protocols.Registry.find cert.Cert.protocol with
    | None -> Inapplicable (Printf.sprintf "unknown protocol %S" cert.Cert.protocol)
    | Some entry ->
      let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
      if not (P.valid_n cert.Cert.n) then
        Inapplicable (Printf.sprintf "%s does not support n = %d" P.name cert.Cert.n)
      else begin
        let module E = Engine.Make (P) in
        let root () = E.init ~n:cert.Cert.n ~inputs:cert.Cert.inputs in
        let fp_of c = Fingerprint.to_int (E.fingerprint c) in
        let live () =
          match
            try E.play (root ()) cert.Cert.script with e -> Error (Printexc.to_string e)
          with
          | Error msg -> Inapplicable ("script does not apply: " ^ msg)
          | Ok (final, trace) ->
            live_applied := List.length cert.Cert.script;
            (match
               Patterns_core.Audit.check cert.Cert.property ~rule:cert.Cert.rule
                 ~inputs:cert.Cert.inputs ~n:cert.Cert.n ~quiescent:(E.quiescent final)
                 ~statuses:(E.statuses final) trace
             with
            | Error msg -> Reproduced msg
            | Ok () -> Not_reproduced)
        in
        match db with
        | None -> live ()
        | Some db ->
          (* Record the execution stepwise: one [play] per directive
             evolves the config identically to the one-shot play (the
             engine is config-deterministic per directive), yielding
             the intermediate fingerprints the edge log needs. *)
          let record () =
            let rec go c path_fp = function
              | [] -> Some path_fp
              | d :: rest -> (
                match
                  try E.play c [ d ] with e -> Error (Printexc.to_string e)
                with
                | Error _ -> None
                | Ok (c', _) ->
                  let desc = descriptor d in
                  let dst = fp_of c' in
                  Db.add_edge db ~src:(fp_of c) ~event:desc ~dst;
                  go c' (path_feed path_fp desc dst) rest)
            in
            let r = root () in
            go r (E.fingerprint r) cert.Cert.script
          in
          (* Walk the recorded edges instead of the engine: src and
             event bound, so each step is one point query (a cached
             read of one adjacency), and the engine never runs. *)
          let walk () =
            let r = root () in
            let root_fp = fp_of r in
            if not (Db.mem_config db root_fp) then None
            else
              let rec go fp path_fp = function
                | [] -> Some path_fp
                | d :: rest -> (
                  let desc = descriptor d in
                  match Db.edges db ~src:fp ~event:desc () with
                  | [ (_, _, dst) ] -> go dst (path_feed path_fp desc dst) rest
                  | _ -> None)
              in
              go root_fp (E.fingerprint r) cert.Cert.script
          in
          (* Inapplicable verdicts are never stored: they describe this
             replayer (unknown protocol, changed code), not the
             recorded execution *)
          let live_and_store () =
            let v = live () in
            (match v with
            | Reproduced _ | Not_reproduced ->
              Option.iter
                (fun path_fp ->
                  Db.put_sealed db ~kind:"verdict" ~key:(verdict_key cert path_fp) v)
                (record ())
            | Inapplicable _ -> ());
            v
          in
          match
            Option.bind (walk ()) (fun path_fp ->
                Db.get_sealed db ~kind:"verdict" ~key:(verdict_key cert path_fp))
          with
          | Some (v : verdict) -> v (* zero engine plays, zero kernel expansions *)
          | None -> live_and_store ()
      end
  in
  let m =
    {
      Metrics.zero with
      Metrics.states_expanded = !live_applied;
      budget_consumed = !live_applied;
      roots = 1;
    }
  in
  let m =
    match (db, stats0) with
    | Some db, Some s0 ->
      let s1 = Db.stats db in
      Metrics.with_db ~edges:s1.Db.edges
        ~index_scans:(s1.Db.index_scans - s0.Db.index_scans)
        ~cache_hits:(s1.Db.cache_hits - s0.Db.cache_hits)
        ~cache_misses:(s1.Db.cache_misses - s0.Db.cache_misses)
        m
    | _ -> m
  in
  (verdict, m)

let replay ?db cert = fst (replay_metrics ?db cert)
