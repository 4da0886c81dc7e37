(* The execution database: the dense-id dictionary, the LRU query
   cache, persistence and its record codec, query combinators, and
   the end-to-end guarantee the subsystem exists for — replaying a
   certificate against a recorded run performs zero kernel
   expansions. *)

open Patterns_stdx
open Patterns_db

let check = Alcotest.check

(* ----- Dict ----- *)

module Sdict = Dict.Make (String)
module Idict = Dict.Make (Int)

let test_dict_dense_ids () =
  let d = Sdict.create () in
  check Alcotest.int "first id" 0 (Sdict.intern d "a");
  check Alcotest.int "second id" 1 (Sdict.intern d "b");
  check Alcotest.int "re-intern is stable" 0 (Sdict.intern d "a");
  check Alcotest.int "cardinal" 2 (Sdict.cardinal d);
  check Alcotest.(option int) "find present" (Some 1) (Sdict.find d "b");
  check Alcotest.(option int) "find absent" None (Sdict.find d "c");
  check Alcotest.string "reverse lookup" "b" (Sdict.get d 1);
  Alcotest.check_raises "reverse absent" (Invalid_argument "Dict.get: unassigned id") (fun () ->
      ignore (Sdict.get d 2 : string));
  let seen = ref [] in
  Sdict.iter (fun id v -> seen := (id, v) :: !seen) d;
  check
    Alcotest.(list (pair int string))
    "iter ascending" [ (0, "a"); (1, "b") ] (List.rev !seen)

let dict_qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~count:200 ~name:"intern assigns first-sight order"
      Gen.(list small_int)
      (fun l ->
        let d = Idict.create () in
        let ids = List.map (Idict.intern d) l in
        let expected =
          let seen = Hashtbl.create 16 in
          List.map
            (fun v ->
              match Hashtbl.find_opt seen v with
              | Some id -> id
              | None ->
                let id = Hashtbl.length seen in
                Hashtbl.add seen v id;
                id)
            l
        in
        ids = expected
        && Idict.cardinal d = List.length (List.sort_uniq compare l)
        && List.for_all2 (fun v id -> Idict.get d id = v) l ids);
  ]

(* ----- Lru ----- *)

let test_lru_eviction_and_counters () =
  let c = Lru.create ~capacity:2 () in
  check Alcotest.(option int) "miss on empty" None (Lru.find c "a");
  check Alcotest.int "one miss" 1 (Lru.misses c);
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check Alcotest.(option int) "hit a" (Some 1) (Lru.find c "a");
  (* b is now least-recent: adding c evicts it *)
  Lru.add c "c" 3;
  check Alcotest.int "capacity respected" 2 (Lru.length c);
  check Alcotest.(option int) "b evicted" None (Lru.find c "b");
  check Alcotest.(option int) "a survived" (Some 1) (Lru.find c "a");
  check Alcotest.(option int) "c present" (Some 3) (Lru.find c "c");
  check Alcotest.int "hits" 3 (Lru.hits c);
  check Alcotest.int "misses" 2 (Lru.misses c);
  Lru.add c "a" 9;
  check Alcotest.(option int) "replace in place" (Some 9) (Lru.find c "a");
  check Alcotest.int "replace keeps length" 2 (Lru.length c);
  Lru.clear c;
  check Alcotest.int "clear empties" 0 (Lru.length c);
  check Alcotest.int "clear keeps counters" 4 (Lru.hits c);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be positive") (fun () ->
      ignore (Lru.create ~capacity:0 ()))

(* ----- Db: pattern queries against a full-scan oracle ----- *)

let opt_if b v = if b then Some v else None

let full_scan_filter ?src ?event ?dst all =
  List.filter
    (fun (s, e, d) ->
      (match src with None -> true | Some x -> s = x)
      && (match event with None -> true | Some x -> e = x)
      && match dst with None -> true | Some x -> d = x)
    all

let db_oracle_qcheck_tests =
  let open QCheck2 in
  let triple_gen =
    Gen.(triple (int_bound 12) (int_bound 3 >|= Printf.sprintf "e%d") (int_bound 12))
  in
  [
    Test.make ~count:200
      ~name:"every (bound/var)^3 pattern = full-scan filter (random triples)"
      Gen.(pair (list_size (int_bound 60) triple_gen) (triple bool bool bool))
      (fun (triples, (bs, be, bd)) ->
        let db = Db.create () in
        List.iter (fun (s, e, d) -> Db.add_edge db ~src:s ~event:e ~dst:d) triples;
        let all = Db.edges db () in
        let sorted_distinct = List.sort_uniq compare triples in
        (* the unbound scan is exactly the distinct triple set, sorted *)
        all = sorted_distinct
        && List.for_all
             (fun (s, e, d) ->
               let src = opt_if bs s and event = opt_if be e and dst = opt_if bd d in
               Db.edges db ?src ?event ?dst () = full_scan_filter ?src ?event ?dst all)
             (if triples = [] then [ (0, "e0", 0) ] else triples));
  ]

(* the registry-wide oracle: record real exploration edges for every
   protocol, then check all 8 patterns against the full scan *)
let registry_dbs =
  lazy
    (List.map
       (fun entry ->
         let db = Db.create () in
         let n = entry.Patterns_protocols.Registry.default_n in
         let rule =
           if entry.Patterns_protocols.Registry.name = "reliable-broadcast" then
             Patterns_protocols.Decision_rule.Broadcast 0
           else Patterns_protocols.Decision_rule.Unanimity
         in
         let (_ : Patterns_core.Classify.verdict) =
           Patterns_core.Classify.classify ~db ~max_failures:1 ~max_configs:1_200 ~rule
             ~n entry.Patterns_protocols.Registry.protocol
         in
         (entry.Patterns_protocols.Registry.name, db))
       Patterns_protocols.Registry.all)

let registry_oracle_test =
  let open QCheck2 in
  Test.make ~count:120
    ~name:"registry: every pattern over recorded explores = full-scan filter"
    Gen.(quad (int_bound 10_000) bool bool bool)
    (fun (pick, bs, be, bd) ->
      let dbs = Lazy.force registry_dbs in
      let _name, db = List.nth dbs (pick mod List.length dbs) in
      let all = Db.edges db () in
      all <> []
      &&
      let s, e, d = List.nth all (pick mod List.length all) in
      let src = opt_if bs s and event = opt_if be e and dst = opt_if bd d in
      Db.edges db ?src ?event ?dst () = full_scan_filter ?src ?event ?dst all)

let test_db_stats_and_cache () =
  let db = Db.create () in
  Db.add_edge db ~src:1 ~event:"x" ~dst:2;
  Db.add_edge db ~src:1 ~event:"x" ~dst:2;
  (* idempotent *)
  Db.add_edge db ~src:2 ~event:"y" ~dst:3;
  let s = Db.stats db in
  check Alcotest.int "distinct edges" 2 s.Db.edges;
  let q () = Db.edges db ~src:1 () in
  let r1 = q () in
  let r2 = q () in
  check Alcotest.bool "cached result identical" true (r1 = r2);
  let s = Db.stats db in
  check Alcotest.int "one scan for two identical queries" 1 s.Db.index_scans;
  check Alcotest.int "one hit" 1 s.Db.cache_hits;
  check Alcotest.int "one miss" 1 s.Db.cache_misses;
  (* a write invalidates the cache *)
  Db.add_edge db ~src:9 ~event:"z" ~dst:9;
  let _ = q () in
  check Alcotest.int "write invalidates" 2 (Db.stats db).Db.index_scans;
  check Alcotest.bool "mem_config present" true (Db.mem_config db 9);
  check Alcotest.bool "mem_config absent" false (Db.mem_config db 77)

(* facts never enter the edge-query cache, so a fact write keeps it:
   the same query after a [put_fact] is a hit, not a second scan *)
let test_db_put_fact_keeps_cache () =
  let db = Db.create () in
  Db.add_edge db ~src:1 ~event:"x" ~dst:2;
  let q () = Db.edges db ~src:1 () in
  let r1 = q () in
  Db.put_fact db ~kind:"cert" ~key:"k1" (Json.Obj [ ("crashes", Json.List []) ]);
  let r2 = q () in
  check Alcotest.bool "same answer" true (r1 = r2);
  let s = Db.stats db in
  check Alcotest.int "no second scan" 1 s.Db.index_scans;
  check Alcotest.int "one hit" 1 s.Db.cache_hits;
  check Alcotest.int "one miss" 1 s.Db.cache_misses

let test_db_unknown_bound_values () =
  let db = Db.create () in
  Db.add_edge db ~src:1 ~event:"x" ~dst:2;
  check
    Alcotest.(list (triple int string int))
    "unknown src" [] (Db.edges db ~src:5 ());
  check
    Alcotest.(list (triple int string int))
    "unknown event" []
    (Db.edges db ~event:"nope" ())

(* ----- persistence ----- *)

let test_db_persistence_roundtrip () =
  let db = Db.create () in
  Db.add_edge db ~src:10 ~event:"alpha" ~dst:20;
  Db.add_edge db ~src:20 ~event:"beta" ~dst:30;
  Db.put_fact db ~kind:"cert" ~key:"k1"
    (Json.Obj [ ("crashes", Json.List [ Json.Int 1 ]) ]);
  let file = Filename.temp_file "patterns-db" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Db.save db file;
      check Alcotest.bool "no temporary file left" false (Sys.file_exists (file ^ ".tmp"));
      match Db.load file with
      | Error e -> Alcotest.fail e
      | Ok db' ->
        check
          Alcotest.(list (triple int string int))
          "edges survive the file" (Db.edges db ()) (Db.edges db' ());
        check Alcotest.int "edge count survives" (Db.stats db).Db.edges
          (Db.stats db').Db.edges;
        check Alcotest.bool "facts survive the file" true
          (Db.get_fact db' ~kind:"cert" ~key:"k1" = Db.get_fact db ~kind:"cert" ~key:"k1"))

(* Nothing writes the monolithic /1 document any more: loading one is
   refused with an error naming its schema, not read. *)
let test_db_v1_refused () =
  let file = Filename.temp_file "patterns-db" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc
        "{\n\
        \  \"schema\": \"patterns-edge-db/1\",\n\
        \  \"configs\": [10, 20],\n\
        \  \"events\": [\"alpha\"],\n\
        \  \"edges\": [[0, 0, 1]],\n\
        \  \"facts\": []\n\
         }\n";
      close_out oc;
      match Db.load file with
      | Ok _ -> Alcotest.fail "a /1 document was loaded"
      | Error e ->
        let needle = "patterns-edge-db/1" in
        let rec has i =
          i + String.length needle <= String.length e
          && (String.sub e i (String.length needle) = needle || has (i + 1))
        in
        Alcotest.(check bool) ("error names the schema: " ^ e) true (has 0))

(* A /3 stream ends with the number of records before it and their
   digest.  A copy cut at a record boundary, or with one digit changed
   inside a record, still parses line by line, so without the end
   record it would load silently short or wrong; with it, it is
   refused with an error naming the file. *)
let saved_db_lines () =
  let db = Db.create () in
  Db.add_edge db ~src:10 ~event:"alpha" ~dst:20;
  Db.add_edge db ~src:20 ~event:"beta" ~dst:30;
  Db.put_fact db ~kind:"cert" ~key:"k1" (Json.Obj [ ("crashes", Json.List [ Json.Int 1 ]) ]);
  let file = Filename.temp_file "patterns-db" ".json" in
  Db.save db file;
  let lines =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  (file, lines)

let write_lines file lines =
  Out_channel.with_open_bin file (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let refused_naming file = function
  | Ok _ -> Alcotest.fail "a damaged database was loaded"
  | Error e ->
    Alcotest.(check bool) ("error names the file: " ^ e) true (String.starts_with ~prefix:file e)

let test_db_cut_at_record_boundary () =
  let file, lines = saved_db_lines () in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      (* every cut after the schema marker and before the end record's
         line ends, down to the file without its end record alone *)
      List.iteri
        (fun k _ ->
          if k >= 1 then begin
            write_lines file (List.filteri (fun i _ -> i < k) lines);
            refused_naming file (Db.load file)
          end)
        lines)

let test_db_flipped_digit () =
  let file, lines = saved_db_lines () in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      (* the first config fingerprint, 10, read back as 11: a well-formed
         record for an edge that was never recorded *)
      let flipped =
        List.map (fun l -> if l = {|{"c":10}|} then {|{"c":11}|} else l) lines
      in
      Alcotest.(check bool) "one record changed" true (flipped <> lines);
      write_lines file flipped;
      refused_naming file (Db.load file))

(* The per-root memo is saved from the sweep's workers, so two saves
   of one database to one path can overlap.  Each holds the database's
   lock from opening the temporary file to renaming it: neither
   truncates the other's temporary file or renames it away. *)
let test_db_concurrent_saves () =
  let db = Db.create () in
  for i = 0 to 1999 do
    Db.add_edge db ~src:i ~event:"step" ~dst:(i + 1)
  done;
  Db.put_fact db ~kind:"cert" ~key:"k1" (Json.Obj [ ("crashes", Json.List [ Json.Int 1 ]) ]);
  let file = Filename.temp_file "patterns-db" ".json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ file; file ^ ".tmp" ])
    (fun () ->
      let saves () =
        match
          for _ = 1 to 50 do
            Db.save db file
          done
        with
        | () -> None
        | exception e -> Some (Printexc.to_string e)
      in
      let other = Domain.spawn saves in
      let here = saves () in
      let there = Domain.join other in
      check Alcotest.(option string) "every save on this domain returns" None here;
      check Alcotest.(option string) "every save on the other domain returns" None there;
      match Db.load file with
      | Error e -> Alcotest.fail e
      | Ok db' ->
        check
          Alcotest.(list (triple int string int))
          "the file holds the database" (Db.edges db ()) (Db.edges db' ()))

let test_db_load_missing_and_malformed () =
  (match Db.load "/nonexistent/patterns-db.json" with
  | Ok db -> check Alcotest.int "missing file is empty" 0 (Db.stats db).Db.edges
  | Error e -> Alcotest.fail e);
  let file = Filename.temp_file "patterns-db" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "{\"schema\": \"wrong/9\"}";
      close_out oc;
      match Db.load file with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "foreign schema accepted")

(* ----- Query combinators ----- *)

let diamond () =
  (* 1 -> 2 -> 4, 1 -> 3 -> 4, plus an island 9 *)
  let db = Db.create () in
  Db.add_edge db ~src:1 ~event:"a" ~dst:2;
  Db.add_edge db ~src:1 ~event:"b" ~dst:3;
  Db.add_edge db ~src:2 ~event:"c" ~dst:4;
  Db.add_edge db ~src:3 ~event:"d" ~dst:4;
  Db.add_edge db ~src:9 ~event:"e" ~dst:9;
  db

let test_query_graph_helpers () =
  let db = diamond () in
  check
    Alcotest.(list (pair string int))
    "successors sorted" [ ("a", 2); ("b", 3) ] (Query.successors db 1);
  check
    Alcotest.(list (pair int string))
    "predecessors sorted" [ (2, "c"); (3, "d") ] (Query.predecessors db 4);
  check Alcotest.(list int) "reachable includes self" [ 1; 2; 3; 4 ] (Query.reachable db 1);
  check Alcotest.(list int) "island reaches itself" [ 9 ] (Query.reachable db 9);
  check Alcotest.(list int) "unknown config reaches nothing" [] (Query.reachable db 42);
  (match Query.path db ~src:1 ~dst:4 with
  | Some [ e1; e2 ] ->
    (* breadth-first with sorted successors: the canonical witness
       goes through 2 *)
    check Alcotest.int "hop 1" 2 e1.Query.dst;
    check Alcotest.int "hop 2" 4 e2.Query.dst
  | _ -> Alcotest.fail "no 2-hop path");
  (match Query.path db ~src:1 ~dst:1 with
  | Some [] -> ()
  | _ -> Alcotest.fail "src = dst must be the empty path");
  match Query.path db ~src:4 ~dst:1 with
  | None -> ()
  | Some _ -> Alcotest.fail "edges are directed"

let test_query_certs_touching () =
  let db = Db.create () in
  let cert_fact crashes =
    Json.Obj [ ("crashes", Json.List (List.map (fun p -> Json.Int p) crashes)) ]
  in
  Db.put_fact db ~kind:"cert" ~key:"c1" (cert_fact [ 0; 2 ]);
  Db.put_fact db ~kind:"cert" ~key:"c2" (cert_fact [ 1 ]);
  Db.put_fact db ~kind:"verdict" ~key:"v1" (cert_fact [ 0 ]);
  check Alcotest.int "touching 0" 1 (List.length (Query.certs_touching db 0));
  check Alcotest.int "touching 1" 1 (List.length (Query.certs_touching db 1));
  check Alcotest.int "touching 2" 1 (List.length (Query.certs_touching db 2));
  check Alcotest.int "touching 3" 0 (List.length (Query.certs_touching db 3));
  check Alcotest.(list string) "keys, not verdict facts" [ "c1" ]
    (List.map fst (Query.certs_touching db 0))

(* ----- zero-expansion replay over a recorded run ----- *)

module Replay = Patterns_adversary.Replay
module Metrics = Patterns_search.Metrics

(* a violating certificate for the replay cases: fig3-chain-st breaks
   nonfaulty agreement *)
let agreement_cert () =
  let entry =
    match Patterns_protocols.Registry.find "fig3-chain-st" with
    | Some e -> e
    | None -> Alcotest.fail "registry lost fig3-chain-st"
  in
  match
    Patterns_adversary.Hunt.hunt ~max_failures:2 ~max_runs:1_000
      ~mode:Patterns_adversary.Hunt.Systematic ~property:Patterns_core.Audit.Agreement
      ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:4 ~seed:0 entry
  with
  | Ok c -> c
  | Error tried -> Alcotest.failf "no violation in %d runs" tried

let test_replay_from_db_zero_expansions () =
  let cert = agreement_cert () in
  let baseline = Replay.replay cert in
  let db = Db.create () in
  (* first replay records: it plays the engine live *)
  let v1, m1 = Replay.replay_metrics ~db cert in
  check Alcotest.bool "recording replay reproduces" true (v1 = baseline);
  check Alcotest.int "recording replay plays live"
    (List.length cert.Patterns_adversary.Cert.script)
    m1.Metrics.states_expanded;
  check Alcotest.int "edges recorded"
    (List.length cert.Patterns_adversary.Cert.script)
    (Db.stats db).Db.edges;
  (* second replay answers from the index: zero kernel expansions *)
  let v2, m2 = Replay.replay_metrics ~db cert in
  check Alcotest.bool "db replay verdict identical" true (v2 = baseline);
  check Alcotest.int "zero expansions on the db path" 0 m2.Metrics.states_expanded;
  check Alcotest.int "zero budget on the db path" 0 m2.Metrics.budget_consumed;
  check Alcotest.bool "index scans did the work" true (m2.Metrics.db_index_scans > 0);
  (* shrinking over the same db is trajectory-identical to live *)
  let live = match Patterns_adversary.Shrink.shrink cert with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let cached = match Patterns_adversary.Shrink.shrink ~db cert with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "shrink result identical with db" true
    (live.Patterns_adversary.Shrink.cert = cached.Patterns_adversary.Shrink.cert);
  check Alcotest.int "shrink replay count identical with db"
    live.Patterns_adversary.Shrink.replays cached.Patterns_adversary.Shrink.replays

(* ----- a damaged verdict fact is a miss -----

   Verdict facts are sealed: with one hex digit flipped the fact no
   longer unseals, so the replay runs live, returns the same verdict
   and overwrites the fact, which answers the next replay again. *)

let test_replay_damaged_verdict_fact () =
  let cert = agreement_cert () in
  let baseline = Replay.replay cert in
  let db = Db.create () in
  ignore (Replay.replay_metrics ~db cert : Replay.verdict * Metrics.t);
  (match Db.facts db ~kind:"verdict" with
  | [ (key, Json.String h) ] ->
    let i = String.length h / 2 in
    Db.put_fact db ~kind:"verdict" ~key
      (Json.String (String.mapi (fun j c -> if j <> i then c else if c = '0' then '1' else '0') h))
  | _ -> Alcotest.fail "expected one sealed verdict fact");
  let v, m = Replay.replay_metrics ~db cert in
  check Alcotest.bool "damaged fact: same verdict" true (v = baseline);
  check Alcotest.int "damaged fact: replay runs live"
    (List.length cert.Patterns_adversary.Cert.script)
    m.Metrics.states_expanded;
  let v, m = Replay.replay_metrics ~db cert in
  check Alcotest.bool "overwritten fact: same verdict" true (v = baseline);
  check Alcotest.int "overwritten fact answers" 0 m.Metrics.states_expanded

(* ----- classification verdicts from the fact store ----- *)

let test_classify_cached_verdict () =
  let entry =
    match Patterns_protocols.Registry.find "fig3-chain" with
    | Some e -> e
    | None -> Alcotest.fail "registry lost fig3-chain"
  in
  let db = Db.create () in
  let rule = Patterns_protocols.Decision_rule.Unanimity in
  let classify metrics =
    Patterns_core.Classify.classify ~metrics ~db ~rule ~n:3
      entry.Patterns_protocols.Registry.protocol
  in
  let m1 = ref Patterns_search.Metrics.zero in
  let v1 = classify m1 in
  check Alcotest.bool "first sweep expands" true
    (!m1.Patterns_search.Metrics.states_expanded > 0);
  let m2 = ref Patterns_search.Metrics.zero in
  let v2 = classify m2 in
  check Alcotest.bool "cached verdict identical" true (v1 = v2);
  check Alcotest.int "cached sweep expands nothing" 0
    !m2.Patterns_search.Metrics.states_expanded;
  check Alcotest.bool "db counters still reported" true
    (!m2.Patterns_search.Metrics.db_edges > 0)

(* ----- recorded edges are a function of the state space alone ----- *)

let test_recorded_edges_driver_invariant () =
  let entry =
    match Patterns_protocols.Registry.find "fig3-chain" with
    | Some e -> e
    | None -> Alcotest.fail "registry lost fig3-chain"
  in
  let rule = Patterns_protocols.Decision_rule.Unanimity in
  let record ~jobs ~par_mode =
    let db = Db.create () in
    ignore
      (Patterns_core.Classify.classify ~db ~rule ~jobs ~par_mode ~n:3
         entry.Patterns_protocols.Registry.protocol);
    Query.edges db ()
  in
  let reference = record ~jobs:1 ~par_mode:Patterns_search.Search.Async in
  check Alcotest.bool "sweep recorded edges" true (reference <> []);
  List.iter
    (fun (jobs, par_mode, label) ->
      check Alcotest.bool label true (record ~jobs ~par_mode = reference))
    [
      (4, Patterns_search.Search.Async, "async jobs=4 identical");
      (1, Patterns_search.Search.Layers, "layers jobs=1 identical");
      (4, Patterns_search.Search.Layers, "layers jobs=4 identical");
    ]

(* ----- the /3 stream: re-save identity and the two parse paths -----

   [load] reads the ["c"] and ["t"] lines [save] writes without a
   [Json.t] and sends every other line through [Json.of_string]; both
   paths must build the same database, and a saved file must come back
   byte for byte. *)

let file_bytes file = In_channel.with_open_bin file In_channel.input_all

let with_temp f =
  let file = Filename.temp_file "patterns-db" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists file then Sys.remove file) (fun () -> f file)

let load_ok file = match Db.load file with Ok db -> db | Error e -> Alcotest.fail e

(* every bound/unbound pattern over a sample of the database's own
   triples, the unbound one among them *)
let patterns db =
  let all = Db.edges db () in
  let every = max 1 (List.length all / 12) in
  let bools = [ false; true ] in
  List.filteri (fun i _ -> i mod every = 0) all
  |> List.concat_map (fun (s, e, d) ->
         List.concat_map
           (fun bs ->
             List.concat_map
               (fun be -> List.map (fun bd -> (opt_if bs s, opt_if be e, opt_if bd d)) bools)
               bools)
           bools)

let answers db pats = List.map (fun (src, event, dst) -> Db.edges db ?src ?event ?dst ()) pats

(* a database as [hunt --db] records it: the certificate's execution
   replayed with its directive descriptors, the sealed verdict fact,
   and a plain-JSON certificate fact *)
let replay_db () =
  let cert = agreement_cert () in
  let db = Db.create () in
  ignore (Replay.replay ~db cert : Replay.verdict);
  Db.put_fact db ~kind:"cert" ~key:"agreement"
    (Json.Obj
       [
         ( "crashes",
           Json.List (List.map (fun p -> Json.Int p) (Patterns_adversary.Cert.crashes cert)) );
         ("cert", Patterns_adversary.Cert.to_json cert);
       ]);
  db

let test_resave_identity () =
  List.iter
    (fun (name, db) ->
      with_temp (fun f1 ->
          with_temp (fun f2 ->
              Db.save db f1;
              let loaded = load_ok f1 in
              Db.save loaded f2;
              check Alcotest.bool (name ^ ": save, load, save is byte-identical") true
                (file_bytes f1 = file_bytes f2);
              (* a second load of the same bytes takes the same queries,
                 so every counter must move alike *)
              let again = load_ok f2 in
              let pats = patterns db in
              let expected = answers db pats in
              check Alcotest.bool (name ^ ": patterns answered alike") true
                (answers loaded pats = expected && answers again pats = expected);
              check Alcotest.int (name ^ ": edges") (Db.stats db).Db.edges
                (Db.stats loaded).Db.edges;
              check Alcotest.bool (name ^ ": equal stats") true
                (Db.stats loaded = Db.stats again))))
    (("replay", replay_db ()) :: Lazy.force registry_dbs)

(* the end record of [lines] as [save] computes it below one group of
   4096 records: the MD5 of the MD5 of the lines *)
let end_record lines =
  let body = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  Printf.sprintf {|{"end":{"records":%d,"md5":"%s"}}|} (List.length lines)
    (Digest.to_hex (Digest.string (Digest.string body)))

let write_db file records =
  write_lines file (({|{"schema":"patterns-edge-db/3"}|} :: records) @ [ end_record records ])

let test_generic_form_loads_alike () =
  let db = Db.create () in
  Db.add_edge db ~src:10 ~event:"alpha" ~dst:(-20);
  Db.add_edge db ~src:(-20) ~event:"beta" ~dst:max_int;
  Db.add_edge db ~src:10 ~event:"beta" ~dst:min_int;
  Db.put_fact db ~kind:"cert" ~key:"k1" (Json.Obj [ ("crashes", Json.List [ Json.Int 1 ]) ]);
  with_temp (fun compact ->
      with_temp (fun generic ->
          with_temp (fun resaved ->
              Db.save db compact;
              write_db generic
                [
                  {| { "c" : 10 } |};
                  {|{"c": -20}|};
                  {|{ "c":4611686018427387903 }|};
                  {|{"c" :-4611686018427387904}|};
                  {|{ "e": "alpha" }|};
                  {|{"e" : "beta"}|};
                  {|{ "t": [ 0, 0, 1 ] }|};
                  {|{"t":[1,1,2] }|};
                  {|{"t" :[0 ,1, 3]}|};
                  {|{ "f": { "kind": "cert", "key": "k1", "value": { "crashes": [ 1 ] } } }|};
                ];
              Db.save (load_ok generic) resaved;
              check Alcotest.string "generic form saves as its compact twin" (file_bytes compact)
                (file_bytes resaved))))

(* an id past its dictionary in a compact edge line is refused with
   the generic path's text *)
let test_compact_id_out_of_range () =
  with_temp (fun file ->
      write_db file [ {|{"c":10}|}; {|{"c":20}|}; {|{"e":"alpha"}|}; {|{"t":[0,0,2]}|} ];
      match Db.load file with
      | Ok _ -> Alcotest.fail "an edge to an unassigned id was loaded"
      | Error e ->
        check Alcotest.string "refusal text"
          (file ^ ": line 5: edge references an id outside the dictionaries")
          e)

(* a "c" line [save] would not write goes to [Json.of_string], and
   loads (or is refused) exactly as that parser reads it *)
let test_noncanonical_config_lines () =
  List.iter
    (fun digits ->
      let line = Printf.sprintf {|{"c":%s}|} digits in
      with_temp (fun file ->
          write_db file [ line ];
          match (Json.of_string line, Db.load file) with
          | Ok (Json.Obj [ ("c", Json.Int fp) ]), Ok db ->
            check Alcotest.bool (line ^ " interned as parsed") true (Db.mem_config db fp)
          | Error e, Error e' ->
            check Alcotest.string (line ^ " refused") (file ^ ": line 2: " ^ e) e'
          | _ -> Alcotest.failf "%s: the load disagrees with Json.of_string" line))
    [ "007"; "-0"; "00"; "12345678901234567890"; "4611686018427387904"; "-4611686018427387905" ]

let () =
  Alcotest.run "db"
    [
      ( "dict",
        [
          Alcotest.test_case "dense ids" `Quick test_dict_dense_ids;
        ] );
      ("dict properties", List.map QCheck_alcotest.to_alcotest dict_qcheck_tests);
      ("lru", [ Alcotest.test_case "eviction and counters" `Quick test_lru_eviction_and_counters ]);
      ( "db",
        [
          Alcotest.test_case "stats and cache" `Quick test_db_stats_and_cache;
          Alcotest.test_case "unknown bound values" `Quick test_db_unknown_bound_values;
          Alcotest.test_case "a fact write keeps the query cache" `Quick
            test_db_put_fact_keeps_cache;
          Alcotest.test_case "persistence round-trip" `Quick test_db_persistence_roundtrip;
          Alcotest.test_case "edge-db /1 refused" `Quick test_db_v1_refused;
          Alcotest.test_case "missing and malformed files" `Quick
            test_db_load_missing_and_malformed;
          Alcotest.test_case "cut at a record boundary" `Quick
            test_db_cut_at_record_boundary;
          Alcotest.test_case "flipped digit refused" `Quick test_db_flipped_digit;
          Alcotest.test_case "concurrent saves to one path" `Quick test_db_concurrent_saves;
        ] );
      ("db properties", List.map QCheck_alcotest.to_alcotest db_oracle_qcheck_tests);
      ("registry oracle", [ QCheck_alcotest.to_alcotest registry_oracle_test ]);
      ( "jsonl round-trip",
        [
          Alcotest.test_case "save, load, save is byte-identical" `Slow test_resave_identity;
          Alcotest.test_case "the generic form loads alike" `Quick test_generic_form_loads_alike;
          Alcotest.test_case "compact id out of range" `Quick test_compact_id_out_of_range;
          Alcotest.test_case "noncanonical config lines" `Quick test_noncanonical_config_lines;
        ] );
      ( "query",
        [
          Alcotest.test_case "graph helpers" `Quick test_query_graph_helpers;
          Alcotest.test_case "certs touching" `Quick test_query_certs_touching;
        ] );
      ( "consumers",
        [
          Alcotest.test_case "replay from db: zero expansions" `Slow
            test_replay_from_db_zero_expansions;
          Alcotest.test_case "replay with a damaged verdict fact runs live" `Slow
            test_replay_damaged_verdict_fact;
          Alcotest.test_case "classify verdict from the fact store" `Slow
            test_classify_cached_verdict;
          Alcotest.test_case "recorded edges driver-invariant" `Slow
            test_recorded_edges_driver_invariant;
        ] );
    ]
