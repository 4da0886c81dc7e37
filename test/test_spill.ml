(* The disk-backed spill layer must be invisible: both drivers, every
   protocol in the registry, every jobs value and every memory budget
   must produce exactly the answer the purely in-memory stores
   produce.  These tests pin that contract — Block_file codec and
   probe against a sorted-association oracle, Spill_store membership
   against a Hashtbl mirror under adversarial budgets, the kernel
   drivers against the balanced-tree reference, and a run through the
   per-root memo against one without it. *)

open Patterns_sim
open Patterns_stdx

let tmpdir () =
  let d = Filename.temp_file "patterns-spill" ".d" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_tmpdir d =
  if Sys.file_exists d && Sys.is_directory d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

let with_tmpdir f =
  let d = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_tmpdir d) (fun () -> f d)

let fp_of_int (x : int) : Fingerprint.t = Fingerprint.feed Fingerprint.seed x
let key_of_int x = Spill_store.key_of_fingerprint (fp_of_int x)

(* ----- Block_file: codec ----- *)

let test_block_codec () =
  let buf = Bytes.create Block_file.record_width in
  List.iter
    (fun (x, payload) ->
      let key = key_of_int x in
      Block_file.encode_record buf 0 ~key ~payload;
      let s = Bytes.to_string buf in
      Alcotest.(check string) "key round-trips" key (Block_file.decode_key s 0);
      Alcotest.(check int) "payload round-trips" payload (Block_file.decode_payload s 0))
    [ (0, 0); (1, 1); (-1, max_int); (max_int, 12345); (min_int, 42) ];
  Alcotest.check_raises "short key refused"
    (Invalid_argument "Block_file.encode_record: key must be 8 bytes") (fun () ->
      Block_file.encode_record buf 0 ~key:"abc" ~payload:0)

let test_key_order () =
  (* byte order = numeric order, across the sign boundary *)
  let samples = [ min_int; -1_000_000; -1; 0; 1; 42; 1_000_000; max_int ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ka = Spill_store.key_of_fingerprint a
          and kb = Spill_store.key_of_fingerprint b in
          Alcotest.(check int)
            (Printf.sprintf "order of %d vs %d" a b)
            (compare (compare a b) 0)
            (compare (String.compare ka kb) 0))
        samples)
    samples

(* ----- Block_file: create / probe against a sorted association ----- *)

let sorted_entries xs =
  (* distinct keys in ascending key order, payload = source int *)
  List.sort_uniq compare xs
  |> List.map (fun x -> (key_of_int x, x land max_int))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> Array.of_list

let test_block_probe () =
  with_tmpdir (fun d ->
      let xs = List.init 1000 (fun i -> (i * 7919) lxor 0x5bd1e995) in
      let entries = sorted_entries xs in
      let run =
        Block_file.create ~cache:(Block_file.cache ()) ~path:(Filename.concat d "run.blk")
          entries
      in
      Alcotest.(check int) "length" (Array.length entries) (Block_file.length run);
      Alcotest.(check int) "write_bytes"
        (Block_file.record_width * Array.length entries)
        (Block_file.write_bytes run);
      Array.iter
        (fun (k, v) ->
          Alcotest.(check (option int)) "present key found" (Some v)
            (Block_file.probe run k))
        entries;
      List.iter
        (fun x ->
          Alcotest.(check (option int)) "absent key missed" None
            (Block_file.probe run (key_of_int x)))
        (List.init 200 (fun i -> ((i + 2000) * 104729) lxor 0x27d4eb2f));
      Alcotest.(check bool) "probes counted" true (Block_file.probes run > 0);
      Alcotest.(check bool) "read_bytes counted" true (Block_file.read_bytes run > 0);
      Block_file.delete run;
      Alcotest.(check bool) "run file deleted" false
        (Sys.file_exists (Filename.concat d "run.blk")))

let test_block_unsorted_refused () =
  with_tmpdir (fun d ->
      let path = Filename.concat d "bad.blk" and cache = Block_file.cache () in
      let k1 = key_of_int 1 and k2 = key_of_int 2 in
      let lo, hi = if String.compare k1 k2 < 0 then (k1, k2) else (k2, k1) in
      Alcotest.check_raises "descending keys refused"
        (Invalid_argument "Block_file.create: keys must be strictly ascending")
        (fun () -> ignore (Block_file.create ~cache ~path [| (hi, 0); (lo, 1) |]));
      Alcotest.check_raises "duplicate keys refused"
        (Invalid_argument "Block_file.create: keys must be strictly ascending")
        (fun () -> ignore (Block_file.create ~cache ~path [| (lo, 0); (lo, 1) |])))

(* ----- Spill_store vs a Hashtbl mirror ----- *)

let test_spill_store_oracle () =
  with_tmpdir (fun d ->
      List.iter
        (fun mem_budget ->
          let store =
            Spill_store.create ~equal:Int.equal ~fingerprint:fp_of_int ~dir:d
              ~mem_budget ()
          in
          let mirror = Hashtbl.create 64 in
          let xs = List.init 500 (fun i -> (i * 31) mod 257) in
          List.iter
            (fun x ->
              let fresh = Spill_store.add_if_absent store x in
              Alcotest.(check bool)
                (Printf.sprintf "budget=%d add_if_absent %d" mem_budget x)
                (not (Hashtbl.mem mirror x))
                fresh;
              Hashtbl.replace mirror x ();
              Spill_store.maybe_evict store)
            xs;
          Alcotest.(check int)
            (Printf.sprintf "budget=%d bindings = distinct" mem_budget)
            (Hashtbl.length mirror) (Spill_store.bindings store);
          Alcotest.(check bool)
            (Printf.sprintf "budget=%d resident bounded" mem_budget)
            true
            (Spill_store.resident store <= max 1 mem_budget);
          for x = 0 to 400 do
            Alcotest.(check bool)
              (Printf.sprintf "budget=%d mem %d" mem_budget x)
              (Hashtbl.mem mirror x) (Spill_store.mem store x)
          done;
          if mem_budget < Hashtbl.length mirror then
            Alcotest.(check bool)
              (Printf.sprintf "budget=%d spilled something" mem_budget)
              true
              (Spill_store.spill_runs store > 0);
          Spill_store.dispose store)
        [ 1; 4; 64; 1_000_000 ])

(* ----- kernel drivers with spilling vs the balanced-tree reference ----- *)

let pick_n (module P : Protocol.S) ~default_n = if P.valid_n 3 then 3 else default_n

let reference_visited (module P : Protocol.S) ~n ~inputs =
  let module E = Engine.Make (P) in
  let module S = Set.Make (struct
    type t = E.config

    let compare = E.compare_config
  end) in
  let expand c = List.rev_map (fun a -> fst (E.apply_exn ~step:0 c a)) (E.applicable c) in
  let rec go visited = function
    | [] -> visited
    | c :: rest ->
      let fresh = List.filter (fun s -> not (S.mem s visited)) (expand c) in
      go (List.fold_left (fun v s -> S.add s v) visited fresh) (fresh @ rest)
  in
  let root = E.init ~n ~inputs in
  let visited = go (S.add root S.empty) [ root ] in
  (List.sort Int.compare (List.map E.fingerprint (S.elements visited)), S.cardinal visited)

type driver = Serial | Async

let driver_string = function Serial -> "serial" | Async -> "async"

(* the expanded states' fingerprints, collected in the observation
   accumulator: for an exhausted search, the visited set *)
let kernel_visited_spill ~driver (module P : Protocol.S) ~n ~inputs ~spill =
  let module E = Engine.Make (P) in
  let module Pr = struct
    type state = E.config

    let compare = E.compare_config
    let fingerprint = E.fingerprint
  end in
  let module K = Patterns_search.Search.Make (Pr) in
  let expand =
    {
      K.empty = (fun () -> ref []);
      merge =
        (fun a b ->
          a := !b @ !a;
          a);
      expand =
        (fun acc c ->
          acc := E.fingerprint c :: !acc;
          List.rev_map (fun a -> fst (E.apply_exn ~step:0 c a)) (E.applicable c));
    }
  in
  let root = E.init ~n ~inputs in
  let outcome, fps, m =
    match driver with
    | Serial -> K.run ?spill ~expand ~root ()
    | Async -> K.run_par_async ?spill ~expand ~root ()
  in
  ( (match outcome with
    | Patterns_search.Search.Exhausted -> "exhausted"
    | Patterns_search.Search.Truncated r -> "truncated:" ^ Patterns_search.Search.reason_string r
    | Patterns_search.Search.Goal_found _ -> "goal"),
    List.sort Int.compare !fps,
    m )

let check_spill_case ~dir entry cases =
  let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
  let n = pick_n (module P) ~default_n:entry.Patterns_protocols.Registry.default_n in
  let inputs = List.init n (fun i -> i mod 2 = 0) in
  let ref_fps, ref_card = reference_visited (module P) ~n ~inputs in
  List.iter
    (fun (driver, budget) ->
      let mem_budget = budget ~ref_card in
      let spill = Some { Patterns_search.Search.dir; mem_budget } in
      let outcome, fps, m = kernel_visited_spill ~driver (module P) ~n ~inputs ~spill in
      let label fmt =
        Printf.sprintf "%s %s budget=%d: %s" P.name (driver_string driver) mem_budget fmt
      in
      Alcotest.(check string) (label "outcome") "exhausted" outcome;
      Alcotest.(check int) (label "states_expanded") ref_card
        m.Patterns_search.Metrics.states_expanded;
      Alcotest.(check int) (label "cardinality") ref_card (List.length fps);
      Alcotest.(check (list int)) (label "fingerprint multiset") ref_fps fps;
      if mem_budget < ref_card then
        Alcotest.(check bool) (label "spilled") true
          (m.Patterns_search.Metrics.spill_runs > 0))
    cases

(* Every registry protocol, both drivers, a budget of a quarter of the
   visited set — small enough to force spilling everywhere, large
   enough that each store writes a handful of runs rather than one per
   state (a budget of 1 is roughly quadratic to probe; that regime is
   exercised on one small protocol in [test_drivers_tiny_budget]). *)
let quarter ~ref_card = max 8 (ref_card / 4)

let tiny ~ref_card:_ = 1
let small ~ref_card:_ = 8

let test_drivers_spill_oracle () =
  with_tmpdir (fun d ->
      List.iter
        (fun entry ->
          check_spill_case ~dir:d entry [ (Serial, quarter); (Async, quarter) ])
        (* the oracle's serial reference BFS must exhaust the reachable
           space; Ben-Or's is combinatorially explosive even at n = 3
           (see test_parallel), so it stays out of this uncapped sweep *)
        (List.filter
           (fun e -> e.Patterns_protocols.Registry.name <> "ben-or")
           Patterns_protocols.Registry.all))

let test_drivers_tiny_budget () =
  with_tmpdir (fun d ->
      let entry =
        List.find
          (fun e -> e.Patterns_protocols.Registry.name = "fig3-chain")
          Patterns_protocols.Registry.all
      in
      check_spill_case ~dir:d entry
        [ (Serial, tiny); (Serial, small); (Async, tiny); (Async, small) ])

(* ----- scheme / classify: spilling is answer-invisible end to end ----- *)

(* A handful of named protocols rather than the whole registry: the
   per-driver oracle above already proves spill-invariance of the raw
   kernels registry-wide; this checks the scheme-level wiring, where a
   whole-registry sweep at tiny budgets is quadratic in disk probes
   (fixed n up to 7 means 128 roots of up to 2000 configs each). *)
let test_scheme_spill_invariant () =
  with_tmpdir (fun d ->
      List.iter
        (fun (name, budgets) ->
          let entry = Option.get (Patterns_protocols.Registry.find name) in
          let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
          let n =
            pick_n (module P) ~default_n:entry.Patterns_protocols.Registry.default_n
          in
          let module S = Patterns_pattern.Scheme.Make (P) in
          (* budget-truncated sweeps pin the serial driver, whose
             truncation prefix is deterministic (test_parallel) *)
          let run spill =
            S.scheme ~max_configs:2_000 ~jobs:2 ~par_mode:Patterns_search.Search.Layers
              ?spill ~n ()
          in
          let pats1, stats1 = run None in
          List.iter
            (fun mem_budget ->
              let pats, stats =
                run (Some { Patterns_search.Search.dir = d; mem_budget })
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s: scheme budget=%d = no spill" P.name mem_budget)
                true
                (Patterns_pattern.Pattern.Set.equal pats1 pats
                && stats1 = stats))
            budgets)
        [ ("fig3-chain", [ 5; 64 ]); ("2pc", [ 64 ]); ("fig4-perverse", [ 64 ]) ])

let test_classify_spill_invariant () =
  with_tmpdir (fun d ->
      let run spill =
        Patterns_core.Classify.classify ~max_failures:1 ~jobs:2 ?spill
          ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3
          Patterns_protocols.Chain_proto.fig3
      in
      let v1 = run None in
      Alcotest.(check bool) "fig3 classify is exhaustive" false
        v1.Patterns_core.Classify.truncated;
      (* the failure sweep visits ~23k configs: budgets are sized to
         spill hard (dozens of runs) without one run per config *)
      List.iter
        (fun mem_budget ->
          let v = run (Some { Patterns_search.Search.dir = d; mem_budget }) in
          Alcotest.(check bool)
            (Printf.sprintf "fig3 verdict budget=%d = no spill" mem_budget)
            true
            (Stdlib.compare v1 v = 0))
        [ 1_000; 8_000 ])

(* ----- the per-root memo: resumed runs answer as plain ones ----- *)

module Db = Patterns_db.Db

(* a memo as --resume keeps it: saved to a file and loaded back *)
let through_file d base =
  let file = Filename.concat d "memo" in
  Db.save base file;
  match Db.load file with Ok db -> db | Error e -> Alcotest.fail e

let test_scheme_memo_resume () =
  with_tmpdir (fun d ->
      let (module P : Protocol.S) = Patterns_protocols.Chain_proto.fig3 in
      let module S = Patterns_pattern.Scheme.Make (P) in
      let plain = S.scheme ~n:3 () in
      let base = Db.create () in
      let fresh_metrics = ref Patterns_search.Metrics.zero in
      let fresh = S.scheme ~metrics:fresh_metrics ~base ~n:3 () in
      Alcotest.(check bool) "recorded = plain" true (plain = fresh);
      Alcotest.(check int) "one fact per vector" 8
        (List.length (Db.facts base ~kind:"scheme_vec2"));
      (* a full resume searches nothing: each vector reports only the
         successor derivations it skips *)
      let metrics = ref Patterns_search.Metrics.zero in
      let resumed = S.scheme ~metrics ~base:(through_file d base) ~n:3 () in
      Alcotest.(check bool) "resumed = plain" true (plain = resumed);
      Alcotest.(check int) "resumed vectors expand nothing" 0
        !metrics.Patterns_search.Metrics.states_expanded;
      Alcotest.(check int) "their derivations are skipped"
        (!fresh_metrics.Patterns_search.Metrics.fingerprint_probes - 8)
        !metrics.Patterns_search.Metrics.delta_reused_edges)

(* A memo recorded under other parameters is no error: its facts are
   keyed by them, so a run at n=2 through an n=3 memo misses, answers
   as a fresh run, and leaves the memo holding both. *)
let test_memo_other_n_misses () =
  with_tmpdir (fun d ->
      let (module P : Protocol.S) = Patterns_protocols.Chain_proto.fig3 in
      let module S = Patterns_pattern.Scheme.Make (P) in
      let base = Db.create () in
      ignore (S.scheme ~base ~n:3 () : Patterns_pattern.Pattern.Set.t * _);
      let base = through_file d base in
      let metrics = ref Patterns_search.Metrics.zero in
      let through = S.scheme ~metrics ~base ~n:2 () in
      Alcotest.(check bool) "n=2 through an n=3 memo = fresh n=2" true
        (S.scheme ~n:2 () = through);
      Alcotest.(check int) "nothing reused" 0 !metrics.Patterns_search.Metrics.delta_reused_edges;
      Alcotest.(check int) "both recorded" (8 + 4)
        (List.length (Db.facts base ~kind:"scheme_vec2")))

let test_hunt_memo_chunks () =
  with_tmpdir (fun d ->
      let twopc = Patterns_protocols.Registry.(List.find (fun e -> e.name = "2pc") all) in
      let expanded m = !m.Patterns_search.Metrics.states_expanded in
      (* the winner case: the chunk holding the violation is recorded
         with its certificate *)
      let hunt ?metrics ?base () =
        Patterns_adversary.Hunt.hunt ?metrics ?base ~max_failures:2 ~max_runs:5_000
          ~property:Patterns_core.Audit.TC ~rule:Patterns_protocols.Decision_rule.Unanimity
          ~n:3 ~seed:1984 twopc
      in
      let plain = hunt () in
      Alcotest.(check bool) "hunt finds the 2pc violation" true (Result.is_ok plain);
      let base = Db.create () in
      Alcotest.(check bool) "recorded hunt = plain" true (plain = hunt ~base ());
      let metrics = ref Patterns_search.Metrics.zero in
      Alcotest.(check bool) "resumed hunt = plain" true
        (plain = hunt ~metrics ~base:(through_file d base) ());
      Alcotest.(check int) "the winner is not run again" 0 (expanded metrics);
      (* the clean case across a chunk boundary: 5 000 runs are two
         chunks, both recorded; a resume runs neither and clears the
         same count *)
      let clean ?metrics ?base () =
        Patterns_adversary.Hunt.hunt ?metrics ?base ~max_failures:1 ~max_runs:5_000
          ~property:Patterns_core.Audit.Agreement
          ~rule:Patterns_protocols.Decision_rule.Unanimity ~n:3 ~seed:7 twopc
      in
      let plain = clean () in
      Alcotest.(check bool) "clean hunt exhausts its budget" true (plain = Error 5_000);
      let base = Db.create () in
      Alcotest.(check bool) "recorded clean hunt = plain" true (plain = clean ~base ());
      Alcotest.(check int) "one fact per chunk" 2
        (List.length (Db.facts base ~kind:"hunt_chunk"));
      let metrics = ref Patterns_search.Metrics.zero in
      Alcotest.(check bool) "resumed clean hunt = plain" true
        (plain = clean ~metrics ~base:(through_file d base) ());
      Alcotest.(check int) "no chunk run again" 0 (expanded metrics))

(* ----- qcheck ----- *)

let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~name:"key_of_fingerprint preserves order" ~count:500
      Gen.(pair int int)
      (fun (a, b) ->
        compare (compare a b) 0
        = compare
            (String.compare
               (Spill_store.key_of_fingerprint a)
               (Spill_store.key_of_fingerprint b))
            0);
    Test.make ~name:"Block_file probe = sorted association" ~count:60
      Gen.(pair (list_size (int_range 1 300) (int_bound 10_000)) (int_bound 100_000))
      (fun (xs, seed) ->
        with_tmpdir (fun d ->
            let entries = sorted_entries xs in
            Array.length entries > 0
            ==>
            let run =
              Block_file.create ~cache:(Block_file.cache ())
                ~path:(Filename.concat d (Printf.sprintf "r%d.blk" seed))
                entries
            in
            let ok_present =
              Array.for_all (fun (k, v) -> Block_file.probe run k = Some v) entries
            in
            let prng = Prng.create ~seed in
            let ok_absent =
              List.for_all
                (fun _ ->
                  let x = 10_001 + Prng.int prng ~bound:100_000 in
                  Block_file.probe run (key_of_int x) = None)
                (List.init 50 Fun.id)
            in
            Block_file.delete run;
            ok_present && ok_absent));
    Test.make ~name:"Spill_store membership = Hashtbl mirror" ~count:40
      Gen.(
        tup3
          (list_size (int_range 1 400) (int_bound 200))
          (int_range 1 16)
          (int_bound 100_000))
      (fun (xs, mem_budget, seed) ->
        with_tmpdir (fun d ->
            let store =
              Spill_store.create ~equal:Int.equal ~fingerprint:fp_of_int ~dir:d
                ~mem_budget ()
            in
            let mirror = Hashtbl.create 64 in
            let ok_inserts =
              List.for_all
                (fun x ->
                  let fresh = Spill_store.add_if_absent store x in
                  let expected = not (Hashtbl.mem mirror x) in
                  Hashtbl.replace mirror x ();
                  Spill_store.maybe_evict store;
                  fresh = expected)
                xs
            in
            let prng = Prng.create ~seed in
            let ok_probes =
              List.for_all
                (fun _ ->
                  let x = Prng.int prng ~bound:250 in
                  Spill_store.mem store x = Hashtbl.mem mirror x)
                (List.init 100 Fun.id)
            in
            let ok_counts = Spill_store.bindings store = Hashtbl.length mirror in
            Spill_store.dispose store;
            ok_inserts && ok_probes && ok_counts));
  ]

let () =
  Alcotest.run "spill"
    [
      ( "block_file",
        [
          Alcotest.test_case "codec" `Quick test_block_codec;
          Alcotest.test_case "key order" `Quick test_key_order;
          Alcotest.test_case "create and probe" `Quick test_block_probe;
          Alcotest.test_case "unsorted refused" `Quick test_block_unsorted_refused;
        ] );
      ( "spill_store",
        [ Alcotest.test_case "hashtbl oracle" `Quick test_spill_store_oracle ] );
      ( "drivers",
        [
          Alcotest.test_case "registry oracle, all drivers" `Quick
            test_drivers_spill_oracle;
          Alcotest.test_case "tiny budgets, one protocol" `Quick test_drivers_tiny_budget;
          Alcotest.test_case "scheme spill-invariant" `Quick test_scheme_spill_invariant;
          Alcotest.test_case "classify spill-invariant" `Quick
            test_classify_spill_invariant;
        ] );
      ( "memo",
        [
          Alcotest.test_case "scheme resume" `Quick test_scheme_memo_resume;
          Alcotest.test_case "other n is a miss" `Quick test_memo_other_n_misses;
          Alcotest.test_case "hunt chunk equivalence" `Quick test_hunt_memo_chunks;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
