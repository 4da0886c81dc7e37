(* Unit and property tests for the utility substrate. *)

open Patterns_stdx

let check = Alcotest.check

let contains s fragment =
  let ls = String.length s and lf = String.length fragment in
  let rec go i = i + lf <= ls && (String.sub s i lf = fragment || go (i + 1)) in
  lf = 0 || go 0

(* ----- Prng ----- *)

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  let seq g = List.init 20 (fun _ -> Prng.bits64 g) in
  check (Alcotest.list Alcotest.int64) "same seed, same stream" (seq a) (seq b);
  let c = Prng.create ~seed:43 in
  Alcotest.(check bool) "different seed differs" false (seq (Prng.create ~seed:42) = seq c)

let test_prng_bounds () =
  let g = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Prng.int g ~bound:13 in
    if x < 0 || x >= 13 then Alcotest.fail "Prng.int out of bounds"
  done;
  for _ = 1 to 1000 do
    let f = Prng.float g in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "Prng.float out of bounds"
  done

let test_prng_split_independent () =
  let g = Prng.create ~seed:1 in
  let h = Prng.split g in
  let xs = List.init 10 (fun _ -> Prng.bits64 g) in
  let ys = List.init 10 (fun _ -> Prng.bits64 h) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let test_prng_errors () =
  let g = Prng.create ~seed:1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g ~bound:0));
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty list") (fun () ->
      ignore (Prng.pick g []))

let test_prng_shuffle_permutes () =
  let g = Prng.create ~seed:5 in
  let l = Listx.range 0 50 in
  let s = Prng.shuffle_list g l in
  check (Alcotest.list Alcotest.int) "same multiset" l (List.sort compare s)

(* qcheck properties *)
let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~count:300 ~name:"bitset to_list sorted and deduped"
      Gen.(list (int_bound 63))
      (fun l ->
        let s = Bitset.of_list 64 l in
        let expected = List.sort_uniq Int.compare l in
        Bitset.to_list s = expected && Bitset.cardinal s = List.length expected);
    Test.make ~count:300 ~name:"bitset union is commutative"
      Gen.(pair (list (int_bound 63)) (list (int_bound 63)))
      (fun (a, b) ->
        let sa = Bitset.of_list 64 a and sb = Bitset.of_list 64 b in
        let u1 = Bitset.copy sa in
        Bitset.union_into ~dst:u1 sb;
        let u2 = Bitset.copy sb in
        Bitset.union_into ~dst:u2 sa;
        Bitset.equal u1 u2);
    Test.make ~count:300 ~name:"bitset diff disjoint from subtrahend"
      Gen.(pair (list (int_bound 63)) (list (int_bound 63)))
      (fun (a, b) ->
        let sa = Bitset.of_list 64 a and sb = Bitset.of_list 64 b in
        let d = Bitset.copy sa in
        Bitset.diff_into ~dst:d sb;
        Bitset.disjoint d sb);
    Test.make ~count:300 ~name:"bitset subset of union"
      Gen.(pair (list (int_bound 63)) (list (int_bound 63)))
      (fun (a, b) ->
        let sa = Bitset.of_list 64 a and sb = Bitset.of_list 64 b in
        let u = Bitset.copy sa in
        Bitset.union_into ~dst:u sb;
        Bitset.subset sa u && Bitset.subset sb u);
    Test.make ~count:200 ~name:"interleavings preserve subsequence order"
      Gen.(pair (list_size (int_bound 3) small_int) (list_size (int_bound 3) small_int))
      (fun (a, b) ->
        let is_subsequence sub l =
          let rec go sub l =
            match (sub, l) with
            | [], _ -> true
            | _, [] -> false
            | x :: sub', y :: l' -> if x = y then go sub' l' else go sub l'
          in
          go sub l
        in
        (* tag elements to make them distinct across the two lists *)
        let a = List.map (fun x -> (0, x)) a and b = List.map (fun x -> (1, x)) b in
        let shuffles = Listx.interleavings [ a; b ] in
        List.for_all (fun s -> is_subsequence a s && is_subsequence b s) shuffles);
    Test.make ~count:100 ~name:"interleavings count is binomial"
      Gen.(pair (int_bound 4) (int_bound 4))
      (fun (na, nb) ->
        let a = List.init na (fun i -> (0, i)) and b = List.init nb (fun i -> (1, i)) in
        let binom =
          let rec fact k = if k <= 1 then 1 else k * fact (k - 1) in
          fact (na + nb) / (fact na * fact nb)
        in
        List.length (Listx.interleavings [ a; b ]) = binom);
    Test.make ~count:300 ~name:"dedup_sorted sorts and dedups" Gen.(list small_int) (fun l ->
        Listx.dedup_sorted ~cmp:Int.compare l = List.sort_uniq Int.compare l);
    Test.make ~count:300 ~name:"take @ drop = original"
      Gen.(pair (int_bound 20) (list small_int))
      (fun (n, l) -> Listx.take n l @ Listx.drop n l = l);
  ]

(* ----- Domain_pool ----- *)

let test_pool_empty_and_singleton () =
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      check (Alcotest.list Alcotest.int) "empty input" [] (Domain_pool.map pool succ []);
      check (Alcotest.list Alcotest.int) "singleton inline" [ 8 ]
        (Domain_pool.map pool (fun x -> x * 2) [ 4 ]))

let test_pool_jobs1_inline () =
  (* jobs=1 spawns no domains: every task runs on the calling domain *)
  Domain_pool.with_pool ~jobs:1 (fun pool ->
      let self = Domain.self () in
      let rans =
        Domain_pool.map pool (fun _ -> Domain.self () = self) (Listx.range 0 10)
      in
      Alcotest.(check bool) "all on calling domain" true (List.for_all Fun.id rans))

let test_pool_exception_then_reuse () =
  Domain_pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "first failing index wins" (Failure "boom 3") (fun () ->
          ignore
            (Domain_pool.map pool
               (fun i -> if i >= 3 then failwith (Printf.sprintf "boom %d" i) else i)
               (Listx.range 0 16)));
      (* the pool survives a failed batch *)
      check (Alcotest.list Alcotest.int) "reusable after failure" [ 0; 2; 4; 6 ]
        (Domain_pool.map pool (fun x -> 2 * x) (Listx.range 0 4)))

let test_pool_capped () =
  (* more workers than the runtime recommends are not spawned *)
  let cores = Domain_pool.default_jobs () in
  Domain_pool.with_pool ~jobs:(cores + 3) (fun pool ->
      Alcotest.(check int) "capped at the recommended count" cores (Domain_pool.jobs pool);
      check (Alcotest.list Alcotest.int) "still maps in order" [ 1; 2; 3; 4; 5 ]
        (Domain_pool.map pool succ [ 0; 1; 2; 3; 4 ]));
  Domain_pool.with_pool ~jobs:0 (fun pool ->
      Alcotest.(check int) "at least one worker" 1 (Domain_pool.jobs pool))

let test_pool_shutdown_rejects () =
  let pool = Domain_pool.create ~jobs:2 in
  Domain_pool.shutdown pool;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Domain_pool.map: pool is shut down") (fun () ->
      ignore (Domain_pool.map pool succ [ 1; 2; 3 ]))

let pool_qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~count:50 ~name:"pool map = List.map"
      Gen.(pair (int_range 1 6) (list small_int))
      (fun (jobs, l) ->
        Domain_pool.with_pool ~jobs (fun pool ->
            Domain_pool.map pool (fun x -> (x * 7) mod 13) l
            = List.map (fun x -> (x * 7) mod 13) l));
    Test.make ~count:50 ~name:"pool fold = left fold (non-commutative merge)"
      Gen.(pair (int_range 1 6) (list (string_size ~gen:printable (int_bound 4))))
      (fun (jobs, l) ->
        Domain_pool.with_pool ~jobs (fun pool ->
            Domain_pool.fold pool ~f:String.uppercase_ascii ~merge:( ^ ) ~init:"" l
            = List.fold_left (fun acc s -> acc ^ String.uppercase_ascii s) "" l));
  ]

(* ----- Visited_table ----- *)

let int_table () =
  Visited_table.create ~equal:Int.equal
    ~fingerprint:(fun i -> Fingerprint.of_int (i * 0x9e3779b9))
    ()

let test_visited_table_basics () =
  let t = int_table () in
  Alcotest.(check int) "initial capacity" 64 (Visited_table.capacity t);
  Alcotest.(check int) "initial_bits" 6 (Visited_table.initial_bits t);
  Alcotest.(check bool) "first insert" true (Visited_table.add_if_absent t 42);
  Alcotest.(check bool) "duplicate" false (Visited_table.add_if_absent t 42);
  Alcotest.(check bool) "mem present" true (Visited_table.mem t 42);
  Alcotest.(check bool) "mem absent" false (Visited_table.mem t 43);
  Alcotest.(check int) "bindings" 1 (Visited_table.bindings t);
  Alcotest.(check int) "probes = calls" 4 (Visited_table.probes t);
  Alcotest.(check int) "no collisions" 0 (Visited_table.collision_fallbacks t)

let test_visited_table_growth () =
  (* 1000 distinct keys through a 64-slot table: several doublings,
     nothing lost *)
  let t = int_table () in
  List.iter
    (fun i -> Alcotest.(check bool) "insert wins" true (Visited_table.add_if_absent t i))
    (Listx.range 0 1000);
  Alcotest.(check int) "bindings" 1000 (Visited_table.bindings t);
  Alcotest.(check bool) "grew" true (Visited_table.capacity t >= 2048);
  Alcotest.(check int) "initial_bits unchanged" 6 (Visited_table.initial_bits t);
  Alcotest.(check bool) "low load factor" true (Visited_table.occupancy t <= 0.5);
  Alcotest.(check bool) "every key present" true
    (List.for_all (Visited_table.mem t) (Listx.range 0 1000))

let test_visited_table_collisions () =
  (* a constant fingerprint sends every state down one probe walk:
     the table must tell them apart structurally *)
  let t =
    Visited_table.create ~equal:Int.equal
      ~fingerprint:(fun _ -> Fingerprint.of_int 42)
      ()
  in
  List.iter
    (fun i -> Alcotest.(check bool) "all inserted" true (Visited_table.add_if_absent t i))
    (Listx.range 0 10);
  Alcotest.(check bool) "no duplicate wins" false (Visited_table.add_if_absent t 5);
  Alcotest.(check int) "10 bindings despite equal fps" 10 (Visited_table.bindings t);
  Alcotest.(check bool) "each member found" true
    (List.for_all (Visited_table.mem t) (Listx.range 0 10));
  Alcotest.(check bool) "collisions counted" true (Visited_table.collision_fallbacks t > 0)

let colliding_table ~keys () =
  Visited_table.create ~equal:Int.equal
    ~fingerprint:(fun i -> Fingerprint.of_int (i land (keys - 1)))
    ()

(* qcheck: a sealed value round-trips, and every kind of damage —
   each strict prefix, any single-bit flip, another kind — is an
   [Error], never an exception or a wrong value *)
let seal_qcheck_tests =
  let open QCheck2 in
  let payload = Gen.(pair (list small_int) string_printable) in
  let kind = Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 12)) in
  [
    Test.make ~count:200 ~name:"round trip; prefixes, bit flips and other kinds refused"
      Gen.(triple payload kind nat)
      (fun (v, kind, bit) ->
        let s = Seal.seal ~kind v in
        let refused s' ~kind =
          match (Seal.unseal ~kind s' : (int list * string, string) result) with
          | Error _ -> true
          | Ok _ | (exception _) -> false
        in
        let bit = bit mod (8 * String.length s) in
        let flipped =
          String.mapi
            (fun i c -> if i = bit / 8 then Char.chr (Char.code c lxor (1 lsl (bit mod 8))) else c)
            s
        in
        Seal.unseal ~kind s = Ok v
        && List.for_all (fun len -> refused (String.sub s 0 len) ~kind)
             (List.init (String.length s) Fun.id)
        && refused flipped ~kind
        && refused s ~kind:(kind ^ "'"));
  ]

(* qcheck: the table against a Set model, random operation sequences,
   with spread and with colliding fingerprints *)
let visited_table_qcheck_tests =
  let open QCheck2 in
  let module IS = Set.Make (Int) in
  let matches_model keys t =
    let model = ref IS.empty in
    List.for_all
      (fun k ->
        let fresh = not (IS.mem k !model) in
        model := IS.add k !model;
        Visited_table.add_if_absent t k = fresh)
      keys
    && Visited_table.bindings t = IS.cardinal !model
    && IS.for_all (Visited_table.mem t) !model
  in
  [
    Test.make ~name:"visited table matches Set model (sequential)" ~count:200
      Gen.(list (int_bound 200))
      (fun keys ->
        List.for_all (matches_model keys) [ int_table (); colliding_table ~keys:8 () ]);
  ]

(* ----- Listx ----- *)

let test_range () =
  check (Alcotest.list Alcotest.int) "range 2 5" [ 2; 3; 4 ] (Listx.range 2 5);
  check (Alcotest.list Alcotest.int) "empty range" [] (Listx.range 5 5)

let test_all_bool_vectors () =
  let vs = Listx.all_bool_vectors 3 in
  Alcotest.(check int) "8 vectors" 8 (List.length vs);
  Alcotest.(check int) "all length 3" 3
    (List.fold_left (fun acc v -> min acc (List.length v)) 3 vs);
  Alcotest.(check bool) "distinct" true (List.length (List.sort_uniq compare vs) = 8)

let test_all_subsets () =
  Alcotest.(check int) "2^4 subsets" 16 (List.length (Listx.all_subsets [ 1; 2; 3; 4 ]))

let test_group_by () =
  let groups =
    Listx.group_by ~cmp:Int.compare ~key:(fun s -> String.length s)
      [ "aa"; "b"; "cc"; "d"; "eee" ]
  in
  check
    Alcotest.(list (pair int (list string)))
    "grouped" [ (1, [ "b"; "d" ]); (2, [ "aa"; "cc" ]); (3, [ "eee" ]) ]
    groups

let test_permutations () =
  Alcotest.(check int) "3! perms" 6 (List.length (Listx.permutations [ 1; 2; 3 ]));
  Alcotest.(check bool) "all distinct" true
    (List.length (List.sort_uniq compare (Listx.permutations [ 1; 2; 3 ])) = 6)

(* ----- Stats ----- *)

let test_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max;
  Alcotest.(check int) "count" 4 s.Stats.count

let test_linear_fit () =
  let slope, intercept = Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  Alcotest.(check (float 1e-9)) "slope" 2.0 slope;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 intercept

let test_power_fit () =
  let pts = List.map (fun n -> (float_of_int n, 3.0 *. (float_of_int n ** 2.0))) [ 2; 3; 5; 8; 13 ] in
  let k, c = Stats.power_fit pts in
  Alcotest.(check (float 1e-6)) "exponent" 2.0 k;
  Alcotest.(check (float 1e-6)) "constant" 3.0 c

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.percentile xs ~p:50.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs ~p:100.0)

let test_r_squared () =
  let pts = [ (1.0, 2.0); (2.0, 4.0); (3.0, 6.0) ] in
  Alcotest.(check (float 1e-9)) "perfect fit" 1.0 (Stats.r_squared pts ~f:(fun x -> 2.0 *. x))

(* ----- Json ----- *)

let json_ok s =
  match Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s e

let json_err name s =
  match Json.of_string s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: %S must be rejected" name s

let test_json_unicode_escapes () =
  (* ASCII and BMP escapes decode to their UTF-8 byte sequences *)
  check Alcotest.string "ascii" "A"
    (match json_ok {|"A"|} with Json.String s -> s | _ -> Alcotest.fail "not a string");
  check Alcotest.string "latin-1" "\xc3\xa9" (* é *)
    (match json_ok {|"\u00e9"|} with Json.String s -> s | _ -> Alcotest.fail "not a string");
  check Alcotest.string "3-byte BMP" "\xe2\x82\xac" (* € *)
    (match json_ok {|"\u20ac"|} with Json.String s -> s | _ -> Alcotest.fail "not a string");
  check Alcotest.string "uppercase hex" "\xe2\x82\xac"
    (match json_ok {|"\u20AC"|} with Json.String s -> s | _ -> Alcotest.fail "not a string");
  (* a surrogate pair combines into one astral code point *)
  check Alcotest.string "astral pair" "\xf0\x9f\x98\x80" (* U+1F600 *)
    (match json_ok {|"\ud83d\ude00"|} with
    | Json.String s -> s
    | _ -> Alcotest.fail "not a string")

let test_json_lone_surrogates_rejected () =
  json_err "lone high surrogate" {|"\ud800"|};
  json_err "lone high at end of escapes" {|"\ud83d x"|};
  json_err "lone low surrogate" {|"\udc00"|};
  json_err "high followed by non-surrogate escape" {|"\ud83dA"|};
  json_err "truncated hex" {|"\u12g4"|};
  json_err "short hex" {|"\u12"|}

let test_json_unicode_roundtrip () =
  (* the emitter passes UTF-8 bytes through unescaped, so decoded
     escapes survive to_string/of_string *)
  List.iter
    (fun s ->
      let doc = Json.Obj [ ("k", Json.String s) ] in
      match Json.of_string (Json.to_string doc) with
      | Ok doc' -> check Alcotest.bool s true (Json.equal doc doc')
      | Error e -> Alcotest.failf "round-trip %S: %s" s e)
    [ "plain"; "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "mixed \xc3\xa9 end" ];
  (* escaped input and raw UTF-8 input denote the same document *)
  check Alcotest.bool "escape = raw bytes" true
    (Json.equal (json_ok {|"\u20ac"|}) (json_ok "\"\xe2\x82\xac\""))

(* ----- Dot / Table ----- *)

let test_dot_render () =
  let g =
    Dot.digraph ~rankdir:"LR" ~name:"g"
      [ Dot.node "a"; Dot.node ~shape:"box" ~label:"B node" "b" ]
      [ Dot.edge ~style:"dashed" "a" "b" ]
  in
  let s = Dot.to_string g in
  List.iter
    (fun fragment ->
      if not (contains s fragment) then
        Alcotest.fail (Printf.sprintf "missing %S in:\n%s" fragment s))
    [ "digraph \"g\""; "rankdir=LR"; "\"b\" [label=\"B node\", shape=box]"; "\"a\" -> \"b\" [style=dashed]" ]

let test_table_render () =
  let t = Table.create ~headers:[ ("name", Table.Left); ("count", Table.Right) ] in
  Table.add_row t [ "alpha"; "10" ];
  Table.add_row t [ "b"; "7" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "header present" true (contains rendered "name");
  Alcotest.(check bool) "right aligned" true (contains rendered "   10")

let test_table_width_mismatch () =
  let t = Table.create ~headers:[ ("a", Table.Left) ] in
  Alcotest.check_raises "row width" (Invalid_argument "Table.add_row: expected 1 cells, got 2")
    (fun () -> Table.add_row t [ "x"; "y" ])

let () =
  Alcotest.run "stdx"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "errors" `Quick test_prng_errors;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "empty and singleton" `Quick test_pool_empty_and_singleton;
          Alcotest.test_case "jobs=1 inline" `Quick test_pool_jobs1_inline;
          Alcotest.test_case "exception then reuse" `Quick test_pool_exception_then_reuse;
          Alcotest.test_case "shutdown rejects" `Quick test_pool_shutdown_rejects;
          Alcotest.test_case "capped at the cores" `Quick test_pool_capped;
        ] );
      ( "visited_table",
        [
          Alcotest.test_case "basics" `Quick test_visited_table_basics;
          Alcotest.test_case "growth" `Quick test_visited_table_growth;
          Alcotest.test_case "collisions confirmed" `Quick test_visited_table_collisions;
        ] );
      ("table properties", List.map QCheck_alcotest.to_alcotest visited_table_qcheck_tests);
      ("seal properties", List.map QCheck_alcotest.to_alcotest seal_qcheck_tests);
      ( "listx",
        [
          Alcotest.test_case "range" `Quick test_range;
          Alcotest.test_case "bool vectors" `Quick test_all_bool_vectors;
          Alcotest.test_case "subsets" `Quick test_all_subsets;
          Alcotest.test_case "group_by" `Quick test_group_by;
          Alcotest.test_case "permutations" `Quick test_permutations;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
          Alcotest.test_case "power fit" `Quick test_power_fit;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "r squared" `Quick test_r_squared;
        ] );
      ( "json",
        [
          Alcotest.test_case "unicode escapes decode to UTF-8" `Quick
            test_json_unicode_escapes;
          Alcotest.test_case "lone surrogates rejected" `Quick
            test_json_lone_surrogates_rejected;
          Alcotest.test_case "unicode round-trip" `Quick test_json_unicode_roundtrip;
        ] );
      ( "render",
        [
          Alcotest.test_case "dot" `Quick test_dot_render;
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "table mismatch" `Quick test_table_width_mismatch;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
      ("pool properties", List.map QCheck_alcotest.to_alcotest pool_qcheck_tests);
    ]
