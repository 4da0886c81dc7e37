(* Pinned answers, per workload.  Every operation's answer is checked
   against these; a mismatch, an exception or a broken invariant makes
   the operation a failure.

   Each value was read once off the CLI on the same inputs and agrees
   with the registry oracles in test/ (test_core's classification rows,
   test_pattern's 17-pattern fig1 scheme, test_adversary's hunt →
   replay → shrink round trips):

     patterns-cli classify fig3-chain -n 3 --max-failures 2 --metrics-json -
     patterns-cli scheme fig1-tree -n 7 --metrics-json -
     patterns-cli hunt fig1-tree -n 7 --property tc --runs 500 --seed S
     patterns-cli classify fig3-chain -n 3 --max-failures 1 \
       --db DB --base-db DB --spill-dir D --mem-budget 2000 --metrics-json -
     patterns-cli classify fig3-chain -n 3 --max-failures 1 --base-db DB
     patterns-cli classify fig3-chain -n 3 --max-failures 1 --db DB
     patterns-cli hunt fig3-chain-st -n 4 --property agreement --mode systematic
     patterns-cli hunt fig3-chain -n 4 --property wt --mode systematic \
       --faults omission --fault-budget 1
     patterns-cli hunt fig3-chain -n 4 --property wt --mode systematic \
       --faults mobile --fault-budget 2
     patterns-cli replay CERT --db DB   (twice per certificate)
     patterns-cli shrink CERT --db DB *)

type value = Int of int | Bool of bool | Str of string

let to_string = function Int i -> string_of_int i | Bool b -> string_of_bool b | Str s -> s

(* fig3-chain at n=3 is WT-IC: the chain blocks no one but lets a
   committed p0 coexist with an aborted p2 once a crash cuts the chain *)
let chain_flags =
  "ic=true tc=false wt=true st=false ht=false rule=true validity=true safe=false \
   cor6=false truncated=false"

let sweep name =
  [
    (name ^ ".flags", Str chain_flags);
    (name ^ ".best", Str "WT-IC");
    (name ^ ".configs", Int 100_141);
    (name ^ ".states_expanded", Int 100_141);
    (name ^ ".dedup_hits", Int 58_707);
    (name ^ ".roots", Int 8);
  ]

let pinned =
  sweep "sweep-deep"
  @ sweep "sweep-deep-j2"
  @ [
      ("scheme-wide.patterns", Int 17);
      ("scheme-wide.configs", Int 19_207);
      ("scheme-wide.terminal", Int 128);
      ("scheme-wide.truncated", Bool false);
      ("scheme-wide.states_expanded", Int 19_207);
      ("scheme-wide.dedup_hits", Int 27_742);
      ("scheme-wide.roots", Int 128);
      (* fig1-tree is WT-TC: no crash schedule breaks TC, so every
         500-run random hunt is truncated by its run budget *)
      ("hunt-random.found", Bool false);
      ("hunt-random.tried", Int 500);
      ("hunt-random.states_expanded", Int 500);
      ("artifact-roundtrip.flags", Str chain_flags);
      ("artifact-roundtrip.configs", Int 22_857);
      ("artifact-roundtrip.dedup_hits", Int 16_565);
      ("artifact-roundtrip.db_edges", Int 39_414);
      ("artifact-roundtrip.spill_runs", Int 8);
      ("artifact-roundtrip.base_reuse_expanded", Int 0);
      ("artifact-roundtrip.base_reused_edges", Int 39_414);
      ("artifact-roundtrip.verdict_fact_expanded", Int 0);
      ("artifact-roundtrip.hunt1.tried", Int 400);
      ("artifact-roundtrip.hunt1.crashes", Int 1);
      ("artifact-roundtrip.hunt1.drops", Int 0);
      ("artifact-roundtrip.hunt1.directives", Int 36);
      ("artifact-roundtrip.hunt2.tried", Int 3_889);
      ("artifact-roundtrip.hunt2.crashes", Int 0);
      ("artifact-roundtrip.hunt2.drops", Int 1);
      ("artifact-roundtrip.hunt2.directives", Int 6);
      ("artifact-roundtrip.hunt3.tried", Int 3_889);
      ("artifact-roundtrip.hunt3.crashes", Int 0);
      ("artifact-roundtrip.hunt3.drops", Int 1);
      ("artifact-roundtrip.hunt3.directives", Int 6);
      (* live plays: the mobile witness is the omission witness, so its
         first replay is already answered from the index *)
      ("artifact-roundtrip.replay1.live_plays", Int 36);
      ("artifact-roundtrip.replay2.live_plays", Int 6);
      ("artifact-roundtrip.replay3.live_plays", Int 0);
      ("artifact-roundtrip.replay.indexed_plays", Int 0);
      ("artifact-roundtrip.shrink1.directives", Int 33);
      ("artifact-roundtrip.shrink1.n", Int 4);
      ("artifact-roundtrip.shrink1.replays", Int 199);
      ("artifact-roundtrip.shrink2.directives", Int 0);
      ("artifact-roundtrip.shrink2.n", Int 2);
      ("artifact-roundtrip.shrink2.replays", Int 11);
      ("artifact-roundtrip.shrink3.directives", Int 0);
      ("artifact-roundtrip.shrink3.n", Int 2);
      ("artifact-roundtrip.shrink3.replays", Int 11);
      ("artifact-roundtrip.final_db_edges", Int 39_596);
    ]

type t = (string * value) list

(* [KEY=VALUE]: replace one pinned value, keeping its type — the
   test-only hook that proves a wrong expectation fails the operations
   instead of aborting the run *)
let override (t : t) spec =
  match String.index_opt spec '=' with
  | None -> Error (Printf.sprintf "override %S: expected KEY=VALUE" spec)
  | Some i -> (
    let key = String.sub spec 0 i in
    let raw = String.sub spec (i + 1) (String.length spec - i - 1) in
    match List.assoc_opt key t with
    | None -> Error (Printf.sprintf "override %S: no pinned value %S" spec key)
    | Some old ->
      let v =
        match old with
        | Int _ -> Option.map (fun i -> Int i) (int_of_string_opt raw)
        | Bool _ -> Option.map (fun b -> Bool b) (bool_of_string_opt raw)
        | Str _ -> Some (Str raw)
      in
      match v with
      | None -> Error (Printf.sprintf "override %S: bad value for %S" spec key)
      | Some v -> Ok ((key, v) :: List.remove_assoc key t))

let get (t : t) key =
  match List.assoc_opt key t with
  | Some v -> v
  | None -> invalid_arg ("Expected.get: no pinned value " ^ key)
