(* perf.exe — the benchmark of record (see README.md).

     perf.exe run     [--workload W]... [--seed S] [--seconds T] [--runs K]
                      [--trace 0|1] [--out FILE] [--smoke] [--override KEY=VALUE]...
     perf.exe trace   (run --trace 1)
     perf.exe compare BASE.json NEW.json

   [run] is the parent: it re-executes itself once per workload and
   sample, one child at a time, and aggregates the children's records.
   A child does the workload's set-up, then runs operations back to
   back for T seconds (a closed loop with one client) and writes one
   JSON record.  With exactly one workload and one run, the last line
   of standard output is the one-line result object

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   carrying the end-to-end metrics (or, with --trace 1, the per-layer
   metrics) of that workload. *)

module Json = Patterns_stdx.Json
module Table = Patterns_stdx.Table
module W = Workloads

(* ----- the metric catalogue ----- *)

(* End-to-end metrics, as a CLI user sees them.  The [_ref] times are
   operation times in units of the reference kernel run next to each
   operation ({!Reference}); BENCHMARK.json bounds the metrics in
   [of_record].  The rest are printed and recorded as diagnostics: raw
   seconds do not repeat within any usable bound on a shared host, and
   the error rate is 0 on a correct build, which the result object
   reports as [correct]/[failed] instead. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ref", "ref");
    ("op_tail_ref", "ref");
    ("cpu_p50_ref", "ref");
    ("peak_rss_mb", "MB");
    ("op_p50_s", "s");
    ("op_tail_s", "s");
    ("cpu_per_op_s", "s");
    ("ref_p50_s", "s");
    ("error_rate", "ratio");
  ]

let of_record = [ "setup_s"; "op_p50_ref"; "cpu_p50_ref"; "peak_rss_mb" ]

(* Per-layer metrics, named after the library directories.  A traced
   child reports each one its workload exercises; the rest read 0. *)
let per_layer =
  [
    ("sim.apply_ns", "ns");
    ("sim.apply_minor_words", "words");
    ("sim.applicable_ns", "ns");
    ("sim.failure_actions_ns", "ns");
    ("sim.fingerprint_ns", "ns");
    ("sim.compare_ns", "ns");
    ("sim.run_us", "us");
    ("sim.run_minor_words", "words");
    ("search.states_expanded", "count");
    ("search.dedup_hits", "count");
    ("search.dedup_ratio", "ratio");
    ("search.states_per_s", "1/s");
    ("search.self_ns_per_state", "ns");
    ("search.idle_s", "s");
    ("search.steals", "count");
    ("search.cas_retries", "count");
    ("search.parallel_speedup", "ratio");
    ("core.observe_ns_per_state", "ns");
    ("core.observe_share", "ratio");
    ("core.check_us", "us");
    ("pattern.vector_us", "us");
    ("pattern.self_us_per_vector", "us");
    ("pattern.terminal_configs", "count");
    ("adversary.runs_per_s", "1/s");
    ("adversary.hunt_witness_ms", "ms");
    ("adversary.plans_tried", "count");
    ("adversary.prefix_hit_ratio", "ratio");
    ("adversary.replay_live_us", "us");
    ("adversary.replay_indexed_us", "us");
    ("adversary.shrink_ms", "ms");
    ("adversary.shrink_replays", "count");
    ("db.record_s", "s");
    ("db.edges", "count");
    ("db.save_s", "s");
    ("db.load_s", "s");
    ("db.file_bytes", "bytes");
    ("db.reuse_ms", "ms");
    ("db.index_scans", "count");
    ("db.cache_hit_ratio", "ratio");
    ("stdx.spill_s", "s");
    ("stdx.spill_write_bytes", "bytes");
    ("stdx.spill_probes", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_words_per_op", "words");
    ("gc.major_collections_per_op", "count");
    ("gc.top_heap_mb", "MB");
    ("trace.overhead", "ratio");
    ("trace.coverage", "ratio");
  ]

(* Set-up-only children per workload, half before the timed child and
   half after it, besides the timed child's own set-up: a set-up of
   about 1.4 ms, almost all process start, drifts with the host within
   seconds, so setup_s is the median of all 21 rather than one child's
   reading. *)
let setup_samples = 20

(* ----- small helpers ----- *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf: " ^ msg);
      exit 2)
    fmt

let finite x = if Float.is_finite x then x else 0.

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_json path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e
  | exception Sys_error e -> die "%s" e

let num = function Json.Int i -> float_of_int i | Json.Float f -> f | _ -> nan

let member k j =
  match Json.member k j with Some v -> v | None -> die "record lacks %S" k

let get_num k j = num (member k j)
let get_int k j = int_of_float (get_num k j)
let get_list k j = match member k j with Json.List l -> l | _ -> die "%S is not a list" k

let obj_floats j =
  match j with
  | Json.Obj kvs -> List.map (fun (k, v) -> (k, num v)) kvs
  | _ -> die "expected an object of numbers"

let floats l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float (finite v))) l)

(* one line: the rendered document with its layout removed (no string
   in these documents contains a newline) *)
let one_line j =
  String.concat "" (List.map String.trim (String.split_on_char '\n' (Json.to_string j)))

(* VmHWM, the resident-set high-water mark of this process *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> go ()
      | exception End_of_file -> 0
    in
    let v = go () in
    close_in ic;
    v

(* ----- options ----- *)

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable runs : int;
  mutable out : string option;
  mutable smoke : bool;
  mutable overrides : string list;
  mutable mode : string;
  mutable t0 : float;
  mutable record : string;
  mutable files : string list;
}

let parse argv =
  let o =
    {
      workloads = [];
      seed = 1;
      seconds = 20.;
      trace = false;
      runs = 1;
      out = None;
      smoke = false;
      overrides = [];
      mode = "run";
      t0 = 0.;
      record = "";
      files = [];
    }
  in
  let specs =
    Arg.
      [
        ("--workload", String (fun w -> o.workloads <- o.workloads @ [ w ]), "W workload (repeatable; default: all)");
        ("--seed", Int (fun s -> o.seed <- s), "S input seed (default 1)");
        ("--seconds", Float (fun s -> o.seconds <- s), "T measured seconds per workload (default 20)");
        ("--trace", Int (fun t -> o.trace <- t <> 0), "0|1 per-layer metrics from a traced run");
        ("--runs", Int (fun k -> o.runs <- k), "K runs of the set; run k uses seed S + 1000000 k");
        ("--out", String (fun f -> o.out <- Some f), "FILE write every run's records as JSON");
        ("--smoke", Unit (fun () -> o.smoke <- true), " one checked operation and one traced iteration per workload");
        ( "--override",
          String (fun s -> o.overrides <- o.overrides @ [ s ]),
          "KEY=VALUE replace a pinned answer (tests the checker)" );
        ("--mode", String (fun m -> o.mode <- m), "setup|run|trace (child)");
        ("--t0", Float (fun t -> o.t0 <- t), "F spawn time (child)");
        ("--record", String (fun f -> o.record <- f), "FILE record path (child)");
      ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) argv specs
       (fun f -> o.files <- o.files @ [ f ])
       "perf.exe run|trace|compare [options]"
   with
  | Arg.Bad msg -> die "%s" msg
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  o

let expected_of o =
  List.fold_left
    (fun t spec -> match Expected.override t spec with Ok t -> t | Error e -> die "%s" e)
    Expected.pinned o.overrides

let workloads_of o =
  match o.workloads with
  | [] -> W.all
  | names ->
    List.map
      (fun n ->
        match W.find n with
        | Some w -> w
        | None ->
          die "unknown workload %S; try one of: %s" n
            (String.concat ", " (List.map (fun w -> w.W.name) W.all)))
      names

(* ----- the child ----- *)

let child o =
  let w = match workloads_of o with [ w ] -> w | _ -> die "a child runs one workload" in
  let ctx =
    {
      W.seed = o.seed;
      scratch = Filename.remove_extension o.record ^ ".d";
      expected = expected_of o;
    }
  in
  let inst = w.W.setup ctx in
  let record fields = write_file o.record (Json.to_string (Json.Obj fields)) in
  let errors l = Json.List (List.map (fun e -> Json.String e) (List.rev l)) in
  match o.mode with
  | "setup" ->
    let setup_s = Unix.gettimeofday () -. o.t0 in
    inst.W.teardown ();
    record [ ("setup_s", Json.Float setup_s) ]
  | "run" ->
    let setup_s = Unix.gettimeofday () -. o.t0 in
    let start = W.now () in
    let ops = ref [] and cpu_ops = ref [] and refs = ref [] and tl = W.tally () in
    let cpu_now () =
      let t = Unix.times () in
      t.Unix.tms_utime +. t.Unix.tms_stime
    in
    let rec loop i =
      let ck = { W.ctx; workload = w.W.name; failures = [] } in
      let c = cpu_now () in
      let t = W.now () in
      (try inst.W.op ck i with e -> W.fail ck (w.W.name ^ ": " ^ Printexc.to_string e));
      ops := (W.now () -. t) :: !ops;
      cpu_ops := (cpu_now () -. c) :: !cpu_ops;
      W.count_op tl ck;
      (* the kernel starts from the same heap state after every
         workload: none of the operation's garbage or pending major
         work is left for it to pay *)
      Gc.full_major ();
      let (), r = W.timed (fun () -> Reference.run ~domains:w.W.domains) in
      refs := r :: !refs;
      if (not o.smoke) && W.now () -. start < o.seconds then loop (i + 1)
    in
    loop 0;
    let rss = peak_rss_kb () in
    inst.W.teardown ();
    let samples l = Json.List (List.rev_map (fun t -> Json.Float t) l) in
    record
      [
        ("setup_s", Json.Float setup_s);
        ("ops", samples !ops);
        ("cpu_ops", samples !cpu_ops);
        ("refs", samples !refs);
        ("peak_rss_kb", Json.Int rss);
        ("attempted", Json.Int tl.W.attempted);
        ("failed", Json.Int tl.W.failed);
        ("errors", errors tl.W.errors);
      ]
  | "trace" ->
    Span.calibrate ();
    let tr =
      try inst.W.trace ~seconds:o.seconds ~smoke:o.smoke
      with e ->
        Span.on := false;
        let tl = W.tally () in
        tl.W.attempted <- 1;
        tl.W.failed <- 1;
        tl.W.errors <- [ w.W.name ^ ": " ^ Printexc.to_string e ];
        { W.tally = tl; layer = [] }
    in
    Span.write (Filename.remove_extension o.record ^ "-trace.json");
    inst.W.teardown ();
    record
      [
        ("attempted", Json.Int tr.W.tally.W.attempted);
        ("failed", Json.Int tr.W.tally.W.failed);
        ("errors", errors tr.W.tally.W.errors);
        ("layer", floats tr.W.layer);
      ]
  | m -> die "unknown child mode %S" m

(* ----- the parent ----- *)

let rec waitpid pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* One child at a time: spawn, wait, read its record.  The child's
   standard output goes to our standard error, so nothing it prints
   can be mistaken for the result line. *)
let spawn o ~scratch ~w ~seed ~mode ~k =
  let record = Filename.concat scratch (Printf.sprintf "%s-%s-%d.json" w.W.name mode k) in
  let args =
    [ "child"; "--workload"; w.W.name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%.17g" o.seconds; "--mode"; mode; "--record"; record ]
    @ (if o.smoke then [ "--smoke" ] else [])
    @ List.concat_map (fun s -> [ "--override"; s ]) o.overrides
  in
  let t0 = Unix.gettimeofday () in
  let argv = Array.of_list ((Sys.executable_name :: args) @ [ "--t0"; Printf.sprintf "%.17g" t0 ]) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  (match waitpid pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> die "%s %s child exited with %d" w.W.name mode c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> die "%s %s child killed by signal %d" w.W.name mode s);
  let j = read_json record in
  (match Json.member "errors" j with
  | Some (Json.List (_ :: _ as es)) ->
    List.iteri
      (fun i e ->
        if i < 5 then
          match e with Json.String s -> prerr_endline ("perf: failed check: " ^ s) | _ -> ())
      es
  | _ -> ());
  j

type result = {
  workload : string;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** end-to-end, or per-layer when traced *)
}

let measure o ~scratch ~w ~seed =
  if o.trace then begin
    let r = spawn o ~scratch ~w ~seed ~mode:"trace" ~k:0 in
    let layer = obj_floats (member "layer" r) in
    {
      workload = w.W.name;
      attempted = get_int "attempted" r;
      failed = get_int "failed" r;
      metrics =
        List.map
          (fun (name, _) -> (name, Option.value (List.assoc_opt name layer) ~default:0.))
          per_layer;
    }
  end
  else begin
    let setups ~first =
      if o.smoke then []
      else
        List.init (setup_samples / 2) (fun k ->
            spawn o ~scratch ~w ~seed ~mode:"setup" ~k:(first + k))
    in
    let before = setups ~first:0 in
    let r = spawn o ~scratch ~w ~seed ~mode:"run" ~k:0 in
    let setups = before @ setups ~first:(setup_samples / 2) in
    (* smoke mode also runs the traced iteration, whose shadow-count
       assertions count as checks of their own *)
    let t = if o.smoke then Some (spawn o ~scratch ~w ~seed ~mode:"trace" ~k:0) else None in
    let samples k = List.map num (get_list k r) in
    let ops = samples "ops" and cpu = samples "cpu_ops" and refs = samples "refs" in
    (* each operation over the reference run right after it *)
    let per_ref xs = List.map2 ( /. ) xs refs in
    let extra k = match t with Some t -> get_int k t | None -> 0 in
    let attempted = get_int "attempted" r + extra "attempted" in
    let failed = get_int "failed" r + extra "failed" in
    {
      workload = w.W.name;
      attempted;
      failed;
      metrics =
        [
          ("setup_s", Stat.median (List.map (get_num "setup_s") (r :: setups)));
          ("op_p50_ref", Stat.median (per_ref ops));
          ("op_tail_ref", Stat.tail (per_ref ops));
          ("cpu_p50_ref", Stat.median (per_ref cpu));
          ("peak_rss_mb", get_num "peak_rss_kb" r /. 1024.);
          ("op_p50_s", Stat.median ops);
          ("op_tail_s", Stat.tail ops);
          ("cpu_per_op_s", W.sum cpu /. float_of_int (List.length cpu));
          ("ref_p50_s", Stat.median refs);
          ("error_rate", float_of_int failed /. float_of_int (max 1 attempted));
        ];
    }
  end

let catalogue o = if o.trace then per_layer else end_to_end

let print_table o (results : result list) =
  let t =
    Table.create
      ~headers:
        (("metric", Table.Left) :: ("unit", Table.Left)
        :: List.map (fun r -> (r.workload, Table.Right)) results)
  in
  List.iter
    (fun (name, unit) ->
      Table.add_row t
        (name :: unit
        :: List.map
             (fun r -> Printf.sprintf "%.6g" (List.assoc name r.metrics))
             results))
    (catalogue o);
  Table.add_row t
    ("ops attempted/failed" :: ""
    :: List.map (fun r -> Printf.sprintf "%d/%d" r.attempted r.failed) results);
  Table.print t

let result_json r =
  Json.Obj
    [
      ("name", Json.String r.workload);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", floats r.metrics);
    ]

(* the result object: every metric BENCHMARK.json lists *)
let result_line o r =
  let listed =
    if o.trace then per_layer else List.filter (fun (n, _) -> List.mem n of_record) end_to_end
  in
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit) ->
               ( name,
                 Json.Obj
                   [
                     ("value", Json.Float (finite (List.assoc name r.metrics)));
                     ("unit", Json.String unit);
                   ] ))
             listed) );
    ]

(* Smoke passes when every workload whose answer was overridden failed
   every operation and every other workload failed none. *)
let smoke_verdict o results =
  let overridden w =
    List.exists
      (fun spec ->
        let key = List.hd (String.split_on_char '=' spec) in
        String.length key > String.length w
        && String.sub key 0 (String.length w + 1) = w ^ ".")
      o.overrides
  in
  List.fold_left
    (fun ok r ->
      let want = if overridden r.workload then r.attempted else 0 in
      if r.failed <> want then begin
        Printf.eprintf "perf: smoke: %s failed %d of %d operations, expected %d\n" r.workload
          r.failed r.attempted want;
        false
      end
      else ok)
    true results

let run o =
  let ws = workloads_of o in
  if o.runs < 1 then die "--runs must be at least 1";
  let scratch = Filename.concat ".perf" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  W.mkdir_p scratch;
  let sets =
    List.init o.runs (fun k ->
        let seed = o.seed + (k * 1_000_000) in
        let results = List.map (fun w -> measure o ~scratch ~w ~seed) ws in
        Printf.printf "run %d of %d, seed %d, %s\n" (k + 1) o.runs seed
          (if o.trace then "traced" else "untraced");
        print_table o results;
        flush stdout;
        (* traced children leave their span files next to the records *)
        if o.trace then
          List.iter
            (fun w ->
              let src = Filename.concat scratch (w.W.name ^ "-trace-0-trace.json") in
              if Sys.file_exists src then Sys.rename src (Filename.concat ".perf" ("trace-" ^ w.W.name ^ ".json")))
            ws;
        (seed, results))
  in
  W.rm_rf scratch;
  Option.iter
    (fun file ->
      write_file file
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.String "patterns-perf/1");
                ("trace", Json.Bool o.trace);
                ("seconds", Json.Float o.seconds);
                ( "runs",
                  Json.List
                    (List.map
                       (fun (seed, results) ->
                         Json.Obj
                           [
                             ("seed", Json.Int seed);
                             ("workloads", Json.List (List.map result_json results));
                           ])
                       sets) );
              ])
        ^ "\n"))
    o.out;
  let all = List.concat_map snd sets in
  if o.smoke then exit (if smoke_verdict o all then 0 else 1);
  match all with [ r ] -> print_endline (one_line (result_line o r)) | _ -> ()

(* ----- compare ----- *)

(* per workload and metric, the values of every run in a set *)
let load_set path =
  let j = read_json path in
  let runs = get_list "runs" j in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun run ->
      List.iter
        (fun w ->
          let name = match member "name" w with Json.String s -> s | _ -> die "bad name" in
          let failed = get_num "failed" w and attempted = get_num "attempted" w in
          let metrics =
            ("error_rate", failed /. Float.max 1. attempted)
            :: List.remove_assoc "error_rate" (obj_floats (member "metrics" w))
          in
          List.iter
            (fun (m, v) ->
              let key = (name, m) in
              Hashtbl.replace tbl key
                (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[]))
            metrics)
        (get_list "workloads" run))
    runs;
  tbl

let bounds path =
  List.map
    (fun m ->
      let str k = match member k m with Json.String s -> s | _ -> die "bad %S" k in
      (str "name", (str "better", get_num "bound" m)))
    (get_list "end_to_end" (read_json path))

type verdict = Ok_ | Regressed | Unresolved

let verdict_string = function Ok_ -> "ok" | Regressed -> "regressed" | Unresolved -> "unresolved"

(* A change is judged per (metric, workload) on medians, against the
   metric's bound.  Where either side's quartile spread exceeds the
   bound the medians cannot be told apart — unresolved — unless every
   run of one side beats every run of the other. *)
let judge ~better ~bound base next =
  let sign = if better = "lower" then 1. else -1. in
  let mb = Stat.median base and mn = Stat.median next in
  let worse = sign *. (mn -. mb) /. Float.abs mb in
  let spread xs m =
    let q1, q3 = Stat.quartiles xs in
    (q3 -. q1) /. Float.abs m
  in
  let lo xs = List.fold_left Float.min infinity (List.map (fun x -> sign *. x) xs) in
  let hi xs = List.fold_left Float.max neg_infinity (List.map (fun x -> sign *. x) xs) in
  let all_better = hi next < lo base and all_worse = lo next > hi base in
  if all_better then Ok_
  else if Float.max (spread base mb) (spread next mn) > bound && not all_worse then Unresolved
  else if worse > bound then Regressed
  else Ok_

let compare o =
  let base_file, new_file =
    match o.files with [ a; b ] -> (a, b) | _ -> die "compare takes BASE.json NEW.json"
  in
  let base = load_set base_file and next = load_set new_file in
  let bounds = bounds "BENCHMARK.json" in
  let workloads =
    List.filter_map
      (fun w ->
        if Hashtbl.mem base (w.W.name, "error_rate") && Hashtbl.mem next (w.W.name, "error_rate")
        then Some w.W.name
        else None)
      W.all
  in
  let t =
    Table.create
      ~headers:
        [
          ("metric", Table.Left); ("workload", Table.Left); ("base p50 [q1, q3]", Table.Right);
          ("new p50 [q1, q3]", Table.Right); ("ratio", Table.Right); ("bound", Table.Right);
          ("verdict", Table.Left);
        ]
  in
  let summary xs =
    let q1, q3 = Stat.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g]" (Stat.median xs) q1 q3
  in
  let worst = ref Ok_ in
  let note v =
    match (v, !worst) with
    | Regressed, _ -> worst := Regressed
    | Unresolved, Ok_ -> worst := Unresolved
    | _ -> ()
  in
  List.iter
    (fun (metric, (better, bound)) ->
      List.iter
        (fun w ->
          match (Hashtbl.find_opt base (w, metric), Hashtbl.find_opt next (w, metric)) with
          | Some b, Some n ->
            let v = judge ~better ~bound b n in
            note v;
            Table.add_row t
              [
                metric; w; summary b; summary n;
                Printf.sprintf "%.3f" (Stat.median n /. Stat.median b);
                Printf.sprintf "%.2f" bound; verdict_string v;
              ]
          | _ -> ())
        workloads)
    bounds;
  (* any rise in the error rate is a regression *)
  List.iter
    (fun w ->
      let b = Hashtbl.find base (w, "error_rate") and n = Hashtbl.find next (w, "error_rate") in
      let mx = List.fold_left Float.max 0. in
      let v = if mx n > mx b then Regressed else Ok_ in
      note v;
      Table.add_row t
        [ "error_rate"; w; summary b; summary n; "-"; "0"; verdict_string v ])
    workloads;
  Table.print t;
  Printf.printf "verdict: %s\n" (verdict_string !worst);
  exit (match !worst with Ok_ -> 0 | Regressed -> 1 | Unresolved -> 3)

let () =
  let argv = Sys.argv in
  if Array.length argv < 2 then die "usage: perf.exe run|trace|compare [options]";
  let rest = Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2)) in
  let o = parse rest in
  match argv.(1) with
  | "run" -> run o
  | "trace" ->
    o.trace <- true;
    run o
  | "compare" -> compare o
  | "child" -> child o
  | c -> die "unknown command %S (run, trace or compare)" c
