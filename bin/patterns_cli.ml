(* Command-line interface to the library: run protocols, enumerate
   schemes, classify against the taxonomy, and verify the lattice. *)

open Cmdliner
open Patterns_sim
open Patterns_core

let find_protocol name =
  match Patterns_protocols.Registry.find name with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown protocol %S; try one of: %s" name
         (String.concat ", " (Patterns_protocols.Registry.names ())))

let parse_inputs n = function
  | None -> Ok (List.init n (fun _ -> true))
  | Some s ->
    if String.length s <> n then
      Error (Printf.sprintf "--inputs needs exactly %d bits, got %S" n s)
    else
      Ok (List.init n (fun i -> s.[i] = '1'))

let rule_of_registry entry =
  (* the broadcast protocol uses the Broadcast rule; the standalone
     termination protocol computes threshold-1; everything else is
     unanimity *)
  let open Patterns_protocols in
  if entry.Registry.name = "ben-or" then Decision_rule.Any_input
  else if entry.Registry.name = "reliable-broadcast" then Decision_rule.Broadcast 0
  else if entry.Registry.name = "termination" then Decision_rule.Threshold 1
  else if entry.Registry.name = "voting-star-thr3-5" then Decision_rule.Threshold 3
  else if entry.Registry.name = "voting-star-subset-5" then Decision_rule.Subset [ 0; 1 ]
  else Decision_rule.Unanimity

(* ----- list ----- *)

let list_cmd =
  let doc = "List the available protocols." in
  let run () =
    let table =
      Patterns_stdx.Table.create
        ~headers:
          [ ("name", Patterns_stdx.Table.Left); ("n", Patterns_stdx.Table.Right);
            ("description", Patterns_stdx.Table.Left) ]
    in
    List.iter
      (fun e ->
        Patterns_stdx.Table.add_row table
          [
            e.Patterns_protocols.Registry.name;
            (string_of_int e.Patterns_protocols.Registry.default_n
            ^ if e.Patterns_protocols.Registry.fixed_n then "" else "+");
            e.Patterns_protocols.Registry.describe;
          ])
      Patterns_protocols.Registry.all;
    Patterns_stdx.Table.print table
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ----- shared arguments ----- *)

let protocol_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROTOCOL" ~doc:"Protocol name (see $(b,list)).")

let n_arg =
  Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N" ~doc:"Number of processors.")

let inputs_arg =
  Arg.(value & opt (some string) None
       & info [ "inputs" ] ~docv:"BITS" ~doc:"Initial bits, e.g. 1101. Default: all ones.")

let seed_arg =
  Arg.(value & opt (some int) None
       & info [ "seed" ] ~docv:"SEED" ~doc:"Random fair scheduler with this seed (default: deterministic FIFO).")

let fifo_notices_arg =
  Arg.(value & flag
       & info [ "fifo-notices" ]
         ~doc:"Fail-stop delivery discipline: a failure notice arrives only after all of the \
               failed sender's messages (the paper's default leaves them unordered).")

let failures_arg =
  Arg.(value & opt_all (pair ~sep:':' int int) []
       & info [ "fail" ] ~docv:"STEP:PROC" ~doc:"Fail-stop processor PROC at global step STEP (repeatable).")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"J"
         ~doc:"Worker domains (0 = all cores). A sweep over several roots (input \
               vectors) searches up to $(docv) roots at once, each on one worker, so its \
               output is the same for every value, truncated or not, under either \
               driver.")

let resolve_jobs j = if j <= 0 then Patterns_stdx.Domain_pool.default_jobs () else j

let par_mode_arg =
  Arg.(value
       & opt (some (enum [ ("async", Patterns_search.Search.Async);
                           ("layers", Patterns_search.Search.Layers) ])) None
       & info [ "par-mode" ] ~docv:"MODE"
         ~doc:"Search driver, the order in which each root is searched on its one \
               worker: $(b,async) is depth-first; $(b,layers) is breadth-first. The \
               default is $(b,async) everywhere except $(b,realize), whose \
               shortest-witness guarantee needs $(b,layers). The choice can change \
               answers: where distinct paths reach one behavioural configuration the two \
               can report different counts, and a truncated search stops at a different \
               point.")

let metrics_json_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-json" ] ~docv:"FILE"
         ~doc:(Printf.sprintf
                 "Write the search kernel's metrics (schema $(b,%s)) as JSON to $(docv); \
                  $(b,-) means stdout."
                 Patterns_search.Metrics.schema))

let db_arg =
  Arg.(value & opt (some string) None
       & info [ "db" ] ~docv:"FILE"
         ~doc:"Execution database (schema $(b,patterns-edge-db/3), streamed JSONL ending in \
               a record count and digest): consult the recorded edge log before searching, \
               record every fresh expansion into it, and write it back to $(docv) on exit.  \
               For $(b,check)/$(b,classify) without $(b,--resume) it is also the per-root \
               memo.  A missing file starts empty; a damaged one is refused.  Inspect it \
               with $(b,query).")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"SECONDS"
         ~doc:"Wall-clock budget for the search. Exceeding it truncates the answer \
               gracefully (exit 2) instead of hanging; the metrics record the hit.")

let max_states_arg =
  Arg.(value & opt (some int) None
       & info [ "max-states" ] ~docv:"K"
         ~doc:"Live-state budget (visited + frontier) of each root's search; up to \
               $(b,--jobs) roots are live at once. Exceeding it truncates the answer \
               gracefully (exit 2) instead of exhausting memory, at the same point for \
               every $(b,--jobs).")

let spill_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "spill-dir" ] ~docv:"DIR"
         ~doc:"Disk-backed visited storage: evict cold fingerprint shards to sorted run \
               files under $(docv) whenever the resident store reaches $(b,--mem-budget) \
               bindings.  Answers and deterministic counters are bit-identical with and \
               without spilling; the metrics /7 section records the disk traffic.  Run \
               files are deleted when each search returns.")

let mem_budget_arg =
  Arg.(value & opt int 1_000_000
       & info [ "mem-budget" ] ~docv:"K"
         ~doc:"($(b,--spill-dir) only) Resident-binding high-water mark of each root's \
               search, with up to $(b,--jobs) roots live at once: reaching it evicts \
               whole shards, largest first, until half the budget is free.")

let resume_arg =
  Arg.(value & opt (some string) None
       & info [ "resume" ] ~docv:"FILE"
         ~doc:"The per-root memo (an execution database, schema $(b,patterns-edge-db/3)): \
               answer each root (input vector, hunt index chunk) recorded in $(docv) \
               under the same parameters without searching it, search the rest, and \
               record each one searched into $(docv), rewritten through a rename after \
               every recorded root, so a killed run loses only the root in progress.  \
               The output and exit code are those of a run without it; the metrics \
               count only the roots searched, plus the derivations skipped in \
               $(b,delta_reused_edges).  A missing file starts empty; a damaged one is \
               refused.  Roots cut short by $(b,--deadline) are never recorded.")

let kill_after_arg =
  Arg.(value & opt (some int) None
       & info [ "kill-after" ] ~docv:"K"
         ~doc:"Test hook: exit 99 after $(docv) roots recorded into the $(b,--resume) \
               file, leaving it for the next run.")

let spill_of dir mem_budget =
  Option.map (fun dir -> { Patterns_search.Search.dir; mem_budget }) dir

(* Refusals below the library surface raise [Failure]; surface them
   as CLI errors, not backtraces. *)
let catch_failures f =
  try f () with Failure msg ->
    prerr_endline ("error: " ^ msg);
    exit 1

let emit_metrics dest (m : Patterns_search.Metrics.t) =
  match dest with
  | None -> ()
  | Some "-" ->
    print_string (Patterns_search.Metrics.to_json m);
    print_newline ()
  | Some file ->
    let oc = open_out file in
    output_string oc (Patterns_search.Metrics.to_json m);
    output_char oc '\n';
    close_out oc

let resolve_n entry n =
  let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
  let n = Option.value n ~default:entry.Patterns_protocols.Registry.default_n in
  if P.valid_n n then Ok n
  else Error (Printf.sprintf "%s does not support n = %d" P.name n)

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    exit 1

let load_db = function
  | None -> None
  | Some path ->
    (match Patterns_db.Db.load path with
    | Ok db -> Some (db, path)
    | Error msg -> or_die (Error msg))

let db_handle = Option.map fst
let save_db = function None -> () | Some (db, path) -> Patterns_db.Db.save db path

(* The --resume memo: loaded like --db (sharing its handle when both
   name one file), and saved after every root recorded into it.  Roots
   are recorded on the sweep's workers, so the hook runs under one
   lock: the count and the kill see one save at a time. *)
let open_memo ?db resume kill_after =
  let memo =
    match (resume, db) with
    | Some path, Some (db, path') when path = path' -> Some (db, path)
    | _ -> load_db resume
  in
  Option.map
    (fun (memo, path) ->
      let recorded = ref 0 and lock = Mutex.create () in
      Patterns_db.Db.on_put memo (fun () ->
          Mutex.protect lock (fun () ->
              Patterns_db.Db.save memo path;
              incr recorded;
              match kill_after with
              | Some k when !recorded >= k ->
                Printf.eprintf "memo: killed after %d recorded roots (test hook)\n%!" k;
                exit 99
              | _ -> ()));
      memo)
    memo

(* ----- run ----- *)

let run_cmd =
  let doc = "Run a protocol and print its trace, decisions and checks." in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the trace as CSV instead of the report.")
  in
  let run name n inputs seed failures csv fifo_notices =
    let entry = or_die (find_protocol name) in
    let n = or_die (resolve_n entry n) in
    let inputs = or_die (parse_inputs n inputs) in
    let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
    let module E = Engine.Make (P) in
    let scheduler =
      match seed with
      | None -> E.fifo_scheduler
      | Some seed -> E.random_scheduler (Patterns_stdx.Prng.create ~seed)
    in
    let r = E.run ~failures ~fifo_notices ~scheduler ~n ~inputs () in
    if csv then begin
      print_string (Trace.to_csv ~pp_msg:P.pp_msg r.E.trace);
      exit 0
    end;
    Format.printf "%a@." (Trace.pp ~pp_msg:P.pp_msg) r.E.trace;
    Format.printf "@.steps=%d messages=%d quiescent=%b@." r.E.steps
      (Trace.message_count r.E.trace) r.E.quiescent;
    List.iter
      (fun p ->
        Format.printf "%a: %a%s@." Proc_id.pp p Status.pp (E.status_of r.E.final p)
          (if E.is_failed r.E.final p then " (failed)" else ""))
      (Proc_id.all ~n);
    let rule = rule_of_registry entry in
    let verdict name = function
      | Ok () -> Format.printf "%-26s ok@." name
      | Error e -> Format.printf "%-26s VIOLATED: %s@." name e
    in
    Format.printf "@.";
    verdict "total consistency" (Check.total_consistency r.E.trace);
    verdict "interactive consistency" (Check.interactive_consistency r.E.trace);
    verdict "decision rule" (Check.decision_rule rule ~inputs r.E.trace)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ protocol_arg $ n_arg $ inputs_arg $ seed_arg $ failures_arg $ csv_arg
      $ fifo_notices_arg)

(* ----- scheme ----- *)

let scheme_cmd =
  let doc = "Enumerate a protocol's scheme (all failure-free communication patterns)." in
  let run name n jobs par_mode deadline max_states spill_dir mem_budget resume kill_after
      metrics_json =
    let entry = or_die (find_protocol name) in
    let n = or_die (resolve_n entry n) in
    let spill = spill_of spill_dir mem_budget in
    let base = open_memo resume kill_after in
    let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
    let module S = Patterns_pattern.Scheme.Make (P) in
    let metrics = ref Patterns_search.Metrics.zero in
    let pats, stats =
      catch_failures (fun () ->
          S.scheme ~metrics ~jobs:(resolve_jobs jobs) ?par_mode ?deadline
            ?max_live:max_states ?spill ?base ~n ())
    in
    Format.printf "%a@.%a@." Patterns_pattern.Scheme.pp_stats stats
      Patterns_pattern.Scheme.pp_scheme pats;
    emit_metrics metrics_json !metrics;
    if stats.Patterns_pattern.Scheme.truncated then exit 2
  in
  Cmd.v (Cmd.info "scheme" ~doc)
    Term.(
      const run $ protocol_arg $ n_arg $ jobs_arg $ par_mode_arg $ deadline_arg
      $ max_states_arg $ spill_dir_arg $ mem_budget_arg $ resume_arg $ kill_after_arg
      $ metrics_json_arg)

(* ----- realize ----- *)

let realize_cmd =
  let doc =
    "Synthesize a failure-free execution with a given communication pattern, or report \
     that none exists (or that the search budget ran out first)."
  in
  let pattern_arg =
    Arg.(value & opt int 1
         & info [ "pattern" ] ~docv:"K"
           ~doc:"1-based index into the target scheme's pattern listing (see $(b,scheme)).")
  in
  let target_of_arg =
    Arg.(value & opt (some string) None
         & info [ "target-of" ] ~docv:"PROTOCOL2"
           ~doc:"Take the target pattern from this protocol's scheme instead — a foreign \
                 pattern is how $(b,unrealizable) answers arise.")
  in
  let max_configs_arg =
    Arg.(value & opt int 1_000_000
         & info [ "max-configs" ] ~docv:"K"
           ~doc:"Search budget; when hit, the answer is $(b,truncated), not unrealizable.")
  in
  let run name n inputs target_of k max_configs par_mode spill_dir mem_budget resume
      kill_after metrics_json =
    let entry = or_die (find_protocol name) in
    let n = or_die (resolve_n entry n) in
    let inputs = or_die (parse_inputs n inputs) in
    let spill = spill_of spill_dir mem_budget in
    let base = open_memo resume kill_after in
    let target_entry =
      match target_of with None -> entry | Some name2 -> or_die (find_protocol name2)
    in
    let (module T : Protocol.S) = target_entry.Patterns_protocols.Registry.protocol in
    let module ST = Patterns_pattern.Scheme.Make (T) in
    let pats, _ = ST.patterns_for_inputs ~n ~inputs () in
    let pats = Patterns_pattern.Pattern.Set.elements pats in
    let target =
      match if k < 1 then None else List.nth_opt pats (k - 1) with
      | Some p -> p
      | None ->
        or_die
          (Error
             (Printf.sprintf "%s admits %d pattern(s) from these inputs; --pattern %d is out of range"
                T.name (List.length pats) k))
    in
    let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
    let module S = Patterns_pattern.Scheme.Make (P) in
    Format.printf "target: pattern %d/%d of %s (%d messages, height %d)@." k (List.length pats)
      T.name
      (Patterns_pattern.Pattern.message_count target)
      (Patterns_pattern.Pattern.height target);
    let metrics = ref Patterns_search.Metrics.zero in
    let result =
      catch_failures (fun () ->
          S.realize ~metrics ?par_mode ~max_configs ?spill ?base ~n ~inputs ~target ())
    in
    let code =
      match result with
      | Patterns_pattern.Scheme.Realized actions ->
        Format.printf "realized by %s in %d events:@." P.name (List.length actions);
        List.iter (fun a -> Format.printf "  %a@." Action.pp a) actions;
        0
      | Patterns_pattern.Scheme.Unrealizable ->
        Format.printf "unrealizable: no failure-free execution of %s from these inputs has \
                       the target pattern@."
          P.name;
        1
      | Patterns_pattern.Scheme.Truncated ->
        Format.printf "truncated: the %d-configuration budget ran out before an answer \
                       (raise --max-configs)@."
          max_configs;
        2
    in
    emit_metrics metrics_json !metrics;
    exit code
  in
  Cmd.v (Cmd.info "realize" ~doc)
    Term.(
      const run $ protocol_arg $ n_arg $ inputs_arg $ target_of_arg $ pattern_arg
      $ max_configs_arg $ par_mode_arg $ spill_dir_arg
      $ mem_budget_arg $ resume_arg $ kill_after_arg $ metrics_json_arg)

(* ----- dot ----- *)

let dot_cmd =
  let doc = "Print the communication pattern of a fair run as Graphviz DOT." in
  let run name n inputs =
    let entry = or_die (find_protocol name) in
    let n = or_die (resolve_n entry n) in
    let inputs = or_die (parse_inputs n inputs) in
    let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
    let module E = Engine.Make (P) in
    let r = E.run ~scheduler:E.fifo_scheduler ~n ~inputs () in
    print_string
      (Patterns_stdx.Dot.to_string
         (Patterns_pattern.Render.trace_to_dot ~name:P.name r.E.trace))
  in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ protocol_arg $ n_arg $ inputs_arg)

(* ----- msc ----- *)

let msc_cmd =
  let doc = "Space-time (lane) diagram of a run." in
  let run name n inputs seed failures =
    let entry = or_die (find_protocol name) in
    let n = or_die (resolve_n entry n) in
    let inputs = or_die (parse_inputs n inputs) in
    let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
    let module E = Engine.Make (P) in
    let scheduler =
      match seed with
      | None -> E.fifo_scheduler
      | Some seed -> E.random_scheduler (Patterns_stdx.Prng.create ~seed)
    in
    let r = E.run ~failures ~scheduler ~n ~inputs () in
    print_string (Patterns_pattern.Render.lanes ~pp_msg:P.pp_msg ~n r.E.trace)
  in
  Cmd.v (Cmd.info "msc" ~doc)
    Term.(const run $ protocol_arg $ n_arg $ inputs_arg $ seed_arg $ failures_arg)

(* ----- check ----- *)

let classify_term =
  let max_failures_arg =
    Arg.(value & opt int 1 & info [ "max-failures" ] ~docv:"F" ~doc:"Failures injected per execution.")
  in
  let max_configs_arg =
    Arg.(value & opt int 400_000
         & info [ "max-configs" ] ~docv:"K"
           ~doc:"Exploration budget; when hit, the verdict is marked $(b,truncated) and the \
                 exit code is 2.")
  in
  let run name n max_failures max_configs fifo_notices jobs par_mode deadline max_states
      spill_dir mem_budget resume kill_after db_file metrics_json =
    let entry = or_die (find_protocol name) in
    let n = or_die (resolve_n entry n) in
    let rule = rule_of_registry entry in
    let spill = spill_of spill_dir mem_budget in
    let db = load_db db_file in
    let base = open_memo ?db resume kill_after in
    let metrics = ref Patterns_search.Metrics.zero in
    let v =
      catch_failures (fun () ->
          Classify.classify ~metrics ?db:(db_handle db) ?base ~max_failures ~max_configs
            ~fifo_notices ~jobs:(resolve_jobs jobs) ?par_mode ?deadline ?max_live:max_states
            ?spill ~rule ~n entry.Patterns_protocols.Registry.protocol)
    in
    save_db db;
    Format.printf "%a@." Classify.pp v;
    List.iter (fun d -> Format.printf "  %s@." d) v.Classify.details;
    emit_metrics metrics_json !metrics;
    if v.Classify.truncated then begin
      (if !metrics.Patterns_search.Metrics.deadline_hits > 0 then
         Format.printf "truncated: the wall-clock deadline ran out; the verdict is a lower \
                        bound (raise --deadline)@."
       else if !metrics.Patterns_search.Metrics.live_limit_hits > 0 then
         Format.printf "truncated: the live-state budget ran out; the verdict is a lower \
                        bound (raise --max-states)@."
       else
         Format.printf "truncated: the %d-configuration budget ran out; the verdict is a \
                        lower bound (raise --max-configs)@."
           max_configs);
      exit 2
    end
  in
  Term.(
    const run $ protocol_arg $ n_arg $ max_failures_arg $ max_configs_arg $ fifo_notices_arg
    $ jobs_arg $ par_mode_arg $ deadline_arg $ max_states_arg
    $ spill_dir_arg $ mem_budget_arg $ resume_arg $ kill_after_arg $ db_arg
    $ metrics_json_arg)

let check_cmd =
  let doc = "Classify a protocol against the taxonomy by exhaustive exploration." in
  Cmd.v (Cmd.info "check" ~doc) classify_term

let classify_cmd =
  let doc = "Alias of $(b,check): classify a protocol against the taxonomy." in
  Cmd.v (Cmd.info "classify" ~doc) classify_term

(* ----- reduce ----- *)

let reduce_cmd =
  let doc = "Compare the schemes of two protocols (the reducibility ingredient)." in
  let second_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"PROTOCOL2" ~doc:"Second protocol.")
  in
  let run name1 name2 n =
    let e1 = or_die (find_protocol name1) in
    let e2 = or_die (find_protocol name2) in
    let n = Option.value n ~default:e1.Patterns_protocols.Registry.default_n in
    let rel, left, right =
      Patterns_pattern.Reduce.compare_protocols ~n e1.Patterns_protocols.Registry.protocol
        e2.Patterns_protocols.Registry.protocol
    in
    Format.printf "%s: %d patterns; %s: %d patterns@." name1
      (Patterns_pattern.Pattern.Set.cardinal left) name2
      (Patterns_pattern.Pattern.Set.cardinal right);
    Format.printf "@[<v>%a@]@." Patterns_pattern.Reduce.pp_relationship rel
  in
  Cmd.v (Cmd.info "reduce" ~doc) Term.(const run $ protocol_arg $ second_arg $ n_arg)

(* ----- latency ----- *)

let latency_cmd =
  let doc = "Simulated latency of a fair run under a seeded delay model." in
  let run name n inputs seed =
    let entry = or_die (find_protocol name) in
    let n = or_die (resolve_n entry n) in
    let inputs = or_die (parse_inputs n inputs) in
    let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
    let module E = Engine.Make (P) in
    let r = E.run ~scheduler:E.fifo_scheduler ~n ~inputs () in
    let seed = Option.value seed ~default:42 in
    let model = Patterns_pattern.Latency.Uniform { lo = 5.0; hi = 15.0 } in
    let t = Patterns_pattern.Latency.evaluate ~seed ~model ~n r.E.trace in
    Format.printf "critical path (pattern height): %d hops@."
      (Patterns_pattern.Latency.critical_path_bound r.E.trace);
    Format.printf "completion under U(5,15) delays, unit step cost: %.1f@."
      t.Patterns_pattern.Latency.completion;
    List.iter
      (fun (p, when_) -> Format.printf "  %a decides at %.1f@." Proc_id.pp p when_)
      (Patterns_pattern.Latency.decision_times ~seed ~model ~n r.E.trace)
  in
  Cmd.v (Cmd.info "latency" ~doc) Term.(const run $ protocol_arg $ n_arg $ inputs_arg $ seed_arg)

(* ----- hunt ----- *)

(* Certificate facts are keyed by a fingerprint of the rendered
   certificate, so re-hunting the same violation overwrites rather
   than duplicates.  The stored value wraps the certificate with its
   derived crash schedule, which is what [query --certs-touching]
   filters on. *)
let cert_fact_key cert =
  let doc = Patterns_stdx.Json.to_string (Patterns_adversary.Cert.to_json cert) in
  let fp =
    String.fold_left
      (fun acc c -> Patterns_stdx.Fingerprint.feed acc (Char.code c))
      Patterns_stdx.Fingerprint.seed doc
  in
  Printf.sprintf "%s|%016x" cert.Patterns_adversary.Cert.protocol
    (Patterns_stdx.Fingerprint.to_int fp)

let record_cert db cert =
  (* replay over the database records the execution's edges and its
     verdict fact; the certificate fact makes it queryable *)
  let (_ : Patterns_adversary.Replay.verdict) =
    Patterns_adversary.Replay.replay ~db cert
  in
  let crashes =
    List.map (fun p -> Patterns_stdx.Json.Int p) (Patterns_adversary.Cert.crashes cert)
  in
  Patterns_db.Db.put_fact db ~kind:"cert" ~key:(cert_fact_key cert)
    (Patterns_stdx.Json.Obj
       [
         ("crashes", Patterns_stdx.Json.List crashes);
         ("cert", Patterns_adversary.Cert.to_json cert);
       ])

let hunt_cmd =
  let doc =
    "Search fault schedules (crashes, and with --faults also message omissions) for a \
     property violation."
  in
  let property_arg =
    let prop_conv =
      Arg.enum
        [ ("tc", Audit.TC); ("ic", Audit.IC); ("agreement", Audit.Agreement); ("wt", Audit.WT);
          ("rule", Audit.Rule) ]
    in
    Arg.(value & opt prop_conv Audit.TC & info [ "property" ] ~docv:"PROP"
         ~doc:"Property to attack: tc, ic, agreement, wt or rule.")
  in
  let crashes_arg =
    Arg.(value & opt int 2 & info [ "crashes" ] ~docv:"F" ~doc:"Crashes per run.")
  in
  let faults_arg =
    let space_conv =
      Arg.enum
        [ ("crash", Patterns_adversary.Plan.Crash_only);
          ("omission", Patterns_adversary.Plan.Omission);
          ("mobile", Patterns_adversary.Plan.Mobile) ]
    in
    Arg.(value & opt space_conv Patterns_adversary.Plan.Crash_only
         & info [ "faults" ] ~docv:"SPACE"
           ~doc:"Fault model: $(b,crash) is the fail-stop adversary (the default, \
                 bit-identical to what it always was); $(b,omission) adds receive-drop \
                 and send-omission faults of one static victim per plan; $(b,mobile) \
                 lets every fault pick its kind and victim independently.")
  in
  let fault_budget_arg =
    Arg.(value & opt (some int) None
         & info [ "fault-budget" ] ~docv:"B"
           ~doc:"Total fault budget per run — crashes and omissions together. \
                 Defaults to $(b,--crashes).")
  in
  let runs_arg =
    Arg.(value & opt int 5000 & info [ "runs" ] ~docv:"K" ~doc:"Run budget.")
  in
  let mode_arg =
    let mode_conv =
      Arg.enum
        [ ("random", Patterns_adversary.Hunt.Random);
          ("systematic", Patterns_adversary.Hunt.Systematic) ]
    in
    Arg.(value & opt mode_conv Patterns_adversary.Hunt.Random
         & info [ "mode" ] ~docv:"MODE"
           ~doc:"Adversary: $(b,random) samples seeded fault schedules; $(b,systematic) \
                 sweeps the canonical fault-plan space in order (fault count ascending, \
                 then schedule flavour, fault plan and inputs), so the first hit is a \
                 smallest-fault-count witness.")
  in
  let horizon_arg =
    Arg.(value & opt int 60
         & info [ "horizon" ] ~docv:"STEPS"
           ~doc:"Crash-step range for the systematic plan space (the random adversary \
                 always draws from 60).")
  in
  let cert_arg =
    Arg.(value & opt (some string) None
         & info [ "cert" ] ~docv:"FILE"
           ~doc:"Write a replayable violation certificate (schema \
                 $(b,patterns-violation-cert/1), or $(b,/2) when the script carries \
                 omission directives) as JSON to $(docv); $(b,-) means stdout. \
                 Consume it with $(b,replay) and $(b,shrink).")
  in
  let no_memo_arg =
    Arg.(value & flag
         & info [ "no-memo" ]
           ~doc:"Disable the systematic adversary's shared failure-free prefix \
                 memoization and replay every fault plan from the initial \
                 configuration.  Certificates, messages and exit codes are \
                 bit-identical either way; only the $(b,prefix_hits)/\
                 $(b,prefix_states_saved) counters and the wall clock change.  \
                 Random mode never uses the memo.")
  in
  let run name n property crashes space fault_budget runs seed fifo_notices jobs mode
      horizon cert_out no_memo deadline resume kill_after db_file metrics_json =
    let entry = or_die (find_protocol name) in
    let n = or_die (resolve_n entry n) in
    let rule = rule_of_registry entry in
    let seed = Option.value seed ~default:1984 in
    let budget = Option.value fault_budget ~default:crashes in
    let db = load_db db_file in
    let base = open_memo ?db resume kill_after in
    let metrics = ref Patterns_search.Metrics.zero in
    let result =
      catch_failures (fun () ->
          Patterns_adversary.Hunt.hunt ~metrics ~memo:(not no_memo)
            ~max_failures:budget ~max_runs:runs ~fifo_notices
            ~jobs:(resolve_jobs jobs) ?deadline ?base ~horizon ~mode
            ~space ~property ~rule ~n ~seed entry)
    in
    let code =
      match result with
      | Ok cert ->
        print_endline cert.Patterns_adversary.Cert.message;
        (match cert_out with
        | None -> ()
        | Some dest ->
          let doc =
            Patterns_stdx.Json.to_string (Patterns_adversary.Cert.to_json cert) ^ "\n"
          in
          if dest = "-" then print_string doc
          else begin
            let oc = open_out dest in
            output_string oc doc;
            close_out oc;
            Printf.printf "certificate written to %s\n" dest
          end);
        Option.iter (fun (db, _) -> record_cert db cert) db;
        0
      | Error tried ->
        (* a truncated search, not a proof of absence: even a swept
           systematic space covers three scheduler flavours, not every
           schedule *)
        if !metrics.Patterns_search.Metrics.deadline_hits > 0 then
          Printf.printf "no violation found in %d runs (search truncated: deadline \
                         exceeded; raise --deadline)\n"
            tried
        else if
          mode = Patterns_adversary.Hunt.Systematic
          && tried = Patterns_adversary.Plan.count ~space ~horizon ~n ~max_faults:budget ()
        then
          Printf.printf "no violation found in %d runs (whole systematic plan space of %d \
                         plans swept; it covers three scheduler flavours, not every \
                         schedule)\n"
            tried tried
        else
          Printf.printf "no violation found in %d runs (search truncated: run budget exhausted; \
                         raise --runs)\n"
            tried;
        2
    in
    save_db db;
    emit_metrics metrics_json !metrics;
    exit code
  in
  Cmd.v (Cmd.info "hunt" ~doc)
    Term.(
      const run $ protocol_arg $ n_arg $ property_arg $ crashes_arg $ faults_arg
      $ fault_budget_arg $ runs_arg $ seed_arg
      $ fifo_notices_arg $ jobs_arg $ mode_arg $ horizon_arg $ cert_arg $ no_memo_arg
      $ deadline_arg $ resume_arg $ kill_after_arg $ db_arg
      $ metrics_json_arg)

(* ----- replay / shrink ----- *)

let read_cert path =
  let contents =
    try
      let ic = open_in path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      Ok s
    with Sys_error msg -> Error msg
  in
  Result.bind contents (fun s ->
      Result.bind (Patterns_stdx.Json.of_string s) Patterns_adversary.Cert.of_json)

let cert_pos_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"CERT" ~doc:"Violation certificate (JSON, from $(b,hunt --cert)).")

let replay_cmd =
  let doc =
    "Re-execute a violation certificate and re-check its property. Exit 0: reproduced; \
     1: not reproduced; 2: the certificate does not apply here."
  in
  let run path db_file metrics_json =
    let cert = or_die (read_cert path) in
    let db = load_db db_file in
    Format.printf "%a@." Patterns_adversary.Cert.pp cert;
    let verdict, metrics =
      Patterns_adversary.Replay.replay_metrics ?db:(db_handle db) cert
    in
    Format.printf "%a@." Patterns_adversary.Replay.pp verdict;
    save_db db;
    emit_metrics metrics_json metrics;
    exit (Patterns_adversary.Replay.exit_code verdict)
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ cert_pos_arg $ db_arg $ metrics_json_arg)

let shrink_cmd =
  let doc =
    "Minimize a violation certificate (ddmin over the schedule, instance and input \
     shrinking); every step is re-validated by replay, so the result still reproduces."
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the shrunk certificate to $(docv) (default: stdout).")
  in
  let run path out db_file =
    let cert = or_die (read_cert path) in
    let db = load_db db_file in
    let report = or_die (Patterns_adversary.Shrink.shrink ?db:(db_handle db) cert) in
    save_db db;
    Format.printf "%a@." Patterns_adversary.Shrink.pp_report report;
    let doc =
      Patterns_stdx.Json.to_string
        (Patterns_adversary.Cert.to_json report.Patterns_adversary.Shrink.cert)
      ^ "\n"
    in
    (match out with
    | None -> print_string doc
    | Some dest ->
      let oc = open_out dest in
      output_string oc doc;
      close_out oc;
      Printf.printf "shrunk certificate written to %s\n" dest)
  in
  Cmd.v (Cmd.info "shrink" ~doc) Term.(const run $ cert_pos_arg $ out_arg $ db_arg)

(* ----- query ----- *)

let query_cmd =
  let doc =
    "Query a recorded execution database (JSON output). Exit 0: at least one result; \
     1: no results; 2: error."
  in
  let db_pos_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DB"
           ~doc:"Execution database file (written by $(b,--db) on hunt, replay, shrink, \
                 check and classify).  A missing file is an empty database.")
  in
  let src_arg =
    Arg.(value & opt (some int) None
         & info [ "src" ] ~docv:"FP" ~doc:"Bind the source config fingerprint of the edge pattern.")
  in
  let event_arg =
    Arg.(value & opt (some string) None
         & info [ "event" ] ~docv:"DESC" ~doc:"Bind the event descriptor of the edge pattern.")
  in
  let dst_arg =
    Arg.(value & opt (some int) None
         & info [ "dst" ] ~docv:"FP"
           ~doc:"Bind the destination config fingerprint of the edge pattern.")
  in
  let path_arg =
    Arg.(value & opt (some (pair ~sep:':' int int)) None
         & info [ "path" ] ~docv:"SRC:DST"
           ~doc:"Shortest recorded path between two config fingerprints (canonical \
                 breadth-first witness).")
  in
  let reachable_arg =
    Arg.(value & opt (some int) None
         & info [ "reachable" ] ~docv:"FP"
           ~doc:"Every config fingerprint reachable from $(docv) over recorded edges.")
  in
  let certs_arg =
    Arg.(value & opt (some int) None
         & info [ "certs-touching" ] ~docv:"PROC"
           ~doc:"Stored violation certificates whose crash schedule touches processor \
                 $(docv).")
  in
  let limit_arg =
    Arg.(value & opt (some int) None
         & info [ "limit" ] ~docv:"N"
           ~doc:"Page the edge, reachable and certs-touching result sets: return at most \
                 $(docv) results.  $(b,count) still reports the total number of matches \
                 and an extra $(b,truncated) field says whether the list was cut; the \
                 exit code keeps following the total (0: at least one match; 1: none; \
                 2: error).")
  in
  let run db_path src event dst path reachable certs limit =
    let die msg =
      prerr_endline ("error: " ^ msg);
      exit 2
    in
    let db =
      match Patterns_db.Db.load db_path with Ok db -> db | Error msg -> die msg
    in
    let module Q = Patterns_db.Query in
    let module J = Patterns_stdx.Json in
    let modes =
      List.length (List.filter Fun.id
           [ path <> None; reachable <> None; certs <> None ])
    in
    if modes > 1 then die "at most one of --path, --reachable, --certs-touching";
    (match limit with
    | Some k when k < 0 -> die "--limit must be nonnegative"
    | _ -> ());
    (* paging: the list is cut to the first N results (the sorted,
       insertion-order-independent query order), the count stays the
       total, and a [truncated] field — present only when --limit is
       given, so unpaged output is unchanged — says whether anything
       was dropped *)
    let page l =
      match limit with
      | None -> (l, [])
      | Some k ->
        let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> [] in
        let cut = List.length l > k in
        ((if cut then take k l else l), [ ("truncated", J.Bool cut) ])
    in
    let doc, count =
      match (path, reachable, certs) with
      | Some (s, d), _, _ -> (
        match Q.path db ~src:s ~dst:d with
        | None -> (J.Obj [ ("query", J.String "path"); ("found", J.Bool false) ], 0)
        | Some edges ->
          ( J.Obj
              [
                ("query", J.String "path");
                ("found", J.Bool true);
                ("length", J.Int (List.length edges));
                ("path", Q.edges_to_json edges);
              ],
            1 ))
      | _, Some fp, _ ->
        let cs = Q.reachable db fp in
        let shown, trunc = page cs in
        ( J.Obj
            ([ ("query", J.String "reachable"); ("count", J.Int (List.length cs)) ]
            @ trunc
            @ [ ("configs", J.List (List.map (fun c -> J.Int c) shown)) ]),
          List.length cs )
      | _, _, Some p ->
        let cs = Q.certs_touching db p in
        let shown, trunc = page cs in
        ( J.Obj
            ([ ("query", J.String "certs-touching"); ("count", J.Int (List.length cs)) ]
            @ trunc
            @ [
                ( "certs",
                  J.List
                    (List.map
                       (fun (k, v) -> J.Obj [ ("key", J.String k); ("fact", v) ])
                       shown) );
              ]),
          List.length cs )
      | None, None, None ->
        let es = Q.edges db ?src ?event ?dst () in
        let shown, trunc = page es in
        ( J.Obj
            ([ ("query", J.String "edges"); ("count", J.Int (List.length es)) ]
            @ trunc
            @ [ ("edges", Q.edges_to_json shown) ]),
          List.length es )
    in
    print_endline (J.to_string doc);
    exit (if count > 0 then 0 else 1)
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const run $ db_pos_arg $ src_arg $ event_arg $ dst_arg $ path_arg $ reachable_arg
      $ certs_arg $ limit_arg)

(* ----- lattice / theorems ----- *)

let lattice_cmd =
  let doc = "Verify and print the paper's six-problem lattice." in
  let run () =
    let evidences = Theorems.all () in
    Format.printf "%a@." Lattice.pp_verified (Lattice.verify evidences)
  in
  Cmd.v (Cmd.info "lattice" ~doc) Term.(const run $ const ())

let theorems_cmd =
  let doc = "Replay the executable witnesses for the paper's theorems." in
  let run () =
    List.iter (fun e -> Format.printf "%a@.@." Theorems.pp_evidence e) (Theorems.all ())
  in
  Cmd.v (Cmd.info "theorems" ~doc) Term.(const run $ const ())

let () =
  let doc = "Patterns of Communication in Consensus Protocols (Dwork & Skeen, PODC 1984)" in
  let info = Cmd.info "patterns-cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; scheme_cmd; realize_cmd; dot_cmd; msc_cmd; check_cmd;
            classify_cmd; reduce_cmd; latency_cmd; hunt_cmd; replay_cmd; shrink_cmd;
            query_cmd; lattice_cmd; theorems_cmd ]))
