open Patterns_sim
open Patterns_stdx

type mode = Random | Systematic

let mode_string = function Random -> "random" | Systematic -> "systematic"

(* A hunt sweeps its run-index space in fixed chunks, the roots of its
   memo.  Both modes are per-index deterministic — Random seeds a fresh
   generator from the run index, Systematic decodes the plan from it —
   so a chunk's answer (its winner, or how many runs it cleared) is a
   function of the chunk and the hunt's parameters. *)
let chunk_size = 4_096

let hunt ?metrics ?(max_failures = 2) ?(max_runs = 5_000) ?(fifo_notices = false)
    ?(jobs = 1) ?deadline ?base ?(horizon = 60) ?(mode = Random) ?(memo = true)
    ?(space = Plan.Crash_only) ~property ~rule ~n ~seed
    (entry : Patterns_protocols.Registry.entry) =
  let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
  let module E = Engine.Make (P) in
  let verdict inputs (r : E.run_result) =
    Patterns_core.Audit.check property ~rule ~inputs ~n ~quiescent:r.E.quiescent
      ~statuses:(E.statuses r.E.final) r.E.trace
  in
  let cert inputs message (r : E.run_result) =
    {
      Cert.protocol = entry.Patterns_protocols.Registry.name;
      n;
      inputs;
      property;
      rule;
      script = Script.of_trace r.E.trace;
      message;
    }
  in
  let bits = Listx.bits in
  let crash_plan failures =
    String.concat ", " (List.map (fun (k, p) -> Printf.sprintf "p%d@step%d" p k) failures)
  in
  let fault_plan faults =
    String.concat ", " (List.map (fun f -> Format.asprintf "%a" Fault.pp f) faults)
  in
  let mobile_faults = function
    | [] | [ _ ] -> false
    | (f : Fault.t) :: rest ->
      List.exists (fun (g : Fault.t) -> not (Proc_id.equal g.Fault.victim f.Fault.victim)) rest
  in
  (* Fault-injection tallies (the metrics /9 section), accumulated
     outside the kernel exactly like the systematic mode's prefix
     tallies and folded by the same [flush] mechanism.  All three stay
     0 under the crash-only space, so fail-stop metrics are unchanged
     field for field. *)
  let drops_tally = Atomic.make 0 in
  let om_plans_tally = Atomic.make 0 in
  let mobile_tally = Atomic.make 0 in
  let fault_flush m =
    Patterns_search.Metrics.with_faults ~drops_injected:(Atomic.get drops_tally)
      ~omission_plans:(Atomic.get om_plans_tally) ~mobile_faults:(Atomic.get mobile_tally) m
  in
  let tally faults (r : E.run_result) =
    let d = Trace.drop_count r.E.trace in
    if d > 0 then ignore (Atomic.fetch_and_add drops_tally d : int);
    match faults with
    | [] -> ()
    | fs ->
      Atomic.incr om_plans_tally;
      if mobile_faults fs then
        ignore (Atomic.fetch_and_add mobile_tally (List.length fs) : int)
  in
  (* One drive path for both modes: the index space is swept chunk by
     chunk, each chunk by the kernel's goal search, and the first
     chunk with a winner ends the hunt.  The chunks try the same
     indices in the same order as one search over the whole space and
     return the same winner and tried count; the metrics count one
     root per chunk.  With a memo ([base]) a recorded chunk is not run
     again and a chunk run is recorded unless the deadline cut it
     short.  [flush] folds the counters the runs accumulate outside the
     kernel into the caller's sink once at the end, after every
     chunk's workers have joined. *)
  let drive ~flush one ~max_index =
    let chunks =
      Option.map
        (fun base ->
          {
            Patterns_search.Search.base;
            kind = "hunt_chunk";
            params =
              Printf.sprintf "%s|prop=%s|rule=%s|n=%d|seed=%d|mode=%s|faults=%s|mf=%d|h=%d|fifo=%b"
                entry.Patterns_protocols.Registry.name (Cert.property_string property)
                (Format.asprintf "%a" Patterns_protocols.Decision_rule.pp rule)
                n seed (mode_string mode) (Plan.space_string space) max_failures horizon
                fifo_notices;
            key = (fun (lo, hi) -> Printf.sprintf "runs=%d-%d" lo hi);
            budget = chunk_size;
            max_live = None;
          })
        base
    in
    let t0 = Unix.gettimeofday () in
    let remaining () = Option.map (fun d -> d -. (Unix.gettimeofday () -. t0)) deadline in
    let rec go lo tried =
      if lo > max_index then Error tried
      else
        let hi = min max_index (lo + chunk_size - 1) in
        let chunk, m =
          match Option.bind chunks (fun m -> Patterns_search.Search.memo_find m (lo, hi)) with
          | Some reused -> reused
          | None ->
            let m = ref Patterns_search.Metrics.zero in
            let r =
              Patterns_search.Search.find_first ~metrics:m ~jobs ?deadline:(remaining ())
                ~start:lo ~max_index:hi ~f:one ()
            in
            Option.iter (fun c -> Patterns_search.Search.memo_record c (lo, hi) (r, !m)) chunks;
            (r, !m)
        in
        Patterns_search.Search.merge_into metrics m;
        match chunk with
        | Ok cert -> Ok cert
        | Error t when t < hi - lo + 1 ->
          (* the wall clock fired mid-chunk: nothing left to try now *)
          Error (tried + t)
        | Error t -> go (hi + 1) (tried + t)
    in
    let result = go 1 0 in
    Patterns_search.Search.merge_into metrics (flush Patterns_search.Metrics.zero);
    result
  in
  match mode with
  | Random ->
    (* The sampling adversary: each run seeds a fresh generator from
       (seed, run index) and draws inputs, crash plan and schedule
       flavour from it, so runs are independent of execution order and
       the winner is the smallest violating run index for every
       [jobs]; the schedule is read back off the winning trace into a
       replayable certificate. *)
    let one run_index =
      let prng = Prng.create ~seed:(seed + (run_index * 1_000_003)) in
      let inputs = List.init n (fun _ -> Prng.bool prng) in
      let n_failures = Prng.int prng ~bound:(max_failures + 1) in
      let failures =
        List.init n_failures (fun _ -> (Prng.int prng ~bound:60, Prng.int prng ~bound:n))
      in
      (* Omission draws come after the historical crash draws, so the
         crash-only stream is untouched draw for draw.  The remaining
         fault budget goes to omission faults; the [Omission] space
         additionally pins them all to one drawn victim. *)
      let faults =
        match space with
        | Plan.Crash_only -> []
        | Plan.Omission | Plan.Mobile ->
          let budget = max_failures - n_failures in
          let n_om = if budget <= 0 then 0 else Prng.int prng ~bound:(budget + 1) in
          let static_victim = Prng.int prng ~bound:n in
          List.init n_om (fun _ ->
              let step = Prng.int prng ~bound:60 in
              let kind = if Prng.bool prng then Fault.Drop else Fault.Send_omit in
              let victim =
                match space with
                | Plan.Mobile -> Prng.int prng ~bound:n
                | Plan.Omission | Plan.Crash_only -> static_victim
              in
              { Fault.step; victim; kind })
      in
      let scheduler =
        match Prng.int prng ~bound:3 with
        | 0 -> E.random_scheduler (Prng.split prng)
        | 1 -> E.notice_first_scheduler (Prng.split prng)
        | _ -> E.lifo_scheduler
      in
      let r = E.run ~failures ~faults ~fifo_notices ~scheduler ~n ~inputs () in
      tally faults r;
      match verdict inputs r with
      | Ok () -> None
      | Error msg ->
        let message =
          match faults with
          | [] ->
            Format.asprintf
              "@[<v>violation after %d run(s) (seed %d)@,inputs: %s@,crash plan: %s@,%s@,@,%s@]"
              run_index seed (bits inputs) (crash_plan failures) msg
              (Patterns_pattern.Render.lanes ~pp_msg:P.pp_msg ~n r.E.trace)
          | fs ->
            Format.asprintf
              "@[<v>violation after %d run(s) (seed %d)@,inputs: %s@,crash plan: %s@,\
               fault plan: %s@,%s@,@,%s@]"
              run_index seed (bits inputs) (crash_plan failures) (fault_plan fs) msg
              (Patterns_pattern.Render.lanes ~pp_msg:P.pp_msg ~n r.E.trace)
        in
        Some (cert inputs message r)
    in
    drive ~flush:fault_flush one ~max_index:max_runs
  | Systematic ->
    let total = Plan.count ~space ~horizon ~n ~max_faults:max_failures () in
    let max_index = min max_runs total in
    (* Shared-prefix memoization: a plan's run equals the failure-free
       run of its (flavour, inputs) up to the plan's earliest crash
       step, and the plan space has only [3 * 2^n] such failure-free
       runs against millions of plans — so each is computed once (with
       per-step snapshots) and every plan resumes from its earliest
       crash boundary instead of replaying from the initial
       configuration.  The schedulers are pure functions of
       (step, config, actions), which is exactly the property
       {!E.resume}'s bit-identity rests on.  The table is tiny, so
       computing under the lock is cheaper than racing duplicate
       failure-free runs.  Per-index hits and saved steps are
       deterministic, so on a full sweep the tallies are
       jobs-invariant; a goal-found hunt overshoots the winner by a
       jobs-dependent set of speculative indices, the same caveat as
       [find_first]'s expanded count. *)
    let memo_tbl : (Plan.flavour * bool list, E.prefix) Hashtbl.t = Hashtbl.create 24 in
    let memo_lock = Mutex.create () in
    let prefix_of flavour scheduler inputs =
      Mutex.lock memo_lock;
      let p =
        match Hashtbl.find_opt memo_tbl (flavour, inputs) with
        | Some p -> p
        | None ->
          let p = E.run_prefix ~fifo_notices ~scheduler ~n ~inputs () in
          Hashtbl.add memo_tbl (flavour, inputs) p;
          p
      in
      Mutex.unlock memo_lock;
      p
    in
    let hits = Atomic.make 0 and saved_steps = Atomic.make 0 in
    let flush m =
      fault_flush
        (Patterns_search.Metrics.with_incremental ~prefix_hits:(Atomic.get hits)
           ~prefix_states_saved:(Atomic.get saved_steps) m)
    in
    let one run_index =
      let plan =
        match Plan.decode ~space ~horizon ~n ~max_faults:max_failures (run_index - 1) with
        | Ok plan -> plan
        | Error e ->
          (* [Budget_exceeded] replaces the old silent saturation:
             indices past the exactly representable boundary are
             refused loudly rather than decoded into a wrong plan *)
          failwith
            (Printf.sprintf "hunt: systematic plan %d: %s" run_index (Plan.error_string e))
      in
      let scheduler =
        match plan.Plan.flavour with
        | Plan.Fifo -> E.fifo_scheduler
        | Plan.Lifo -> E.lifo_scheduler
        | Plan.Round_robin ->
          fun ~step _config actions ->
            (match actions with
            | [] -> None
            | _ -> List.nth_opt actions (step mod List.length actions))
      in
      let failures = Plan.crashes plan in
      let omissions = Plan.omissions plan in
      let r =
        if memo then begin
          let prefix = prefix_of plan.Plan.flavour scheduler plan.Plan.inputs in
          let r, saved =
            E.resume ~fifo_notices ~scheduler ~failures ~faults:omissions ~prefix ()
          in
          if saved > 0 then begin
            Atomic.incr hits;
            ignore (Atomic.fetch_and_add saved_steps saved : int)
          end;
          r
        end
        else
          E.run ~failures ~faults:omissions ~fifo_notices ~scheduler ~n
            ~inputs:plan.Plan.inputs ()
      in
      tally omissions r;
      match verdict plan.Plan.inputs r with
      | Ok () -> None
      | Error msg ->
        let message =
          match omissions with
          | [] ->
            Format.asprintf
              "@[<v>violation at plan %d of %d (systematic, horizon %d)@,\
               inputs: %s@,crash plan: %s@,schedule: %s@,%s@,@,%s@]"
              run_index total horizon (bits plan.Plan.inputs) (crash_plan failures)
              (Plan.flavour_string plan.Plan.flavour)
              msg
              (Patterns_pattern.Render.lanes ~pp_msg:P.pp_msg ~n r.E.trace)
          | _ ->
            Format.asprintf
              "@[<v>violation at plan %d of %d (systematic, horizon %d)@,\
               inputs: %s@,fault plan: %s@,schedule: %s@,%s@,@,%s@]"
              run_index total horizon (bits plan.Plan.inputs)
              (fault_plan plan.Plan.faults)
              (Plan.flavour_string plan.Plan.flavour)
              msg
              (Patterns_pattern.Render.lanes ~pp_msg:P.pp_msg ~n r.E.trace)
        in
        Some (cert plan.Plan.inputs message r)
    in
    drive ~flush one ~max_index
