open Patterns_stdx

type reason =
  | Budget_exhausted of { budget : int; consumed : int }
  | Deadline_exceeded of { deadline : float; elapsed : float }
  | Live_limit_exceeded of { limit : int; live : int }

let reason_string = function
  | Budget_exhausted { budget; consumed } ->
    Printf.sprintf "budget exhausted after %d of %d states" consumed budget
  | Deadline_exceeded { deadline; elapsed } ->
    Printf.sprintf "deadline exceeded after %.3f of %.3f seconds" elapsed deadline
  | Live_limit_exceeded { limit; live } ->
    Printf.sprintf "live-state limit exceeded: %d live states against a limit of %d" live limit

type 'a outcome = Exhausted | Goal_found of 'a | Truncated of reason

let outcome_kind = function
  | Exhausted -> Metrics.Exhausted
  | Goal_found _ -> Metrics.Goal_found
  | Truncated _ -> Metrics.Truncated

let truncated = function Truncated _ -> true | _ -> false

let merge_into sink m = Option.iter (fun r -> r := Metrics.merge !r m) sink

let now () = Unix.gettimeofday ()

(* Which driver a client sweep runs on.  [Layers] is the serial
   breadth-first search ({!Make.run}): shortest goal witnesses and the
   same truncation points for every [--jobs], because it runs on one
   domain.  [Async] is the work-stealing driver over the lock-striped
   fingerprint table — same outcomes, pattern sets and deterministic
   counters on searches it runs to exhaustion, but truncation points
   and goal witnesses are schedule-dependent. *)
type par_mode = Layers | Async

let par_mode_string = function Layers -> "layers2" | Async -> "async"

let with_pool ~jobs par_mode f =
  Domain_pool.with_pool ~jobs:(match par_mode with Layers -> 1 | Async -> jobs) f

(* Disk-backed visited storage: when set, both drivers swap the
   in-memory table for a {!Patterns_stdx.Spill_store} rooted at [dir]
   and bounded to [mem_budget] resident bindings.  Probe counting,
   cumulative binding counts and the insertion discipline are
   identical to the table's, and eviction happens only at
   driver-chosen points, so outcomes, pattern sets and the search
   counters are identical with or without spilling.  [shard_bits]
   follows the store in use: both drivers report the table's starting
   exponent in memory and the spill store's 4 with spilling.
   The one semantic shift: the [max_live] guard counts {e resident}
   bindings plus frontier, not cumulative bindings — spilling exists
   precisely to take evicted states out of the live-memory budget. *)
type spill = { dir : string; mem_budget : int }

module type Problem = sig
  type state

  val compare : state -> state -> int
  val fingerprint : state -> Fingerprint.t
end

module Make (P : Problem) = struct
  (* Observation interface shared by both drivers: [expand] folds one
     state's observations into an accumulator from [empty] and returns
     its successors.  The serial driver threads one accumulator through
     the whole search in visitation order; the async driver keeps one
     per worker and folds them with [merge] in worker-index order. *)
  type 'obs par_expand = {
    empty : unit -> 'obs;
    merge : 'obs -> 'obs -> 'obs;
    expand : 'obs -> P.state -> P.state list;
  }

  (* Optional execution-database sink: every expansion emits its
     (src, successor-ordinal, dst) triples, before visited/prune
     filtering — the database records the raw expansion relation.
     Ordinals are assigned in fingerprint order of the successors,
     not list position: equal states reached along different paths
     can carry their internal collections in different orders, and
     which representative wins the visited race is a property of the
     driver and the schedule.  Sorting by the canonical fingerprint
     makes the emitted triples a function of the state alone, so the
     recorded edge set is identical across drivers and worker counts.
     The callback is invoked from worker domains by the async driver;
     thread safety is the callee's obligation (the execution database
     locks internally). *)
  let emit_edges edges src succs =
    match edges with
    | None -> ()
    | Some f ->
      List.stable_sort
        (fun a b -> Fingerprint.compare (P.fingerprint a) (P.fingerprint b))
        succs
      |> List.iteri (fun i dst -> f ~src ~event:i ~dst)

  (* ----- the visited store, the guards and the metrics step ----- *)

  (* The one visited interface both drivers use, over either store:
     the [Visited_table] in memory (a one-worker table, without locks,
     for the serial driver and for the async one at one worker; a
     lock-striped one for several workers) or, with [spill], the
     [Spill_store].  [add] is the only probe: it claims a state and
     answers whether it was new.  [live] feeds the [max_live] guard:
     every binding in memory, the resident ones when spilling.  [evict]
     is the spill store's eviction point, which each driver calls where
     it keeps the counts deterministic (serial: between layers; async:
     once per processed state, deterministic at --jobs 1 and
     schedule-dependent above it — the /7 counters carry the same
     jobs>1 caveat as [intern_bindings]).  [bits] is what both drivers
     report as [shard_bits]: the table's starting exponent, or the
     spill store's shard count.  [finish] adds the /7 spill section and
     deletes the run files. *)
  type visited = {
    add : P.state -> bool;
    live : unit -> int;
    bindings : unit -> int;
    probes : unit -> int;
    collision_fallbacks : unit -> int;
    lock_contention : unit -> int;
    occupancy : unit -> float;
    bits : int;
    evict : unit -> unit;
    finish : Metrics.t -> Metrics.t;
  }

  let visited ~workers spill =
    let equal a b = P.compare a b = 0 in
    match spill with
    | None ->
      let t = Visited_table.create ~workers ~equal ~fingerprint:P.fingerprint () in
      {
        add = Visited_table.add_if_absent t;
        live = (fun () -> Visited_table.bindings t);
        bindings = (fun () -> Visited_table.bindings t);
        probes = (fun () -> Visited_table.probes t);
        collision_fallbacks = (fun () -> Visited_table.collision_fallbacks t);
        lock_contention = (fun () -> Visited_table.lock_contention t);
        occupancy = (fun () -> Visited_table.occupancy t);
        bits = Visited_table.initial_bits t;
        evict = ignore;
        finish = Fun.id;
      }
    | Some { dir; mem_budget } ->
      let t = Spill_store.create ~equal ~fingerprint:P.fingerprint ~dir ~mem_budget () in
      {
        add = Spill_store.add_if_absent t;
        live = (fun () -> Spill_store.resident t);
        bindings = (fun () -> Spill_store.bindings t);
        probes = (fun () -> Spill_store.probes t);
        collision_fallbacks = (fun () -> Spill_store.collision_fallbacks t);
        lock_contention = (fun () -> Spill_store.lock_contention t);
        occupancy = (fun () -> 0.);
        bits = Spill_store.shard_bits;
        evict = (fun () -> Spill_store.maybe_evict t);
        finish =
          (fun m ->
            let m =
              {
                m with
                Metrics.spill_runs = Spill_store.spill_runs t;
                spill_evictions = Spill_store.spill_evictions t;
                spill_probes = Spill_store.spill_probes t;
                spill_read_bytes = Spill_store.spill_read_bytes t;
                spill_write_bytes = Spill_store.spill_write_bytes t;
                spill_fd_reopens = Spill_store.spill_fd_reopens t;
              }
            in
            Spill_store.dispose t;
            m);
      }

  (* The deterministic tallies: one record for the serial driver, one
     per worker for the async driver, summed at quiescence. *)
  type tally = { mutable expanded : int; mutable dedup : int; mutable pruned : int }

  let tally () = { expanded = 0; dedup = 0; pruned = 0 }

  (* The successor rule both drivers follow: [prune] first — it must be
     pure, since it also sees states already visited — then a claim
     into the store that doubles as the membership test.  [true] means
     [c] entered the store now, which happens once per state over the
     whole search, and the caller queues it.  Every exhausted search
     therefore probes [states_expanded + dedup_hits] times: the root's
     claim plus one per successor not pruned. *)
  let admit visited prune tally c =
    match prune with
    | Some p when p c ->
      tally.pruned <- tally.pruned + 1;
      false
    | _ ->
      let fresh = visited.add c in
      if not fresh then tally.dedup <- tally.dedup + 1;
      fresh

  (* The graceful-degradation guards, shared by both drivers and
     checked in a fixed order: the live-state limit, then the
     wall-clock deadline.  [None] when neither is set, so an unguarded
     search pays one branch per check.  The live count is the store's
     plus [pending], the frontier a driver holds as a list: the serial
     driver's whole next layer (already claimed, so counted twice),
     nothing for the async driver, whose deques are not counted. *)
  let guard ?max_live ?deadline visited ~t0 =
    if max_live = None && deadline = None then None
    else
      Some
        (fun pending ->
          let over_live =
            Option.bind max_live (fun limit ->
                let live = visited.live () + pending in
                if live > limit then Some (Live_limit_exceeded { limit; live }) else None)
          in
          if Option.is_some over_live then over_live
          else
            Option.bind deadline (fun d ->
                let elapsed = now () -. t0 in
                if elapsed >= d then Some (Deadline_exceeded { deadline = d; elapsed })
                else None))

  (* The metrics step both drivers end with: their tallies, the
     store's counters and which guard (if any) stopped the search,
     straight into one single-root record.  The serial driver adds its
     layer count, the async one its work-stealing section; a field a
     driver does not pass stays 0, [shard_occupancy_max] always. *)
  let metrics visited outcome ~t0 tally ~peak ~expand_seconds ?(layers = 0) ?(steals = 0)
      ?(steal_failures = 0) ?(idle_seconds = 0.) () =
    let shard =
      {
        Metrics.root = 0;
        states_expanded = tally.expanded;
        dedup_hits = tally.dedup;
        frontier_peak = peak;
        pruned = tally.pruned;
        fingerprint_probes = visited.probes ();
        collision_fallbacks = visited.collision_fallbacks ();
        intern_bindings = 0;
        seconds = now () -. t0;
      }
    in
    let deadline_hits, live_limit_hits =
      match outcome with
      | Truncated (Deadline_exceeded _) -> (1, 0)
      | Truncated (Live_limit_exceeded _) -> (0, 1)
      | _ -> (0, 0)
    in
    visited.finish
      {
        (Metrics.of_shard (outcome_kind outcome) shard) with
        layers;
        shard_bits = visited.bits;
        shard_occupancy_total = visited.bindings ();
        deadline_hits;
        live_limit_hits;
        lock_contention = visited.lock_contention ();
        expand_seconds;
        steals;
        steal_failures;
        table_occupancy = visited.occupancy ();
        idle_seconds;
      }

  (* ----- the serial driver: breadth-first, one layer at a time ----- *)

  let run ?(budget = max_int) ?deadline ?max_live ?spill ?is_goal ?prune ?edges
      ~expand:obs_iface ~root () =
    let visited = visited ~workers:1 spill in
    let obs = obs_iface.empty () in
    let tally = tally () in
    let peak = ref 0 and layers = ref 0 and expand_seconds = ref 0. in
    let goal = match is_goal with Some g -> g | None -> fun _ -> false in
    let t0 = now () in
    (* checked once per layer before the layer is charged: overshoot is
       bounded by one layer, and the live-state check sees the store
       plus the whole pending frontier *)
    let guard = guard ?max_live ?deadline visited ~t0 in
    (* budget and goal are charged in frontier order before any
       expansion, so a mid-layer stop is deterministic *)
    let rec charge = function
      | [] -> None
      | s :: tl ->
        if tally.expanded >= budget then
          Some (Truncated (Budget_exhausted { budget; consumed = tally.expanded }))
        else begin
          tally.expanded <- tally.expanded + 1;
          if goal s then Some (Goal_found s) else charge tl
        end
    in
    let rec loop frontier =
      let len = List.length frontier in
      if len = 0 then Exhausted
      else
        match Option.bind guard (fun g -> g len) with
        | Some reason -> Truncated reason
        | None -> (
          incr layers;
          if len > !peak then peak := len;
          match charge frontier with
          | Some outcome -> outcome
          | None ->
            (* expand in frontier order, claiming each successor as it
               is generated; the next layer is the generation order *)
            let ta = now () in
            let next = ref [] in
            List.iter
              (fun s ->
                let succs = obs_iface.expand obs s in
                emit_edges edges s succs;
                List.iter (fun c -> if admit visited prune tally c then next := c :: !next) succs)
              frontier;
            expand_seconds := !expand_seconds +. (now () -. ta);
            visited.evict ();
            loop (List.rev !next))
    in
    ignore (visited.add root : bool);
    let outcome = loop [ root ] in
    ( outcome,
      obs,
      metrics visited outcome ~t0 tally ~peak:!peak ~expand_seconds:!expand_seconds
        ~layers:!layers () )

  (* ----- asynchronous work-stealing driver ----- *)

  (* No layers, no barrier: each worker owns a Chase–Lev deque and
     works depth-first on its own bottom end, hunting round-robin over
     the other deques when its own runs dry.  A successor is claimed
     into the visited store at generation time (add doubles as the
     membership test), so a state enters exactly one deque and is
     processed exactly once.

     Quiescence: [in_flight] counts the root plus every claimed,
     not-yet-retired state.  A worker increments it for each fresh
     child before retiring the parent, so it can only reach 0 when no
     state is queued or being expanded anywhere — the termination
     barrier is one atomic read.

     Determinism contract (pinned by test_parallel): successors pass
     the serial driver's rule ([admit]), so on a search that runs to
     exhaustion the claimed set equals the serial visited set and
     every deterministic counter agrees with the serial driver's.
     Budget exhaustion is not a halt:
     workers keep draining their deques, dropping every state whose
     budget ticket is out of range, so exactly [budget] tickets are
     consumed and [states_expanded] is deterministic even for a
     truncated search (the *set* expanded is schedule-dependent). *)
  let run_par_async ?pool ?(budget = max_int) ?deadline ?max_live ?spill ?is_goal ?prune
      ?edges ~expand:obs_iface ~root () =
    let workers = match pool with Some p -> Domain_pool.jobs p | None -> 1 in
    let visited = visited ~workers spill in
    let goal = match is_goal with Some g -> g | None -> fun _ -> false in
    let deques = Array.init workers (fun _ -> Ws_deque.create ()) in
    let in_flight = Atomic.make 1 in
    let tickets = Atomic.make 0 in
    let halt = Atomic.make (None : P.state outcome option) in
    let budget_hit = Atomic.make false in
    let request_halt o = ignore (Atomic.compare_and_set halt None (Some o) : bool) in
    (* per-worker tallies, merged in worker-index order at quiescence *)
    let tallies = Array.init workers (fun _ -> tally ()) in
    let steals = Array.make workers 0 and steal_failures = Array.make workers 0 in
    let idle = Array.make workers 0. and busy = Array.make workers 0. in
    let obss = Array.init workers (fun _ -> obs_iface.empty ()) in
    (* queued = claimed states sitting in some deque (the async
       frontier); its high-water mark is the driver's frontier_peak.
       Deterministic at one worker (pushes and pops interleave in
       program order); a schedule-dependent lower bound on the true
       concurrent peak above that, same caveat as the /5 section. *)
    let queued = Atomic.make 0 in
    let qpeak = Atomic.make 0 in
    let note_push () =
      let q = Atomic.fetch_and_add queued 1 + 1 in
      let rec bump () =
        let p = Atomic.get qpeak in
        if q > p && not (Atomic.compare_and_set qpeak p q) then bump ()
      in
      bump ()
    in
    let t0 = now () in
    (* checked once per charged state, before its goal test *)
    let guard = guard ?max_live ?deadline visited ~t0 in
    ignore (visited.add root : bool);
    Ws_deque.push deques.(0) root;
    note_push ();
    let process wi s =
      let ticket = Atomic.fetch_and_add tickets 1 in
      if ticket >= budget then Atomic.set budget_hit true
      else begin
        (match guard with
        | Some g -> Option.iter (fun reason -> request_halt (Truncated reason)) (g 0)
        | None -> ());
        if Atomic.get halt = None then begin
          let tally = tallies.(wi) in
          tally.expanded <- tally.expanded + 1;
          if goal s then request_halt (Goal_found s)
          else begin
            let succs = obs_iface.expand obss.(wi) s in
            emit_edges edges s succs;
            List.iter
              (fun c ->
                if admit visited prune tally c then begin
                  Atomic.incr in_flight;
                  Ws_deque.push deques.(wi) c;
                  note_push ()
                end)
              succs;
            visited.evict ()
          end
        end
      end;
      Atomic.decr in_flight
    in
    let worker wi =
      let dq = deques.(wi) in
      let tstart = now () in
      (* round-robin hunt over the other deques; gives up only on
         global quiescence or a halt *)
      let rec hunt v =
        if Atomic.get halt <> None || Atomic.get in_flight = 0 then None
        else
          let v = if v = wi then (v + 1) mod workers else v in
          match Ws_deque.steal deques.(v) with
          | Ws_deque.Stolen s ->
            steals.(wi) <- steals.(wi) + 1;
            Atomic.decr queued;
            Some s
          | Ws_deque.Empty | Ws_deque.Retry ->
            steal_failures.(wi) <- steal_failures.(wi) + 1;
            Domain.cpu_relax ();
            hunt ((v + 1) mod workers)
      in
      let rec loop () =
        if Atomic.get halt <> None then ()
        else
          match Ws_deque.pop dq with
          | Some s ->
            Atomic.decr queued;
            process wi s;
            loop ()
          | None ->
            (* a single worker with an empty deque is already
               quiescent: every push happened on this deque *)
            if workers = 1 || Atomic.get in_flight = 0 then ()
            else begin
              let ts = now () in
              let stolen = hunt ((wi + 1) mod workers) in
              idle.(wi) <- idle.(wi) +. (now () -. ts);
              match stolen with
              | Some s ->
                process wi s;
                loop ()
              | None -> ()
            end
      in
      loop ();
      busy.(wi) <- busy.(wi) +. (now () -. tstart) -. idle.(wi)
    in
    (match pool with
    | Some p when workers > 1 ->
      ignore (Domain_pool.map p worker (List.init workers Fun.id) : unit list)
    | _ -> worker 0);
    let isum a = Array.fold_left ( + ) 0 a in
    let fsum a = Array.fold_left ( +. ) 0. a in
    let total =
      Array.fold_left
        (fun a t ->
          {
            expanded = a.expanded + t.expanded;
            dedup = a.dedup + t.dedup;
            pruned = a.pruned + t.pruned;
          })
        (tally ()) tallies
    in
    let outcome =
      match Atomic.get halt with
      | Some o -> o
      | None ->
        if Atomic.get budget_hit then
          Truncated (Budget_exhausted { budget; consumed = total.expanded })
        else Exhausted
    in
    let obs = Array.fold_left obs_iface.merge (obs_iface.empty ()) obss in
    ( outcome,
      obs,
      metrics visited outcome ~t0 total ~peak:(Atomic.get qpeak) ~expand_seconds:(fsum busy)
        ~steals:(isum steals) ~steal_failures:(isum steal_failures)
        ~idle_seconds:(fsum idle) () )
end

(* ----- the per-root memo ----- *)

(* One sealed fact per finished root in an execution database.  The
   key names the answer-relevant parameters and the root; a root
   whose answer does not depend on its budget — it ran to completion
   with no live-state limit set — is keyed without budgets and reused
   whenever its recorded size fits the budget asked for, since a
   search given at least that many states takes the same course.
   Every other root is keyed with its budget and live-state limit.  A
   root cut short by the deadline is never recorded: where the wall
   clock stopped it is not a property of the root.  A fact that does
   not unseal is a miss, so its root is recomputed and the fact
   overwritten. *)
type 'r memo = {
  base : Patterns_db.Db.t;
  kind : string;
  params : string;
  key : 'r -> string;
  budget : int;
  max_live : int option;
}

(* What a fact holds: the root's payload and what a reuse reports in
   its place — the states the root expanded (its budget), the
   successors it derived, and the guard that stopped it, if any. *)
type 'p entry = {
  size : int;
  derivations : int;
  outcome : Metrics.outcome_kind;
  live_limit_hits : int;
  payload : 'p;
}

let budget_free memo r = Printf.sprintf "%s|%s" memo.params (memo.key r)

let budgeted memo r =
  Printf.sprintf "%s|budget=%d|ml=%s|%s" memo.params memo.budget
    (match memo.max_live with None -> "-" | Some l -> string_of_int l)
    (memo.key r)

let memo_find memo r =
  let get key = (Patterns_db.Db.get_sealed memo.base ~kind:memo.kind ~key : _ entry option) in
  let hit =
    match if memo.max_live = None then get (budget_free memo r) else None with
    | Some e when e.size <= memo.budget -> Some e
    | _ -> get (budgeted memo r)
  in
  Option.map
    (fun e ->
      ( e.payload,
        Metrics.with_incremental ~delta_reused_edges:e.derivations
          {
            Metrics.zero with
            outcome = e.outcome;
            truncated_roots = (if e.outcome = Metrics.Truncated then 1 else 0);
            live_limit_hits = e.live_limit_hits;
          } ))
    hit

(* A kernel search derives one successor per claim but the root's,
   and one per pruned successor; an index scan claims nothing. *)
let memo_record memo r (payload, (m : Metrics.t)) =
  if m.deadline_hits = 0 then
    let key =
      if memo.max_live = None && m.outcome <> Metrics.Truncated then budget_free memo r
      else budgeted memo r
    in
    Patterns_db.Db.put_sealed memo.base ~kind:memo.kind ~key
      {
        size = m.states_expanded;
        derivations = max 0 (m.fingerprint_probes - 1) + m.pruned;
        outcome = m.outcome;
        live_limit_hits = m.live_limit_hits;
        payload;
      }

(* ----- the per-root sweep ----- *)

(* Every answer is a fold over independent roots (input vectors)
   merged in root order.  The parallelism is intra-root — the async
   driver spreads each root's search across the pool — so the loop
   over roots stays on the pool-owning domain (nested pool maps are
   not supported).  [deadline] bounds the whole sweep: each root
   receives the time remaining when its turn comes, and a root
   starting past the deadline gets a zero allowance and truncates
   immediately.  With a memo, each root is looked up before it is
   searched and recorded after. *)
let sweep ?metrics ?deadline ?memo ~jobs par_mode ~root ~merge init roots =
  let t_end = Option.map (fun d -> now () +. d) deadline in
  let remaining () = Option.map (fun te -> Float.max 0. (te -. now ())) t_end in
  let acc, m =
    with_pool ~jobs par_mode (fun pool ->
        List.fold_left
          (fun (acc, ms) (i, r) ->
            let payload, m =
              match Option.bind memo (fun memo -> memo_find memo r) with
              | Some reused -> reused
              | None ->
                let fresh = root pool ~deadline:(remaining ()) r in
                Option.iter (fun memo -> memo_record memo r fresh) memo;
                fresh
            in
            (merge acc payload, Metrics.merge ms (Metrics.with_root_index i m)))
          (init, Metrics.zero)
          (List.mapi (fun i r -> (i, r)) roots))
  in
  merge_into metrics m;
  acc

(* ----- strided goal search over an index space ----- *)

(* One long-lived task per worker, zero shared mutable state beyond a
   single CAS-min cell: worker [wi] owns the stride
   [wi+1, wi+1+W, wi+1+2W, …] and scans it independently — no batch
   dispatch, no per-batch barrier.  Hunt runs are independent
   no-dedup simulations, so this is the whole parallel story for
   them.

   Winner determinism: [best] only decreases, and a worker abandons
   its stride only once its next index exceeds the current [best] (or
   it found its own stripe-local goal).  Every index smaller than the
   final winner therefore got evaluated by its owning worker, so the
   returned witness is the one at the globally smallest goal index —
   identical for every [--jobs].  A clean sweep evaluates every index
   exactly once ([Error max_index]); a deadline truncation stops
   mid-stride and reports the wall-clock-dependent count tried.

   [?start] (default 1) begins the scan at a later index, so a hunt
   can sweep its index space chunk by chunk; [start..max_index] is
   scanned with the same stride discipline, so (winner, tried count)
   over a window is identical to the same window of a full scan. *)
let find_first ?metrics ~jobs ?deadline ?(start = 1) ~max_index ~f () =
  Domain_pool.with_pool ~jobs (fun pool ->
      let workers = Domain_pool.jobs pool in
      let best = Atomic.make max_int in
      let tried = Array.make workers 0 in
      let deadline_hit = Atomic.make false in
      let t0 = Unix.gettimeofday () in
      let work wi =
        let local = ref None in
        let i = ref (start + wi) in
        let continue = ref true in
        while !continue && !i <= max_index do
          if !i > Atomic.get best then continue := false
          else begin
            (match deadline with
            | Some d when Unix.gettimeofday () -. t0 >= d ->
              Atomic.set deadline_hit true;
              continue := false
            | _ -> ());
            if !continue then begin
              tried.(wi) <- tried.(wi) + 1;
              (match f !i with
              | Some v ->
                local := Some (!i, v);
                let rec cas_min () =
                  let b = Atomic.get best in
                  if !i < b && not (Atomic.compare_and_set best b !i) then cas_min ()
                in
                cas_min ();
                continue := false
              | None -> ());
              i := !i + workers
            end
          end
        done;
        !local
      in
      let locals =
        if workers = 1 then [ work 0 ]
        else Domain_pool.map pool work (List.init workers Fun.id)
      in
      let result =
        match
          List.fold_left
            (fun acc l ->
              match (acc, l) with
              | Some (i, _), Some (j, _) when j < i -> l
              | None, _ -> l
              | _ -> acc)
            None locals
        with
        | Some (_, v) -> Ok v
        | None -> Error (Array.fold_left ( + ) 0 tried)
      in
      let seconds = Unix.gettimeofday () -. t0 in
      let kind =
        match result with Ok _ -> Metrics.Goal_found | Error _ -> Metrics.Truncated
      in
      let m =
        Metrics.of_shard kind
          {
            Metrics.root = 0;
            states_expanded = Array.fold_left ( + ) 0 tried;
            dedup_hits = 0;
            frontier_peak = workers;
            pruned = 0;
            fingerprint_probes = 0;
            collision_fallbacks = 0;
            intern_bindings = 0;
            seconds;
          }
      in
      let m = if Atomic.get deadline_hit then { m with Metrics.deadline_hits = 1 } else m in
      merge_into metrics m;
      result)
