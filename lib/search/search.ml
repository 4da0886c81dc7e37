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

(* the graceful-degradation counters carried into the metrics record:
   which of the overrun guards (if any) stopped this search *)
let degradation_hits = function
  | Truncated (Deadline_exceeded _) -> (1, 0)
  | Truncated (Live_limit_exceeded _) -> (0, 1)
  | _ -> (0, 0)

let with_degradation outcome (m : Metrics.t) =
  let deadline_hits, live_limit_hits = degradation_hits outcome in
  { m with Metrics.deadline_hits; live_limit_hits }

let truncated = function Truncated _ -> true | _ -> false

let merge_into sink m = Option.iter (fun r -> r := Metrics.merge !r m) sink

let now () = Unix.gettimeofday ()

(* Which driver a client sweep runs on.  [Layers] is the serial
   canonical-order BFS ({!Make.run}): shortest goal witnesses and the
   same truncation points for every [--jobs], because it runs on one
   domain.  [Async] is the work-stealing driver over the lock-free
   fingerprint table — same outcomes, pattern sets and deterministic
   counters on searches it runs to exhaustion, but truncation points
   and goal witnesses are schedule-dependent. *)
type par_mode = Layers | Async

let par_mode_string = function Layers -> "layers" | Async -> "async"

let with_pool ~jobs par_mode f =
  Domain_pool.with_pool ~jobs:(match par_mode with Layers -> 1 | Async -> jobs) f

(* Disk-backed visited storage: when set, both drivers swap their
   in-memory visited store for a {!Patterns_stdx.Spill_store} rooted
   at [dir] and bounded to [mem_budget] resident bindings.  Probe
   counting, cumulative binding counts and the insertion discipline
   are identical to the in-memory stores, and eviction happens only at
   driver-chosen points, so outcomes, pattern sets and the /1–/6
   metrics are bit-identical with or without spilling.  The
   one semantic shift: the [max_live] guard counts {e resident}
   bindings plus frontier, not cumulative bindings — spilling exists
   precisely to take evicted states out of the live-memory budget. *)
type spill = { dir : string; mem_budget : int }

(* ----- fingerprint-indexed visited store ----- *)

module Store = struct
  module Fp_tbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash = Fingerprint.to_int
  end)

  type 'a t = {
    equal : 'a -> 'a -> bool;
    fingerprint : 'a -> Fingerprint.t;
    tbl : 'a list Fp_tbl.t;
    mutable bindings : int;
    mutable probes : int;
    mutable collision_fallbacks : int;
  }

  let create ?(size = 1024) ~equal ~fingerprint () =
    {
      equal;
      fingerprint;
      tbl = Fp_tbl.create size;
      bindings = 0;
      probes = 0;
      collision_fallbacks = 0;
    }

  (* A fingerprint match is never trusted on its own: a hit is
     confirmed structurally, and a bucket member that fails the
     structural test is a true fingerprint collision, counted so the
     metrics can certify it (essentially) never happens. *)
  let bucket_mem t x bucket =
    if List.exists (fun y -> not (t.equal x y)) bucket then
      t.collision_fallbacks <- t.collision_fallbacks + 1;
    List.exists (t.equal x) bucket

  let mem t x =
    t.probes <- t.probes + 1;
    match Fp_tbl.find_opt t.tbl (t.fingerprint x) with
    | None -> false
    | Some bucket -> bucket_mem t x bucket

  let add_if_absent t x =
    t.probes <- t.probes + 1;
    let fp = t.fingerprint x in
    let bucket = match Fp_tbl.find_opt t.tbl fp with Some b -> b | None -> [] in
    if bucket_mem t x bucket then false
    else begin
      Fp_tbl.replace t.tbl fp (x :: bucket);
      t.bindings <- t.bindings + 1;
      true
    end

  let bindings t = t.bindings
  let probes t = t.probes
  let collision_fallbacks t = t.collision_fallbacks
end

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

  (* the /7 section of a spilling search, and the run files' disposal *)
  let spill_finish visited m =
    let m =
      Metrics.with_spill
        ~runs:(Spill_store.spill_runs visited)
        ~evictions:(Spill_store.spill_evictions visited)
        ~probes:(Spill_store.spill_probes visited)
        ~read_bytes:(Spill_store.spill_read_bytes visited)
        ~write_bytes:(Spill_store.spill_write_bytes visited)
        ~fd_reopens:(Spill_store.spill_fd_reopens visited)
        m
    in
    Spill_store.dispose visited;
    m

  (* ----- the serial driver: breadth-first in canonical layer order ----- *)

  (* The canonical order groups each layer's fresh successors by the
     top [shard_bits] bits of their fingerprint, frontier order within
     a group.  The constant makes layer order — and with it every
     truncation point and goal witness — a pure function of the
     reachable graph. *)
  let shard_bits = 4

  let shard_of s = Fingerprint.to_int (P.fingerprint s) lsr (62 - shard_bits)

  (* The serial driver's visited interface.  [sv_layer_end] is the
     spill store's eviction point (between layers, so spilling cannot
     move a truncation or change a count); [sv_live] feeds the
     [max_live] guard: cumulative bindings in memory, resident
     bindings when spilling. *)
  type serial_store = {
    sv_mem : P.state -> bool;
    sv_add_if_absent : P.state -> bool;
    sv_live : unit -> int;
    sv_probes : unit -> int;
    sv_collision_fallbacks : unit -> int;
    sv_layer_end : unit -> unit;
    sv_finish : Metrics.t -> Metrics.t;
  }

  let serial_store spill =
    let equal a b = P.compare a b = 0 in
    match spill with
    | None ->
      let visited = Store.create ~equal ~fingerprint:P.fingerprint () in
      {
        sv_mem = Store.mem visited;
        sv_add_if_absent = Store.add_if_absent visited;
        sv_live = (fun () -> Store.bindings visited);
        sv_probes = (fun () -> Store.probes visited);
        sv_collision_fallbacks = (fun () -> Store.collision_fallbacks visited);
        sv_layer_end = ignore;
        sv_finish = Fun.id;
      }
    | Some { dir; mem_budget } ->
      let visited =
        Spill_store.create ~equal ~fingerprint:P.fingerprint ~dir ~mem_budget ()
      in
      {
        sv_mem = Spill_store.mem visited;
        sv_add_if_absent = Spill_store.add_if_absent visited;
        sv_live = (fun () -> Spill_store.resident visited);
        sv_probes = (fun () -> Spill_store.probes visited);
        sv_collision_fallbacks = (fun () -> Spill_store.collision_fallbacks visited);
        sv_layer_end = (fun () -> Spill_store.maybe_evict visited);
        sv_finish = spill_finish visited;
      }

  let run ?(budget = max_int) ?deadline ?max_live ?spill ?is_goal ?prune ?edges
      ~expand:obs_iface ~root () =
    let visited = serial_store spill in
    let obs = obs_iface.empty () in
    let expanded = ref 0 and dedup = ref 0 and pruned = ref 0 in
    let peak = ref 0 and layers = ref 0 and expand_seconds = ref 0. in
    let occupancy = Array.make (1 lsl shard_bits) 0 in
    let goal = match is_goal with Some g -> g | None -> fun _ -> false in
    (* visited is checked before prune: pruning is usually the
       expensive predicate (pattern-prefix tests), membership the
       cheap one *)
    let keep s =
      if visited.sv_mem s then begin
        incr dedup;
        false
      end
      else
        match prune with
        | Some p when p s ->
          incr pruned;
          false
        | _ -> true
    in
    let insert i s =
      if visited.sv_add_if_absent s then begin
        occupancy.(i) <- occupancy.(i) + 1;
        true
      end
      else begin
        incr dedup;
        false
      end
    in
    let t0 = now () in
    (* overrun guards, checked once per layer before the layer is
       charged: overshoot is bounded by one layer, and the live-state
       check sees the store plus the whole pending frontier *)
    let over_run len =
      let live = visited.sv_live () + len and elapsed = now () -. t0 in
      match (max_live, deadline) with
      | Some limit, _ when live > limit ->
        Some (Truncated (Live_limit_exceeded { limit; live }))
      | _, Some d when elapsed >= d ->
        Some (Truncated (Deadline_exceeded { deadline = d; elapsed }))
      | _ -> None
    in
    (* budget and goal are charged in frontier order before any
       expansion, so a mid-layer stop is deterministic *)
    let rec charge = function
      | [] -> None
      | s :: tl ->
        if !expanded >= budget then
          Some (Truncated (Budget_exhausted { budget; consumed = !expanded }))
        else begin
          incr expanded;
          if goal s then Some (Goal_found s) else charge tl
        end
    in
    let rec loop frontier =
      let len = List.length frontier in
      if len = 0 then Exhausted
      else
        match over_run len with
        | Some t -> t
        | None -> (
          incr layers;
          if len > !peak then peak := len;
          match charge frontier with
          | Some outcome -> outcome
          | None ->
            (* expand in frontier order against the store as it stood
               at the end of the previous layer *)
            let ta = now () in
            let candidates =
              List.concat_map
                (fun s ->
                  let succs = obs_iface.expand obs s in
                  emit_edges edges s succs;
                  List.filter keep succs)
                frontier
            in
            expand_seconds := !expand_seconds +. (now () -. ta);
            (* insert grouped by shard, frontier order within a group;
               the next layer is the shard-major concatenation *)
            let by_shard = Array.make (1 lsl shard_bits) [] in
            List.iter
              (fun s ->
                let i = shard_of s in
                by_shard.(i) <- s :: by_shard.(i))
              candidates;
            let next =
              List.concat
                (List.mapi (fun i cands -> List.filter (insert i) (List.rev cands))
                   (Array.to_list by_shard))
            in
            visited.sv_layer_end ();
            loop next)
    in
    ignore (insert (shard_of root) root : bool);
    let outcome = loop [ root ] in
    let seconds = now () -. t0 in
    let shard =
      {
        Metrics.root = 0;
        states_expanded = !expanded;
        dedup_hits = !dedup;
        frontier_peak = !peak;
        pruned = !pruned;
        fingerprint_probes = visited.sv_probes ();
        collision_fallbacks = visited.sv_collision_fallbacks ();
        intern_bindings = 0;
        seconds;
      }
    in
    let m =
      Metrics.of_shard (outcome_kind outcome) shard
      |> Metrics.with_par ~layers:!layers ~shard_bits
           ~occupancy_max:(Array.fold_left max 0 occupancy)
           ~occupancy_total:(Array.fold_left ( + ) 0 occupancy)
           ~expand_seconds:!expand_seconds
    in
    (outcome, obs, visited.sv_finish (with_degradation outcome m))

  (* ----- asynchronous work-stealing driver ----- *)

  (* No layers, no barrier: each worker owns a Chase–Lev deque and
     works depth-first on its own bottom end, hunting round-robin over
     the other deques when its own runs dry.  The visited set is the
     lock-free [Atomic_table]; a successor is claimed into it at
     generation time (add_if_absent doubles as the membership test),
     so a state enters exactly one deque and is processed exactly
     once.

     Quiescence: [in_flight] counts the root plus every claimed,
     not-yet-retired state.  A worker increments it for each fresh
     child before retiring the parent, so it can only reach 0 when no
     state is queued or being expanded anywhere — the termination
     barrier is one atomic read.

     Determinism contract (pinned by test_parallel): on a search that
     runs to exhaustion, the claimed set equals the serial visited
     set, and states_expanded / dedup_hits / pruned satisfy the same
     identities as the serial driver (dedup = generated − pruned −
     fresh); fingerprint_probes = generated − pruned + 1, one claim
     per non-pruned successor plus the root.
     One deliberate divergence: successors are prune-tested {e
     before} the visited test, where the serial keep tests membership
     first.  The counts still agree — a prunable state is never
     claimed, so its membership test is always false — but [prune]
     must be pure, and prune-heavy goal searches (realization) should
     prefer the serial driver, which also keeps the shortest-witness
     guarantee.  Budget exhaustion is not a halt:
     workers keep draining their deques, dropping every state whose
     budget ticket is out of range, so exactly [budget] tickets are
     consumed and [states_expanded] is deterministic even for a
     truncated search (the *set* expanded is schedule-dependent).

     The async driver's visited interface.  With a spill store the
     lock-free table is replaced by the mutex-sharded spill cache
     (add_if_absent ignores the worker hint); [av_tick] is the
     eviction check, run once per processed state — deterministic at
     [--jobs 1], schedule-dependent above it, which is why the /7
     counters carry the same jobs>1 caveat as [intern_bindings]. *)
  type async_store = {
    av_add_if_absent : worker:int -> P.state -> bool;
    av_live : unit -> int;
    av_bindings : unit -> int;
    av_probes : unit -> int;
    av_collision_fallbacks : unit -> int;
    av_lock_contention : unit -> int;
    av_cas_retries : unit -> int;
    av_occupancy : unit -> float;
    av_bits : int;
    av_tick : unit -> unit;
    av_finish : Metrics.t -> Metrics.t;
  }

  let async_store ?capacity ~workers spill =
    let equal a b = P.compare a b = 0 in
    match spill with
    | None ->
      let table = Atomic_table.create ?capacity ~workers ~equal ~fingerprint:P.fingerprint () in
      {
        av_add_if_absent = (fun ~worker s -> Atomic_table.add_if_absent table ~worker s);
        av_live = (fun () -> Atomic_table.bindings table);
        av_bindings = (fun () -> Atomic_table.bindings table);
        av_probes = (fun () -> Atomic_table.probes table);
        av_collision_fallbacks = (fun () -> Atomic_table.collision_fallbacks table);
        av_lock_contention = (fun () -> Atomic_table.lock_contention table);
        av_cas_retries = (fun () -> Atomic_table.cas_retries table);
        av_occupancy = (fun () -> Atomic_table.occupancy table);
        av_bits = Atomic_table.initial_bits table;
        av_tick = ignore;
        av_finish = Fun.id;
      }
    | Some { dir; mem_budget } ->
      let visited = Spill_store.create ~equal ~fingerprint:P.fingerprint ~dir ~mem_budget () in
      {
        av_add_if_absent = (fun ~worker:_ s -> Spill_store.add_if_absent visited s);
        av_live = (fun () -> Spill_store.resident visited);
        av_bindings = (fun () -> Spill_store.bindings visited);
        av_probes = (fun () -> Spill_store.probes visited);
        av_collision_fallbacks = (fun () -> Spill_store.collision_fallbacks visited);
        av_lock_contention = (fun () -> Spill_store.lock_contention visited);
        av_cas_retries = (fun () -> 0);
        av_occupancy = (fun () -> 0.);
        av_bits = Spill_store.shard_bits;
        av_tick = (fun () -> Spill_store.maybe_evict visited);
        av_finish = spill_finish visited;
      }

  let run_par_async ?pool ?capacity ?(budget = max_int) ?deadline ?max_live ?spill ?is_goal
      ?prune ?edges ~expand:obs_iface ~root () =
    let workers = match pool with Some p -> Domain_pool.jobs p | None -> 1 in
    let table = async_store ?capacity ~workers spill in
    let goal = match is_goal with Some g -> g | None -> fun _ -> false in
    let deques = Array.init workers (fun _ -> Ws_deque.create ()) in
    let in_flight = Atomic.make 1 in
    let tickets = Atomic.make 0 in
    let halt = Atomic.make (None : P.state outcome option) in
    let budget_hit = Atomic.make false in
    let request_halt o = ignore (Atomic.compare_and_set halt None (Some o) : bool) in
    (* per-worker tallies, merged in worker-index order at quiescence *)
    let expanded = Array.make workers 0 and dedup = Array.make workers 0 in
    let pruned = Array.make workers 0 in
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
    ignore (table.av_add_if_absent ~worker:0 root : bool);
    Ws_deque.push deques.(0) root;
    note_push ();
    let process wi s =
      let ticket = Atomic.fetch_and_add tickets 1 in
      if ticket >= budget then Atomic.set budget_hit true
      else begin
        (* overrun guards in the serial driver's order: live states,
           then the deadline, then the goal test on the charged state *)
        (match max_live with
        | Some limit ->
          let live = table.av_live () in
          if live > limit then
            request_halt (Truncated (Live_limit_exceeded { limit; live }))
        | None -> ());
        (match deadline with
        | Some d ->
          let elapsed = now () -. t0 in
          if elapsed >= d then
            request_halt (Truncated (Deadline_exceeded { deadline = d; elapsed }))
        | None -> ());
        if Atomic.get halt = None then begin
          expanded.(wi) <- expanded.(wi) + 1;
          if goal s then request_halt (Goal_found s)
          else begin
            let succs = obs_iface.expand obss.(wi) s in
            emit_edges edges s succs;
            List.iter
              (fun c ->
                match prune with
                | Some p when p c -> pruned.(wi) <- pruned.(wi) + 1
                | _ ->
                  if table.av_add_if_absent ~worker:wi c then begin
                    Atomic.incr in_flight;
                    Ws_deque.push deques.(wi) c;
                    note_push ()
                  end
                  else dedup.(wi) <- dedup.(wi) + 1)
              succs;
            table.av_tick ()
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
    let outcome =
      match Atomic.get halt with
      | Some o -> o
      | None ->
        if Atomic.get budget_hit then
          Truncated (Budget_exhausted { budget; consumed = isum expanded })
        else Exhausted
    in
    let obs = Array.fold_left obs_iface.merge (obs_iface.empty ()) obss in
    let seconds = now () -. t0 in
    let shard =
      {
        Metrics.root = 0;
        states_expanded = isum expanded;
        dedup_hits = isum dedup;
        frontier_peak = Atomic.get qpeak;
        pruned = isum pruned;
        fingerprint_probes = table.av_probes ();
        collision_fallbacks = table.av_collision_fallbacks ();
        intern_bindings = 0;
        seconds;
      }
    in
    let m =
      Metrics.of_shard (outcome_kind outcome) shard
      |> Metrics.with_async ~shard_bits:table.av_bits
           ~occupancy_total:(table.av_bindings ())
           ~lock_contention:(table.av_lock_contention ())
           ~expand_seconds:(fsum busy) ~steals:(isum steals)
           ~steal_failures:(isum steal_failures) ~cas_retries:(table.av_cas_retries ())
           ~table_occupancy:(table.av_occupancy ()) ~idle_seconds:(fsum idle)
    in
    (outcome, obs, table.av_finish (with_degradation outcome m))
end

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

   [?start] (default 1) begins the scan at a later index — the hook
   checkpoint resume uses to skip indices a previous process already
   cleared; [start..max_index] is scanned with the same stride
   discipline, so (winner, tried count) over a window is identical to
   the same window of a full scan. *)
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

(* ----- instrumented linear scans ----- *)

module Scan = struct
  (* The kernel specialised to a chain: position [i] expands to
     [i + 1] and nothing is ever revisited, so the visited table is
     skipped — but the scan reports the same Metrics as any other
     search, with the first error as the goal. *)
  let first_error ?metrics ~len ~check () =
    let t0 = Unix.gettimeofday () in
    let checked = ref 0 in
    let rec go i =
      if i >= len then Ok ()
      else begin
        incr checked;
        match check i with Ok () -> go (i + 1) | Error _ as e -> e
      end
    in
    let result = go 0 in
    let seconds = Unix.gettimeofday () -. t0 in
    let kind =
      match result with Ok () -> Metrics.Exhausted | Error _ -> Metrics.Goal_found
    in
    let m =
      Metrics.of_shard kind
        {
          Metrics.root = 0;
          states_expanded = !checked;
          dedup_hits = 0;
          frontier_peak = (if len > 0 then 1 else 0);
          pruned = 0;
          fingerprint_probes = 0;
          collision_fallbacks = 0;
          intern_bindings = 0;
          seconds;
        }
    in
    merge_into metrics m;
    result
end
