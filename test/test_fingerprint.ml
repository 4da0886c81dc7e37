(* Fingerprint consistency over the whole protocol registry.

   Invariants qcheck'd on random walks through every registered
   protocol:

   - canonicality: [compare_config a b = 0] implies
     [fingerprint a = fingerprint b] (and likewise for the behavioral
     projection) — equal configurations fingerprint equally however
     they were reached (failure steps and receive-omission drops
     included);
   - maintenance: after every [Patterned.step], the carried
     fingerprint equals the full fold of a configuration stepped
     through the same actions with [apply] — the O(1) value the scheme
     search keys its visited store on never drifts from it;
   - the pattern step is [apply]: a [Patterned.t] stepped through the
     same actions as a configuration carries its fingerprint, its
     triples and its edges, refuses with the same words, and over a
     pool of walked configurations decides [compare_config]'s
     equality;
   - the flat step is [apply]: a [Flat.t] stepped through the same
     actions as a configuration carries the same behavioural
     fingerprint, prints the same text, offers the same actions,
     reports the same first decisions and refuses with the same
     words.

   Each maintenance run checks every configuration along a 20-step
   walk, so at 500 runs a protocol gets ~10k checked steps. *)

open Patterns_sim
open Patterns_stdx

let pick_n (module P : Protocol.S) ~default_n = if P.valid_n 3 then 3 else default_n

let tests_for entry =
  let (module P : Protocol.S) = entry.Patterns_protocols.Registry.protocol in
  let n = pick_n (module P) ~default_n:entry.Patterns_protocols.Registry.default_n in
  let module E = Engine.Make (P) in
  (* [Action.Drop] for every buffered [Data] entry: exercises
     [apply_drop]'s exact-inverse fingerprint delta (notices cannot be
     dropped, so they are skipped) *)
  let drop_actions cfg =
    List.concat_map
      (fun p ->
        List.concat
          (List.mapi
             (fun i -> function
               | E.Data _ -> [ Action.Drop { at = p; index = i } ]
               | E.Note _ -> [])
             (E.buffer_of cfg p)))
      (Proc_id.all ~n)
  in
  let walk ~seed ~steps ~on_config =
    let prng = Prng.create ~seed in
    let inputs = List.init n (fun _ -> Prng.bool prng) in
    let rec go acc cfg k =
      if k = 0 then acc
      else
        let acts =
          E.applicable cfg
          @ (if Prng.int prng ~bound:4 = 0 then E.failure_actions cfg else [])
          @ (if Prng.int prng ~bound:4 = 0 then drop_actions cfg else [])
        in
        match acts with
        | [] -> acc
        | acts ->
          let a = List.nth acts (Prng.int prng ~bound:(List.length acts)) in
          let cfg', _ = E.apply_exn ~step:(steps - k) cfg a in
          on_config cfg';
          go (cfg' :: acc) cfg' (k - 1)
    in
    let c0 = E.init ~n ~inputs in
    on_config c0;
    go [ c0 ] c0 steps
  in
  (* a send, delivery or failure drawn at random, most often
     inapplicable *)
  let random_action prng cfg =
    let p = Prng.int prng ~bound:(n + 1) in
    let index =
      Prng.int prng ~bound:(3 + if p < n then List.length (E.buffer_of cfg p) else 0) - 1
    in
    match Prng.int prng ~bound:3 with
    | 0 -> Action.Send_step p
    | 1 -> Action.Deliver { at = p; index }
    | _ -> Action.Fail p
  in
  let module C = E.Patterned in
  (* A configuration stepped with [apply] and a pattern-layer one
     stepped with [C.step] through the same walk, failures included
     and now and then a random action both must refuse with the same
     text: every pair along it, root first, or [None] at the first
     action they disagree on. *)
  let paired_walk ?inputs ~seed ~steps () =
    let prng = Prng.create ~seed in
    let inputs =
      match inputs with Some i -> i | None -> List.init n (fun _ -> Prng.bool prng)
    in
    let rec go acc c l k =
      if k = 0 then Some (List.rev acc)
      else
        let acts =
          E.applicable c @ if Prng.int prng ~bound:4 = 0 then E.failure_actions c else []
        in
        let a =
          if acts = [] || Prng.int prng ~bound:5 = 0 then random_action prng c
          else List.nth acts (Prng.int prng ~bound:(List.length acts))
        in
        let stepped f = match f () with x -> Ok x | exception Failure e -> Error e in
        match (stepped (fun () -> fst (E.apply_exn ~step:0 c a)), stepped (fun () -> C.step l a)) with
        | Error e, Error e' -> if e = e' then go acc c l (k - 1) else None
        | Ok c', Ok l' -> go ((c', l') :: acc) c' l' (k - 1)
        | Ok _, Error _ | Error _, Ok _ -> None
    in
    let c = E.init ~n ~inputs and l = C.init ~n ~inputs in
    go [ (c, l) ] c l steps
  in
  let open QCheck2 in
  [
    Test.make
      ~name:(Printf.sprintf "%s: incremental fingerprint = from-scratch" P.name)
      ~count:500
      Gen.(int_bound 1_000_000)
      (fun seed ->
        (* a configuration's fingerprint is a full fold of its own
           fields, first read here: the knowledge sets, triples and
           edges [apply] built, none of them derived as the layer
           derives them *)
        match paired_walk ~seed ~steps:20 () with
        | None -> false
        | Some walk -> List.for_all (fun (c, l) -> C.fingerprint l = E.fingerprint c) walk);
    Test.make
      ~name:(Printf.sprintf "%s: untracked lazy fingerprint = tracked" P.name)
      ~count:100
      Gen.(int_bound 1_000_000)
      (fun seed ->
        (* the configuration's fingerprint, folded on first demand and
           memoized, equals the word the pattern layer carries, and a
           second read agrees *)
        match paired_walk ~seed ~steps:15 () with
        | None -> false
        | Some walk ->
          List.for_all
            (fun (c, l) ->
              let first = E.fingerprint c in
              first = C.fingerprint l && E.fingerprint c = first)
            walk);
    Test.make
      ~name:(Printf.sprintf "%s: pattern step = apply" P.name)
      ~count:60
      Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
      (fun (s1, s2) ->
        (* the same triples and edges at every step, and over the pool
           of both walks' configurations the same equality as
           [compare_config]; both walks start at one root, so the pool
           holds configurations that agree on everything but their
           history *)
        let inputs = List.init n (fun i -> (s1 lsr i) land 1 = 1) in
        match (paired_walk ~inputs ~seed:s1 ~steps:20 (), paired_walk ~inputs ~seed:s2 ~steps:20 ()) with
        | Some w1, Some w2 ->
          let pool = w1 @ w2 in
          List.for_all
            (fun (c, l) -> E.triples_of c = C.triples l && E.pattern_edges c = C.edges l)
            pool
          && List.for_all
               (fun (c, l) ->
                 List.for_all
                   (fun (c', l') -> (E.compare_config c c' = 0) = (C.compare l l' = 0))
                   pool)
               pool
        | _ -> false);
    Test.make
      ~name:(Printf.sprintf "%s: flat step = full step" P.name)
      ~count:150
      Gen.(int_bound 1_000_000)
      (fun seed ->
        (* step a full and a flat root through the same walk under one
           notice discipline, failures included; now and then the walk
           tries a send, delivery or failure drawn at random, most
           often inapplicable, which both must refuse with the same
           text (and then both stay put) *)
        let prng = Prng.create ~seed in
        let inputs = List.init n (fun _ -> Prng.bool prng) in
        let fifo_notices = Prng.bool prng in
        let text pp c = Format.asprintf "%a" pp c in
        let same full flat =
          E.behavioral_fingerprint full = E.Flat.fingerprint flat
          && text E.pp_config full = text E.Flat.pp flat
          && E.applicable ~fifo_notices full = E.Flat.applicable ~fifo_notices flat
          && E.failure_actions full = E.Flat.failure_actions flat
        in
        (* the code [Flat.step] must report: the [Decided] event's
           decision, at the stepping processor *)
        let decision_code a evs =
          List.fold_left
            (fun code ev ->
              match (ev, a) with
              | ( Trace.Decided { proc; decision; _ },
                  (Action.Send_step p | Action.Deliver { at = p; _ }) )
                when proc = p -> (
                match decision with Decision.Commit -> 1 | Decision.Abort -> 2)
              | Trace.Decided _, _ -> -1
              | _ -> code)
            0 evs
        in
        let rec go full flat k =
          if k = 0 then true
          else
            let acts =
              E.applicable ~fifo_notices full
              @ (if Prng.int prng ~bound:3 = 0 then E.failure_actions full else [])
            in
            let a =
              if acts = [] || Prng.int prng ~bound:4 = 0 then random_action prng full
              else List.nth acts (Prng.int prng ~bound:(List.length acts))
            in
            match (E.apply ~step:0 full a, E.Flat.step flat a) with
            | Error e, E.Flat.Refused e' -> e = e' && go full flat (k - 1)
            | Ok (full', evs), E.Flat.Next (flat', code) ->
              code = decision_code a evs && same full' flat' && go full' flat' (k - 1)
            | Ok _, E.Flat.Refused _ | Error _, E.Flat.Next _ -> false
        in
        let full = E.init ~n ~inputs and flat = E.Flat.init ~n ~inputs in
        same full flat && go full flat 25);
    Test.make
      ~name:(Printf.sprintf "%s: equal configs fingerprint equally" P.name)
      ~count:40
      Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
      (fun (s1, s2) ->
        let pool =
          walk ~seed:s1 ~steps:25 ~on_config:ignore
          @ walk ~seed:s2 ~steps:25 ~on_config:ignore
        in
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                (E.compare_config a b <> 0 || E.fingerprint a = E.fingerprint b)
                && (E.compare_behavioral a b <> 0
                   || E.behavioral_fingerprint a = E.behavioral_fingerprint b))
              pool)
          pool);
  ]

let () =
  Alcotest.run "fingerprint"
    [
      ( "registry",
        List.concat_map
          (fun entry -> List.map QCheck_alcotest.to_alcotest (tests_for entry))
          Patterns_protocols.Registry.all );
    ]
