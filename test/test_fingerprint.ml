(* Fingerprint consistency over the whole protocol registry.

   Three invariants, qcheck'd on random walks (failure steps and
   receive-omission drops included) through every registered protocol:

   - canonicality: [compare_config a b = 0] implies
     [fingerprint a = fingerprint b] (and likewise for the behavioral
     projection) — equal configurations fingerprint equally however
     they were reached;
   - maintenance: after every [apply_exn], the incrementally carried
     fingerprint equals [fingerprint_from_scratch] — the O(1) value
     the search kernel keys its visited store on never drifts from
     the full fold;
   - the flat step is [apply]: a [Flat.t] stepped through the same
     actions as a full configuration carries the same behavioural
     fingerprint, prints the same text, offers the same actions,
     reports the same first decisions and refuses with the same
     words.

   Each maintenance run checks every configuration along a 20-step
   walk, so at 500 runs a protocol gets ~10k checked applications. *)

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
  let open QCheck2 in
  [
    Test.make
      ~name:(Printf.sprintf "%s: incremental fingerprint = from-scratch" P.name)
      ~count:500
      Gen.(int_bound 1_000_000)
      (fun seed ->
        let ok = ref true in
        let check c =
          if E.fingerprint c <> E.fingerprint_from_scratch c then ok := false
        in
        ignore (walk ~seed ~steps:20 ~on_config:check);
        !ok);
    Test.make
      ~name:(Printf.sprintf "%s: untracked lazy fingerprint = tracked" P.name)
      ~count:100
      Gen.(int_bound 1_000_000)
      (fun seed ->
        (* replay the same walk from a tracked and an untracked root:
           the untracked configuration's on-demand fingerprint must
           equal the incrementally maintained one, and reading it
           twice must agree (memoization); its edges, triples and
           [compare_config] must agree with the tracked
           configuration's *)
        let prng = Prng.create ~seed in
        let inputs = List.init n (fun _ -> Prng.bool prng) in
        let rec go ok tracked untracked k =
          if k = 0 || not ok then ok
          else
            let acts =
              E.applicable tracked
              @ (if Prng.int prng ~bound:4 = 0 then E.failure_actions tracked else [])
              @ (if Prng.int prng ~bound:4 = 0 then drop_actions tracked else [])
            in
            match acts with
            | [] -> ok
            | acts ->
              let a = List.nth acts (Prng.int prng ~bound:(List.length acts)) in
              let tracked', _ = E.apply_exn ~step:0 tracked a in
              let untracked', _ = E.apply_exn ~step:0 untracked a in
              let ok =
                E.fingerprint untracked' = E.fingerprint tracked'
                && E.fingerprint untracked' = E.fingerprint untracked'
                && E.behavioral_fingerprint untracked'
                   = E.behavioral_fingerprint tracked'
                (* the edge component of the pattern fingerprint is
                   lazy under untracked roots: recomputed on demand it
                   must equal the eagerly maintained value, and a
                   second read must hit the memo *)
                && E.pattern_fp untracked' = E.pattern_fp tracked'
                && E.pattern_fp untracked' = E.pattern_fp untracked'
                (* the untracked pattern itself, read back and compared
                   against the tracked one, and its from-scratch fold *)
                && E.pattern_edges untracked' = E.pattern_edges tracked'
                && E.triples_of untracked' = E.triples_of tracked'
                && E.compare_config untracked' tracked' = 0
                && E.compare_config tracked' untracked' = 0
                && E.fingerprint_from_scratch untracked' = E.fingerprint tracked'
              in
              go ok tracked' untracked' (k - 1)
        in
        go
          (E.fingerprint (E.init_untracked ~n ~inputs) = E.fingerprint (E.init ~n ~inputs))
          (E.init ~n ~inputs)
          (E.init_untracked ~n ~inputs)
          15);
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
        let random_action full =
          let p = Prng.int prng ~bound:(n + 1) in
          let index =
            Prng.int prng ~bound:(3 + if p < n then List.length (E.buffer_of full p) else 0) - 1
          in
          match Prng.int prng ~bound:3 with
          | 0 -> Action.Send_step p
          | 1 -> Action.Deliver { at = p; index }
          | _ -> Action.Fail p
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
              if acts = [] || Prng.int prng ~bound:4 = 0 then random_action full
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
