(* Fingerprint consistency over the whole protocol registry.

   Two invariants, qcheck'd on random walks (failure steps and
   receive-omission drops included) through every registered protocol:

   - canonicality: [compare_config a b = 0] implies
     [fingerprint a = fingerprint b] (and likewise for the behavioral
     projection) — equal configurations fingerprint equally however
     they were reached;
   - maintenance: after every [apply_exn], the incrementally carried
     fingerprint equals [fingerprint_from_scratch] — the O(1) value
     the search kernel keys its visited store on never drifts from
     the full fold.

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
        (* replay the same walk from a tracked, an untracked and a
           behaviour-only root: the untracked configuration's
           on-demand fingerprint must equal the incrementally
           maintained one, and reading it twice must agree
           (memoization); its edges, triples and [compare_config]
           must agree with the tracked configuration's; the
           behaviour-only configuration must be
           behaviourally equal to the tracked one, fingerprint
           included, and decide exactly when it does *)
        let prng = Prng.create ~seed in
        let inputs = List.init n (fun _ -> Prng.bool prng) in
        let decided evs =
          List.filter (function Trace.Decided _ -> true | _ -> false) evs
        in
        let rec go ok tracked untracked behavioral k =
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
              let tracked', evs = E.apply_exn ~step:0 tracked a in
              let untracked', _ = E.apply_exn ~step:0 untracked a in
              let behavioral', bevs = E.apply_exn ~step:0 behavioral a in
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
                && E.behavioral_fingerprint behavioral' = E.behavioral_fingerprint tracked'
                && E.compare_behavioral behavioral' tracked' = 0
                && decided bevs = decided evs
              in
              go ok tracked' untracked' behavioral' (k - 1)
        in
        go
          (E.fingerprint (E.init_untracked ~n ~inputs) = E.fingerprint (E.init ~n ~inputs)
          && E.behavioral_fingerprint (E.init_behavioral ~n ~inputs)
             = E.behavioral_fingerprint (E.init ~n ~inputs))
          (E.init ~n ~inputs)
          (E.init_untracked ~n ~inputs)
          (E.init_behavioral ~n ~inputs)
          15);
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

(* A behaviour-only configuration carries no pattern bookkeeping, so
   every pattern reader refuses it — at the root and after a send
   (whose event carries no causes) — rather than answer from empty
   sets. *)
let test_behavioral_pattern_readers () =
  let (module P : Protocol.S) = Patterns_protocols.Chain_proto.fig3 in
  let module E = Engine.Make (P) in
  let root = E.init_behavioral ~n:3 ~inputs:[ true; true; true ] in
  let sent, evs =
    match E.applicable root with
    | a :: _ -> E.apply_exn ~step:0 root a
    | [] -> Alcotest.fail "fig3-chain root has no step"
  in
  List.iter
    (function
      | Trace.Sent { causes; _ } ->
        Alcotest.(check int) "a behaviour-only send carries no causes" 0 (List.length causes)
      | _ -> ())
    evs;
  List.iter
    (fun (what, c) ->
      let raises name f =
        match f () with
        | () -> Alcotest.failf "%s on the %s configuration did not raise" name what
        | exception Invalid_argument _ -> ()
      in
      raises "fingerprint" (fun () -> ignore (E.fingerprint c));
      raises "compare_config" (fun () -> ignore (E.compare_config c c));
      raises "pattern_fp" (fun () -> ignore (E.pattern_fp c));
      raises "triples_of" (fun () -> ignore (E.triples_of c));
      raises "pattern_edges" (fun () -> ignore (E.pattern_edges c));
      (* the behavioural readers still answer *)
      Alcotest.(check int) (what ^ ": compare_behavioral") 0 (E.compare_behavioral c c))
    [ ("root", root); ("sent", sent) ]

let () =
  Alcotest.run "fingerprint"
    [
      ( "registry",
        List.concat_map
          (fun entry -> List.map QCheck_alcotest.to_alcotest (tests_for entry))
          Patterns_protocols.Registry.all );
      ( "kinds",
        [
          Alcotest.test_case "behaviour-only pattern readers raise" `Quick
            test_behavioral_pattern_readers;
        ] );
    ]
