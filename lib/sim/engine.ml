open Patterns_stdx

module Make (P : Protocol.S) = struct
  type entry =
    | Note of Proc_id.t
    | Data of { triple : Triple.t; payload : P.msg }

  module Pair = struct
    type t = Triple.t * Triple.t

    let compare (a1, b1) (a2, b2) =
      let c = Triple.compare a1 a2 in
      if c <> 0 then c else Triple.compare b1 b2
  end

  module Pair_set = Set.Make (Pair)
  module F = Fingerprint

  (* What every configuration descended from one root maintains on
     [apply]:

     - [Full] ([init]): both incremental fingerprints, the pattern
       bookkeeping (knowledge, edges, triples), and per-root interning
       of states, knowledge/trips sets and edge sets — what a search
       over full configurations with a visited store wants;
     - [Lazy] ([init_untracked], and every {!run}): the pattern
       bookkeeping only, with the edges left unexpanded as one
       [(triple, causes)] entry per send.  No fingerprint upkeep and
       no interning: linear runs with no visited store attached — the
       randomized audits, the hunts, replays — pay nothing for dedup
       machinery they never use.  Their edge set and fingerprints are
       computed by full folds on first demand, the fingerprints
       memoized.

     Searches over behavioural configurations use neither: they run on
     {!Flat}, below, which keeps only what their dedup reads. *)
  type kind = Full | Lazy

  (* Per-root mutable interning context: every state and every
     knowledge/trips set and edge set constructed under one [Full]
     root is routed through these tables, so structurally equal
     values reached along different schedules are pointer-shared and
     their fingerprints are computed once.  The tables are shared by
     every configuration descended from one root, and take no lock:
     a root is searched on one domain. *)
  type ctx = {
    kind : kind;
    sets : Triple.Fset.t Intern.t;
    states : P.state Intern.t;
    edge_sets : Pair_set.t Intern.t;
  }

  type config = {
    n : int;
    inputs : bool array;
    states : P.state array;
    (* state_fps.(p) = fp_state_at p (P.hash_state states.(p)) — the
       word [bfp] currently carries for p, cached so an update hashes
       only the one state that changed *)
    state_fps : F.t array;
    failed : bool array;
    buffers : entry list array;
    sent_count : int array;  (* flattened n*n: sender * n + receiver *)
    knowledge : Triple.Fset.t array;
    (* The happens-before edges, in the shape the kind can afford.
       [Full] folds every (cause, triple) pair of a send into the
       interned set [edges].  [Lazy] leaves [edges] empty and conses
       one [(triple, causes)] entry per send onto [sends], newest
       first, where [causes] is the very list the [Sent] event
       carries; [edge_set] expands it when a reader asks.  A send's
       triple is freshly minted, so each pair occurs exactly once and
       both shapes denote the same set and fold to the same
       fingerprint. *)
    edges : Pair_set.t;
    sends : (Triple.t * Triple.t list) list;
    (* commutative fingerprint of the edges alone: the intern key for
       the edge set and the edge half of the terminal pattern identity.
       Maintained eagerly under [Full] (the intern table needs it on
       every send); stale under [Lazy] until [ensure_efp] recomputes
       it by a full fold on first demand ([efp_valid] says which) —
       linear runs that never ask for a pattern identity pay nothing
       for it. *)
    mutable efp : F.t;
    mutable efp_valid : bool;
    trips : Triple.Fset.t;
    (* behavioral fingerprint (n, inputs, states, failed, buffers) and
       pattern-bookkeeping fingerprint (sent counts, knowledge, edges,
       trips).  Under [Full] both are maintained incrementally by
       [apply]; under [Lazy] both are stale until [ensure_fps]
       memoizes the full folds on first demand ([fps_valid] says
       which). *)
    mutable bfp : F.t;
    mutable pfp : F.t;
    mutable fps_valid : bool;
    ctx : ctx;
  }

  (* ----- canonical fingerprints -----

     The fingerprint of a configuration is a commutative
     [Fingerprint.combine] (addition mod 2^64) of one contribution per
     independent fact: "processor [i] is in state [s]", "the buffer at
     [p] holds entry [e]", "the (sender, receiver) pair [idx] has sent
     [c] messages", and so on.  Each contribution is tagged with its
     field kind and key and passed through the SplitMix64 finalizer,
     so the sum is canonical — equal configurations have equal
     fingerprints however they were reached — and invertible, so
     [apply_exn] maintains it in O(1) per delta by subtracting the old
     contribution and adding the new one.  Contributions split into a
     behavioral sum [bfp] and a pattern-bookkeeping sum [pfp]: the
     former is the canonical hash for {!compare_behavioral}, their
     combination for {!compare_config}. *)

  let tag_n = 0x01
  and tag_input = 0x02
  and tag_state = 0x03
  and tag_failed = 0x04
  and tag_note = 0x05
  and tag_data = 0x06
  and tag_sent = 0x07
  and tag_know = 0x08
  and tag_edge = 0x09
  and tag_trip = 0x0a

  let fp_n n = F.feed (F.feed F.seed tag_n) n
  let fp_input i b = F.feed_bool (F.feed (F.feed F.seed tag_input) i) b
  let fp_state_at i h = F.feed (F.feed (F.feed F.seed tag_state) i) h
  let fp_failed_at i = F.feed (F.feed F.seed tag_failed) i

  let fp_entry p = function
    | Note q -> F.feed (F.feed (F.feed F.seed tag_note) p) q
    | Data { triple; payload } ->
      F.feed (F.feed (F.feed (F.feed F.seed tag_data) p) (Triple.fp triple)) (Hashtbl.hash payload)

  (* zero-count cells contribute nothing, so the n*n array is never
     walked on an update *)
  let fp_sent_at idx c = if c = 0 then F.zero else F.feed (F.feed (F.feed F.seed tag_sent) idx) c
  let fp_know_at p tr = F.feed (F.feed (F.feed F.seed tag_know) p) (Triple.fp tr)
  let fp_edge m1 m2 = F.feed (F.feed (F.feed F.seed tag_edge) (Triple.fp m1)) (Triple.fp m2)
  let fp_trip tr = F.feed (F.feed F.seed tag_trip) (Triple.fp tr)

  (* Full folds, used at [init] and by the consistency test suite;
     the hot path never calls these.  Note the explicit element-wise
     folds over [inputs], [failed] and [sent_count] — [Hashtbl.hash]
     samples only a bounded prefix of a structure, so hashing large
     arrays with it silently collides. *)
  let scratch_bfp ~n ~inputs ~states ~failed ~buffers =
    let acc = ref (fp_n n) in
    Array.iteri (fun i b -> acc := F.combine !acc (fp_input i b)) inputs;
    Array.iteri (fun i s -> acc := F.combine !acc (fp_state_at i (P.hash_state s))) states;
    Array.iteri (fun i f -> if f then acc := F.combine !acc (fp_failed_at i)) failed;
    Array.iteri
      (fun p buf -> List.iter (fun e -> acc := F.combine !acc (fp_entry p e)) buf)
      buffers;
    !acc

  (* [efp] is the edge fold, [scratch_efp] below *)
  let scratch_pfp ~sent_count ~knowledge ~efp ~trips =
    let acc = ref efp in
    Array.iteri (fun idx c -> acc := F.combine !acc (fp_sent_at idx c)) sent_count;
    Array.iteri
      (fun p ks ->
        List.iter (fun tr -> acc := F.combine !acc (fp_know_at p tr)) (Triple.Fset.elements ks))
      knowledge;
    List.iter (fun tr -> acc := F.combine !acc (fp_trip tr)) (Triple.Fset.elements trips);
    !acc

  (* folds [f] over a [Lazy] configuration's edges, one (cause, triple)
     pair at a time *)
  let fold_sends f acc c =
    List.fold_left
      (fun acc (triple, causes) -> List.fold_left (fun acc m1 -> f acc m1 triple) acc causes)
      acc c.sends

  (* [combine] is commutative, so folding the [Lazy] send list pair by
     pair gives the very word the [Full] set fold gives *)
  let scratch_efp c =
    match c.ctx.kind with
    | Full -> Pair_set.fold (fun (a, b) h -> F.combine h (fp_edge a b)) c.edges F.zero
    | Lazy -> fold_sends (fun h m1 m2 -> F.combine h (fp_edge m1 m2)) F.zero c

  (* the validated initial local states, shared by [init_with] and
     {!Flat.init} *)
  let initial_states ~n ~inputs =
    if not (P.valid_n n) then
      invalid_arg (Printf.sprintf "Engine.init: protocol %s does not support n = %d" P.name n);
    if List.length inputs <> n then
      invalid_arg "Engine.init: inputs length must equal n";
    let inputs = Array.of_list inputs in
    let states = Array.init n (fun i -> P.initial ~n ~me:i ~input:inputs.(i)) in
    Array.iteri
      (fun i s ->
        let st = P.status s in
        if st.Status.decision <> None || st.Status.amnesic || st.Status.halted then
          invalid_arg
            (Printf.sprintf
               "Engine.init: protocol %s starts p%d outside the initial states z_0/z_1" P.name i))
      states;
    (inputs, states)

  let init_with kind ~n ~inputs =
    let inputs, states = initial_states ~n ~inputs in
    let failed = Array.make n false in
    let buffers = Array.make n [] in
    let eager = kind = Full in
    let state_fps =
      if eager then Array.init n (fun i -> fp_state_at i (P.hash_state states.(i)))
      else Array.make n F.zero
    in
    (* a table the kind never interns into stays at one slot *)
    let table_size = if eager then 256 else 1 in
    {
      n;
      inputs;
      states;
      state_fps;
      failed;
      buffers;
      sent_count = Array.make (n * n) 0;
      knowledge = Array.make n Triple.Fset.empty;
      edges = Pair_set.empty;
      sends = [];
      efp = F.zero;
      efp_valid = true;
      trips = Triple.Fset.empty;
      bfp = (if eager then scratch_bfp ~n ~inputs ~states ~failed ~buffers else F.zero);
      pfp = F.zero;
      fps_valid = eager;
      ctx =
        {
          kind;
          sets = Intern.create ~size:table_size ~equal:Triple.Fset.equal ();
          states =
            Intern.create ~size:table_size ~equal:(fun a b -> P.compare_state a b = 0) ();
          edge_sets = Intern.create ~size:table_size ~equal:Pair_set.equal ();
        };
    }

  let init ~n ~inputs = init_with Full ~n ~inputs
  let init_untracked ~n ~inputs = init_with Lazy ~n ~inputs

  let n_of c = c.n
  let inputs_of c = Array.copy c.inputs
  let state_of c p = c.states.(p)
  let states_of c = Array.copy c.states
  let buffer_of c p = c.buffers.(p)
  let is_failed c p = c.failed.(p)
  let status_of c p = P.status c.states.(p)
  let statuses c = Array.map P.status c.states

  let decisions_of c =
    List.filter_map
      (fun p ->
        match (P.status c.states.(p)).Status.decision with
        | Some d -> Some (p, d)
        | None -> None)
      (Proc_id.all ~n:c.n)

  (* the edge set; a [Lazy] configuration builds it from its sends on
     every call, which only the pattern readers and tests make *)
  let edge_set c =
    match c.ctx.kind with
    | Full -> c.edges
    | Lazy -> fold_sends (fun acc m1 m2 -> Pair_set.add (m1, m2) acc) Pair_set.empty c

  let pattern_edges c = Pair_set.elements (edge_set c)

  (* Lazy fallback for [Lazy] configurations, mirroring [ensure_fps]
     below: the full fold over the sends runs on first demand and
     memoizes in place.  [Full] configurations always have [efp_valid]
     (the intern table needs the key eagerly) and are never mutated
     here, so sharing across domains is safe. *)
  let ensure_efp c =
    if not c.efp_valid then begin
      c.efp <- scratch_efp c;
      c.efp_valid <- true
    end;
    c.efp

  (* pattern identity without extraction: the fingerprint covers the
     triples and edges alone, and because both components are interned
     per root, structurally equal pairs are physically equal — so a
     caller can dedup terminal patterns before paying for
     [Pattern.make] *)
  let pattern_fp c = F.combine (Triple.Fset.fp c.trips) (ensure_efp c)

  let same_pattern_rep a b = a.trips == b.trips && a.edges == b.edges && a.sends == b.sends

  let triples_of c = Triple.Fset.elements c.trips

  let compare_entry a b =
    match (a, b) with
    | Note p, Note q -> Proc_id.compare p q
    | Note _, Data _ -> -1
    | Data _, Note _ -> 1
    | Data a, Data b ->
      let c = Triple.compare a.triple b.triple in
      if c <> 0 then c else P.compare_msg a.payload b.payload

  (* order differences between structurally equal multisets are rare,
     so try the raw order-sensitive comparison first and only pay for
     the two sorts when it disagrees *)
  let compare_buffer a b =
    if a == b then 0
    else if List.compare compare_entry a b = 0 then 0
    else List.compare compare_entry (List.sort compare_entry a) (List.sort compare_entry b)

  (* Sibling configurations share the array cells [apply_exn] did not
     touch, so a physical-equality check per element short-circuits
     most comparisons between related configurations. *)
  let compare_arrays cmp a b =
    let c = Int.compare (Array.length a) (Array.length b) in
    if c <> 0 then c
    else
      let rec loop i =
        if i = Array.length a then 0
        else
          let x = a.(i) and y = b.(i) in
          let c = if x == y then 0 else cmp x y in
          if c <> 0 then c else loop (i + 1)
      in
      loop 0

  (* Monomorphic scans: [Stdlib.compare] on arrays dispatches through
     the polymorphic comparator word by word, which shows up in the
     dedup-confirmation profile. *)
  let compare_int_array (a : int array) (b : int array) =
    let c = Int.compare (Array.length a) (Array.length b) in
    if c <> 0 then c
    else
      let rec loop i =
        if i = Array.length a then 0
        else
          let c = Int.compare a.(i) b.(i) in
          if c <> 0 then c else loop (i + 1)
      in
      loop 0

  let compare_bool_array (a : bool array) (b : bool array) =
    let c = Int.compare (Array.length a) (Array.length b) in
    if c <> 0 then c
    else
      let rec loop i =
        if i = Array.length a then 0
        else
          let c = Bool.compare a.(i) b.(i) in
          if c <> 0 then c else loop (i + 1)
      in
      loop 0

  let compare_behavioral a b =
    if a == b then 0
    else
      let c = Int.compare a.n b.n in
      if c <> 0 then c
      else
        let c = compare_bool_array a.inputs b.inputs in
        if c <> 0 then c
        else
          let c = compare_arrays P.compare_state a.states b.states in
          if c <> 0 then c
          else
            let c = compare_bool_array a.failed b.failed in
            if c <> 0 then c else compare_arrays compare_buffer a.buffers b.buffers

  let compare_config a b =
    if a == b then 0
    else
      let c = compare_behavioral a b in
      if c <> 0 then c
      else
        let c = compare_int_array a.sent_count b.sent_count in
        if c <> 0 then c
        else
          let c = compare_arrays Triple.Fset.compare a.knowledge b.knowledge in
          if c <> 0 then c
          else
            let c =
              if a.edges == b.edges && a.sends == b.sends then 0
              else Pair_set.compare (edge_set a) (edge_set b)
            in
            if c <> 0 then c else Triple.Fset.compare a.trips b.trips

  (* Lazy fallback for [Lazy] configurations: the full folds run on
     the first probe and the result is memoized in place.  [Lazy]
     configurations live inside linear single-domain runs, so the
     mutation is unshared; [Full] configurations are always valid and
     never mutated here. *)
  let ensure_fps c =
    if not c.fps_valid then begin
      c.bfp <-
        scratch_bfp ~n:c.n ~inputs:c.inputs ~states:c.states ~failed:c.failed
          ~buffers:c.buffers;
      c.pfp <-
        scratch_pfp ~sent_count:c.sent_count ~knowledge:c.knowledge ~efp:(ensure_efp c)
          ~trips:c.trips;
      c.fps_valid <- true
    end

  let fingerprint c =
    ensure_fps c;
    F.combine c.bfp c.pfp

  let behavioral_fingerprint c =
    ensure_fps c;
    c.bfp

  let fingerprint_from_scratch c =
    F.combine
      (scratch_bfp ~n:c.n ~inputs:c.inputs ~states:c.states ~failed:c.failed ~buffers:c.buffers)
      (scratch_pfp ~sent_count:c.sent_count ~knowledge:c.knowledge ~efp:(scratch_efp c)
         ~trips:c.trips)

  let intern_bindings c =
    Intern.bindings c.ctx.sets + Intern.bindings c.ctx.states
    + Intern.bindings c.ctx.edge_sets
  let hash_behavioral c = F.to_int (behavioral_fingerprint c)
  let hash_config c = F.to_int (fingerprint c)

  let pp_entry ppf = function
    | Note p -> Format.fprintf ppf "failed(%a)" Proc_id.pp p
    | Data { triple; payload } -> Format.fprintf ppf "%a:%a" Triple.pp triple P.pp_msg payload

  let pp_entry_sep ppf () = Format.fprintf ppf "; "

  (* one line per processor; [pp_buffer ppf p] prints [p]'s buffer *)
  let pp_rows ppf ~n ~failed ~states pp_buffer =
    Format.fprintf ppf "@[<v>";
    for p = 0 to n - 1 do
      Format.fprintf ppf "%a%s: %a  [%a]  buf=[%a]@,"
        Proc_id.pp p
        (if failed.(p) then "(failed)" else "")
        P.pp_state states.(p) Status.pp (P.status states.(p))
        pp_buffer p
    done;
    Format.fprintf ppf "@]"

  let pp_config ppf c =
    pp_rows ppf ~n:c.n ~failed:c.failed ~states:c.states (fun ppf p ->
        Format.pp_print_list ~pp_sep:pp_entry_sep pp_entry ppf c.buffers.(p))

  (* ----- applicability ----- *)

  let proc_actions ~fifo_notices c p =
    if c.failed.(p) then []
    else
      match P.step_kind c.states.(p) with
      | Step_kind.Quiescent -> []
      | Step_kind.Sending -> [ Action.Send_step p ]
      | Step_kind.Receiving ->
        let buffer = c.buffers.(p) in
        let data_from q =
          List.exists
            (function Data { triple; _ } -> Proc_id.equal triple.Triple.sender q | Note _ -> false)
            buffer
        in
        List.concat
          (List.mapi
             (fun index e ->
               match e with
               | Data _ -> [ Action.Deliver { at = p; index } ]
               | Note q ->
                 if fifo_notices && data_from q then [] else [ Action.Deliver { at = p; index } ])
             buffer)

  let applicable ?(fifo_notices = false) c =
    List.concat_map (proc_actions ~fifo_notices c) (Proc_id.all ~n:c.n)

  let failure_actions c =
    List.filter_map
      (fun p -> if c.failed.(p) then None else Some (Action.Fail p))
      (Proc_id.all ~n:c.n)

  let quiescent c = applicable c = []

  (* ----- transitions ----- *)

  let status_events ~step p before after =
    let evs = ref [] in
    (match (before.Status.decision, after.Status.decision) with
    | None, Some d when not before.Status.amnesic ->
      evs := Trace.Decided { step; proc = p; decision = d } :: !evs
    | _ -> ());
    if (not before.Status.amnesic) && after.Status.amnesic then
      evs := Trace.Became_amnesic { step; proc = p } :: !evs;
    if (not before.Status.halted) && after.Status.halted then
      evs := Trace.Halted { step; proc = p } :: !evs;
    List.rev !evs

  (* The refusals [apply] and {!Flat.step} share, word for word.
     [refusal] is the guard both run before touching a configuration,
     in the order it is checked; [None] means the action passes it.
     The helpers are inlined: as calls they slowed the hunts, which
     step untracked configurations (EXPERIMENTS.md, "the flat
     step"). *)
  let out_of_range what p = Some (Printf.sprintf "%s: p%d out of range" what p)

  let[@inline] refusal ~n ~failed ~states = function
    | Action.Send_step p ->
      if p < 0 || p >= n then out_of_range "send" p
      else if failed.(p) then Some (Printf.sprintf "send: p%d has failed" p)
      else if not (Step_kind.equal (P.step_kind states.(p)) Step_kind.Sending) then
        Some (Printf.sprintf "send: p%d is not in a sending state" p)
      else None
    | Action.Deliver { at; _ } ->
      if at < 0 || at >= n then out_of_range "deliver" at
      else if failed.(at) then Some (Printf.sprintf "deliver: p%d has failed" at)
      else if not (Step_kind.equal (P.step_kind states.(at)) Step_kind.Receiving) then
        Some (Printf.sprintf "deliver: p%d is not in a receiving state" at)
      else None
    | Action.Fail p ->
      if p < 0 || p >= n then out_of_range "fail" p
      else if failed.(p) then Some (Printf.sprintf "fail: p%d has already failed" p)
      else None
    | Action.Drop { at; _ } -> if at < 0 || at >= n then out_of_range "drop" at else None

  let transition_error p before after =
    Format.asprintf "protocol %s violated a status invariant at %a: %a -> %a" P.name Proc_id.pp
      p Status.pp before Status.pp after

  let[@inline] destination_error ~n p dst =
    if Proc_id.equal dst p then
      Some (Printf.sprintf "protocol %s: %s tried to send to itself" P.name (Proc_id.to_string p))
    else if dst < 0 || dst >= n then
      Some (Printf.sprintf "protocol %s: destination p%d out of range" P.name dst)
    else None

  let no_entry what p index = Printf.sprintf "%s: no buffer entry #%d at p%d" what index p

  (* route a freshly built set through the per-root intern table:
     schedules that reassemble the same set share one physical copy *)
  let interned c fs =
    match c.ctx.kind with
    | Full -> Intern.intern c.ctx.sets ~fp:(Triple.Fset.fp fs) fs
    | Lazy -> fs

  (* Installs [p]'s new local state in [states], a fresh copy of
     [c.states], and returns the matching [state_fps] and [bfp].
     Under [Full] the state is hash-consed: schedules that drive a
     processor to the same local state share one physical copy, so
     the physical-equality fast path in [compare_arrays] settles
     almost every dedup confirmation without calling
     [P.compare_state].  The intern key reuses the [P.hash_state] word
     the fingerprint update needs anyway. *)
  let install_state c states p state' =
    match c.ctx.kind with
    | Lazy ->
      states.(p) <- state';
      (c.state_fps, F.zero)
    | Full ->
      let h' = P.hash_state state' in
      let word = fp_state_at p h' in
      let state_fps = Array.copy c.state_fps in
      let bfp = F.combine (F.remove c.bfp state_fps.(p)) word in
      state_fps.(p) <- word;
      states.(p) <- Intern.intern c.ctx.states ~fp:(F.of_int h') state';
      (state_fps, bfp)

  (* the knowledge array after [p] sends the freshly minted [triple];
     the send's causes are [p]'s knowledge before it *)
  let learn c p triple =
    let knowledge = Array.copy c.knowledge in
    knowledge.(p) <- interned c (Triple.Fset.add_new triple knowledge.(p));
    knowledge

  let apply_send ~step c p =
    let before = P.status c.states.(p) in
    let outgoing, state' = P.send ~n:c.n ~me:p c.states.(p) in
    let after = P.status state' in
    if not (Status.transition_ok before after) then Error (transition_error p before after)
    else
      let kind = c.ctx.kind in
      let states = Array.copy c.states in
      let state_fps, bfp = install_state c states p state' in
      let flips = status_events ~step p before after in
      match outgoing with
      | None ->
        Ok
          ( { c with states; state_fps; bfp; fps_valid = kind = Full },
            Trace.Null_step { step; proc = p } :: flips )
      | Some (dst, payload) -> (
        match destination_error ~n:c.n p dst with
        | Some e -> Error e
        | None -> (
          let idx = (p * c.n) + dst in
          let sent_count = Array.copy c.sent_count in
          let old_count = sent_count.(idx) in
          sent_count.(idx) <- old_count + 1;
          let triple = Triple.make ~sender:p ~receiver:dst ~index:sent_count.(idx) in
          let entry = Data { triple; payload } in
          let buffers = Array.copy c.buffers in
          buffers.(dst) <- buffers.(dst) @ [ entry ];
          let causes = Triple.Fset.elements c.knowledge.(p) in
          let knowledge = learn c p triple in
          match kind with
          | Full ->
            (* the triple's index was just minted, so every add below is
               a real insertion and contributes to the fingerprint
               exactly once *)
            let efp = List.fold_left (fun h m1 -> F.combine h (fp_edge m1 triple)) c.efp causes in
            let edges =
              let edges =
                List.fold_left (fun acc m1 -> Pair_set.add (m1, triple) acc) c.edges causes
              in
              Intern.intern c.ctx.edge_sets ~fp:efp edges
            in
            let bfp = F.combine bfp (fp_entry dst entry) in
            let pfp =
              F.combine (F.remove c.pfp (fp_sent_at idx old_count)) (fp_sent_at idx (old_count + 1))
            in
            let pfp = F.combine pfp (fp_know_at p triple) in
            let pfp = F.combine pfp (F.remove efp c.efp) in
            let pfp = F.combine pfp (fp_trip triple) in
            Ok
              ( { c with states; state_fps; sent_count; knowledge; edges; efp; buffers;
                  trips = interned c (Triple.Fset.add_new triple c.trips); bfp; pfp },
                Trace.Sent { step; triple; payload; causes } :: flips )
          | Lazy ->
            (* no fingerprint upkeep and no edge set: the send joins
               [sends] with the causes its event carries, and the edges
               and both fingerprints are folded from there on demand *)
            Ok
              ( { c with states; sent_count; knowledge; sends = (triple, causes) :: c.sends;
                  efp_valid = false; buffers; trips = Triple.Fset.add_new triple c.trips;
                  fps_valid = false },
                Trace.Sent { step; triple; payload; causes } :: flips )))

  (* [List.nth_opt] raises on a negative index *)
  let[@inline] buffered c p index = if index < 0 then None else List.nth_opt c.buffers.(p) index

  let apply_deliver ~step c p index =
    match buffered c p index with
    | None -> Error (no_entry "deliver" p index)
    | Some entry ->
      let incoming, delivered_event, knowledge, know_delta =
        match entry with
        | Note about ->
          ( Incoming.Failed about,
            Trace.Delivered_note { step; at = p; about },
            c.knowledge,
            F.zero )
        | Data { triple; payload } ->
          let knowledge = Array.copy c.knowledge in
          (* the triple was sent to [p] exactly once and [p] is not its
             sender, so this is a real insertion *)
          knowledge.(p) <- interned c (Triple.Fset.add_new triple knowledge.(p));
          ( Incoming.Msg { from = triple.Triple.sender; payload },
            Trace.Delivered_msg { step; triple; payload },
            knowledge,
            fp_know_at p triple )
      in
      let before = P.status c.states.(p) in
      let state' = P.receive ~n:c.n ~me:p c.states.(p) incoming in
      let after = P.status state' in
      if not (Status.transition_ok before after) then Error (transition_error p before after)
      else
        let states = Array.copy c.states in
        let state_fps, bfp = install_state c states p state' in
        let bfp, pfp =
          match c.ctx.kind with
          | Full -> (F.remove bfp (fp_entry p entry), F.combine c.pfp know_delta)
          | Lazy -> (F.zero, F.zero)
        in
        let buffers = Array.copy c.buffers in
        buffers.(p) <- List.filteri (fun i _ -> i <> index) buffers.(p);
        let flips = status_events ~step p before after in
        Ok
          ( { c with
              states; state_fps; buffers; knowledge; bfp; pfp; fps_valid = c.ctx.kind = Full },
            delivered_event :: flips )

  let apply_fail ~step c p =
    let eager = c.ctx.kind = Full in
    let failed = Array.copy c.failed in
    failed.(p) <- true;
    let buffers = Array.copy c.buffers in
    let bfp =
      List.fold_left
        (fun h q ->
          buffers.(q) <- buffers.(q) @ [ Note p ];
          if eager then F.combine h (fp_entry q (Note p)) else h)
        (if eager then F.combine c.bfp (fp_failed_at p) else F.zero)
        (Proc_id.others ~n:c.n p)
    in
    Ok
      ( { c with failed; buffers; bfp; fps_valid = eager },
        [ Trace.Failed_proc { step; proc = p } ] )

  (* Receive omission: the entry vanishes from the buffer with no
     other effect — no state change, no knowledge, no notice.  The
     behavioral delta is the exact inverse of the buffer-append half
     of [apply_send], so the incremental fingerprint invariants carry
     over unchanged.  Failure notices cannot be dropped (they are a
     modelling device, not network traffic), and a failed receiver is
     fine: the drop is a network event, not a step of the victim. *)
  let apply_drop ~step c p index =
    match buffered c p index with
    | None -> Error (no_entry "drop" p index)
    | Some (Note _) -> Error (Printf.sprintf "drop: entry #%d at p%d is a failure notice" index p)
    | Some (Data { triple; payload } as entry) ->
      let eager = c.ctx.kind = Full in
      let buffers = Array.copy c.buffers in
      buffers.(p) <- List.filteri (fun i _ -> i <> index) buffers.(p);
      let bfp = if eager then F.remove c.bfp (fp_entry p entry) else F.zero in
      Ok
        ( { c with buffers; bfp; fps_valid = eager },
          [ Trace.Dropped_msg { step; triple; payload } ] )

  let apply ~step c action =
    match refusal ~n:c.n ~failed:c.failed ~states:c.states action with
    | Some e -> Error e
    | None -> (
      match action with
      | Action.Send_step p -> apply_send ~step c p
      | Action.Deliver { at; index } -> apply_deliver ~step c at index
      | Action.Fail p -> apply_fail ~step c p
      | Action.Drop { at; index } -> apply_drop ~step c at index)

  let apply_exn ~step c action =
    match apply ~step c action with
    | Ok r -> r
    | Error e -> failwith (Format.asprintf "Engine.apply %a: %s" Action.pp action e)

  (* ----- the flat behaviour-only configuration -----

     Exhaustive searches over behavioural configurations (Explore,
     the concurrency sets) read local states, failure flags and buffer
     multisets, and dedup on the behavioural fingerprint.  A [Flat.t]
     holds exactly that, and its [step] builds nothing else: no trace
     events, no [result], no list copies of a buffer.  Each field
     carries the value [config]'s field of the same name would, so the
     fingerprint words are [config]'s bit for bit (test_fingerprint's
     flat-step oracle walks both side by side). *)
  module Flat = struct
    (* what every configuration under one root shares: its size, its
       inputs and the state intern table *)
    type root = { n : int; inputs : bool array; interned : P.state Intern.t }

    type t = {
      states : P.state array;  (* interned per root, the initial ones aside *)
      state_fps : F.t array;
      failed : bool array;
      buffers : entry array array;  (* per receiver, arrival order *)
      sent_count : int array;  (* flattened n*n; mints the message indices *)
      bfp : F.t;
      root : root;
    }

    type stepped = Next of t * int | Refused of string

    let init ~n ~inputs =
      let inputs, states = initial_states ~n ~inputs in
      let failed = Array.make n false in
      {
        states;
        state_fps = Array.init n (fun i -> fp_state_at i (P.hash_state states.(i)));
        failed;
        buffers = Array.make n [||];
        sent_count = Array.make (n * n) 0;
        bfp = scratch_bfp ~n ~inputs ~states ~failed ~buffers:(Array.make n []);
        root =
          {
            n;
            inputs;
            interned = Intern.create ~equal:(fun a b -> P.compare_state a b = 0) ();
          };
      }

    let n_of c = c.root.n
    let state_of c p = c.states.(p)
    let status_of c p = P.status c.states.(p)
    let is_failed c p = c.failed.(p)
    let fingerprint c = c.bfp
    let intern_bindings c = Intern.bindings c.root.interned

    let pp ppf c =
      pp_rows ppf ~n:c.root.n ~failed:c.failed ~states:c.states (fun ppf p ->
          Format.pp_print_array ~pp_sep:pp_entry_sep pp_entry ppf c.buffers.(p))

    (* as [compare_buffer]: the order-sensitive scan first, the sorts
       only when it disagrees *)
    let compare_buffer a b =
      if a == b then 0
      else if compare_arrays compare_entry a b = 0 then 0
      else
        let sorted x =
          let x = Array.copy x in
          Array.sort compare_entry x;
          x
        in
        compare_arrays compare_entry (sorted a) (sorted b)

    let compare a b =
      if a == b then 0
      else
        let c = Int.compare a.root.n b.root.n in
        if c <> 0 then c
        else
          let c =
            if a.root == b.root then 0 else compare_bool_array a.root.inputs b.root.inputs
          in
          if c <> 0 then c
          else
            let c = compare_arrays P.compare_state a.states b.states in
            if c <> 0 then c
            else
              let c = compare_bool_array a.failed b.failed in
              if c <> 0 then c else compare_arrays compare_buffer a.buffers b.buffers

    (* Both lists are consed back to front, so they come out in
       [config]'s order without a reversal. *)
    let applicable ?(fifo_notices = false) c =
      let data_from buffer q =
        Array.exists
          (function Data { triple; _ } -> Proc_id.equal triple.Triple.sender q | Note _ -> false)
          buffer
      in
      let acc = ref [] in
      for p = c.root.n - 1 downto 0 do
        if not c.failed.(p) then
          match P.step_kind c.states.(p) with
          | Step_kind.Quiescent -> ()
          | Step_kind.Sending -> acc := Action.Send_step p :: !acc
          | Step_kind.Receiving ->
            let buffer = c.buffers.(p) in
            for index = Array.length buffer - 1 downto 0 do
              match buffer.(index) with
              | Note q when fifo_notices && data_from buffer q -> ()
              | Data _ | Note _ -> acc := Action.Deliver { at = p; index } :: !acc
            done
      done;
      !acc

    let failure_actions c =
      let acc = ref [] in
      for p = c.root.n - 1 downto 0 do
        if not c.failed.(p) then acc := Action.Fail p :: !acc
      done;
      !acc

    let snoc a x =
      let len = Array.length a in
      let b = Array.make (len + 1) x in
      Array.blit a 0 b 0 len;
      b

    let remove_at a i =
      let len = Array.length a in
      if len = 1 then [||]
      else
        let b = Array.make (len - 1) a.(0) in
        Array.blit a 0 b 0 i;
        Array.blit a (i + 1) b i (len - 1 - i);
        b

    (* the code of the first decision a step gave its processor, as
       [apply]'s [Decided] event reports it: 1 commit, 2 abort, 0 none *)
    let decision_code before after =
      if before.Status.amnesic then 0
      else
        match (before.Status.decision, after.Status.decision) with
        | None, Some Decision.Commit -> 1
        | None, Some Decision.Abort -> 2
        | _ -> 0

    (* the successor with [p] in [state'], interned, on top of the
       buffers, send counts and fingerprint [bfp] the step produced *)
    let install c p state' ~buffers ~sent_count ~bfp =
      let h' = P.hash_state state' in
      let word = fp_state_at p h' in
      let states = Array.copy c.states and state_fps = Array.copy c.state_fps in
      states.(p) <- Intern.intern c.root.interned ~fp:(F.of_int h') state';
      state_fps.(p) <- word;
      {
        c with
        states;
        state_fps;
        buffers;
        sent_count;
        bfp = F.combine (F.remove bfp c.state_fps.(p)) word;
      }

    let send c p =
      let n = c.root.n in
      let before = P.status c.states.(p) in
      let outgoing, state' = P.send ~n ~me:p c.states.(p) in
      let after = P.status state' in
      if not (Status.transition_ok before after) then Refused (transition_error p before after)
      else
        match outgoing with
        | None ->
          Next
            ( install c p state' ~buffers:c.buffers ~sent_count:c.sent_count ~bfp:c.bfp,
              decision_code before after )
        | Some (dst, payload) -> (
          match destination_error ~n p dst with
          | Some e -> Refused e
          | None ->
            let idx = (p * n) + dst in
            let sent_count = Array.copy c.sent_count in
            sent_count.(idx) <- sent_count.(idx) + 1;
            let entry =
              Data { triple = Triple.make ~sender:p ~receiver:dst ~index:sent_count.(idx); payload }
            in
            let buffers = Array.copy c.buffers in
            buffers.(dst) <- snoc c.buffers.(dst) entry;
            Next
              ( install c p state' ~buffers ~sent_count ~bfp:(F.combine c.bfp (fp_entry dst entry)),
                decision_code before after ))

    let deliver c p index =
      let buffer = c.buffers.(p) in
      if index < 0 || index >= Array.length buffer then Refused (no_entry "deliver" p index)
      else
        let entry = buffer.(index) in
        let incoming =
          match entry with
          | Note about -> Incoming.Failed about
          | Data { triple; payload } -> Incoming.Msg { from = triple.Triple.sender; payload }
        in
        let before = P.status c.states.(p) in
        let state' = P.receive ~n:c.root.n ~me:p c.states.(p) incoming in
        let after = P.status state' in
        if not (Status.transition_ok before after) then Refused (transition_error p before after)
        else
          let buffers = Array.copy c.buffers in
          buffers.(p) <- remove_at buffer index;
          Next
            ( install c p state' ~buffers ~sent_count:c.sent_count
                ~bfp:(F.remove c.bfp (fp_entry p entry)),
              decision_code before after )

    let fail c p =
      let failed = Array.copy c.failed in
      failed.(p) <- true;
      let buffers = Array.copy c.buffers in
      let note = Note p in
      let bfp = ref (F.combine c.bfp (fp_failed_at p)) in
      for q = 0 to c.root.n - 1 do
        if q <> p then begin
          buffers.(q) <- snoc buffers.(q) note;
          bfp := F.combine !bfp (fp_entry q note)
        end
      done;
      Next ({ c with failed; buffers; bfp = !bfp }, 0)

    let step c action =
      match refusal ~n:c.root.n ~failed:c.failed ~states:c.states action with
      | Some e -> Refused e
      | None -> (
        match action with
        | Action.Send_step p -> send c p
        | Action.Deliver { at; index } -> deliver c at index
        | Action.Fail p -> fail c p
        | Action.Drop _ -> Refused "drop: a receive omission is not a search step")
  end

  (* ----- schedulers ----- *)

  type scheduler = step:int -> config -> Action.t list -> Action.t option

  let fifo_scheduler ~step:_ _c = function [] -> None | a :: _ -> Some a

  let round_robin_scheduler ~step c actions =
    match actions with
    | [] -> None
    | _ ->
      let start = step mod c.n in
      let pid = function
        | Action.Send_step p | Action.Deliver { at = p; _ } | Action.Fail p
        | Action.Drop { at = p; _ } -> p
      in
      let rotated p = (p - start + c.n) mod c.n in
      let best =
        List.fold_left
          (fun acc a ->
            match acc with
            | None -> Some a
            | Some b -> if rotated (pid a) < rotated (pid b) then Some a else Some b)
          None actions
      in
      best

  let random_scheduler prng ~step:_ _c = function
    | [] -> None
    | actions -> Some (Prng.pick prng actions)

  let notice_first_scheduler prng ~step:_ c actions =
    match actions with
    | [] -> None
    | _ ->
      let is_notice = function
        | Action.Deliver { at; index } -> (
          match List.nth_opt c.buffers.(at) index with
          | Some (Note _) -> true
          | Some (Data _) | None -> false)
        | Action.Send_step _ | Action.Fail _ | Action.Drop _ -> false
      in
      let notices = List.filter is_notice actions in
      Some (Prng.pick prng (if notices = [] then actions else notices))

  let lifo_scheduler ~step:_ _c actions =
    match List.rev actions with [] -> None | a :: _ -> Some a

  type run_result = {
    final : config;
    trace : P.msg Trace.t;
    steps : int;
    quiescent : bool;
  }

  (* The one run loop, shared by {!run}, {!run_prefix} and {!resume}:
     the order of the guards (step cap, pending failure, pending drop,
     the scheduler) is the observable semantics, so factoring it out
     is what makes a resumed run provably identical to a fresh one.
     [snap] is invoked once per loop entry with the configuration and
     reversed trace {e before} the step is taken — successive reversed
     traces share their tails, so recording every boundary is O(steps)
     extra memory, not O(steps^2).

     [faults0] carries the omission faults ({!Fault.Drop},
     {!Fault.Send_omit}); crashes stay in the [(step, victim)] list so
     the fail-stop path is bit-identical to what it always was.  A due
     [Drop] fires as soon as its victim holds a buffered message
     (consuming the oldest one); a due [Send_omit] piggybacks on the
     victim's next sending step that actually emits, discarding the
     freshly buffered copy in the same loop iteration.  Faults are
     one-shot: each list element fires at most once. *)
  let remove_one f faults =
    let rec go acc = function
      | [] -> List.rev acc
      | g :: rest -> if Fault.equal f g then List.rev_append acc rest else go (g :: acc) rest
    in
    go [] faults

  let first_data_index buffer =
    Listx.find_index (function Data _ -> true | Note _ -> false) buffer

  let run_loop ~max_steps ~fifo_notices ~scheduler ~snap c0 step0 rev_trace0 failures0
      faults0 =
    let due_drop c step faults =
      List.find_opt
        (fun (f : Fault.t) ->
          (match f.Fault.kind with Fault.Drop -> true | Fault.Crash | Fault.Send_omit -> false)
          && f.Fault.step <= step
          && first_data_index c.buffers.(f.Fault.victim) <> None)
        faults
    in
    let rec loop c step rev_trace pending_failures pending_faults =
      (match snap with Some f -> f c rev_trace | None -> ());
      if step >= max_steps then
        { final = c; trace = List.rev rev_trace; steps = step; quiescent = false }
      else
        match
          List.find_opt (fun (k, p) -> k <= step && not (is_failed c p)) pending_failures
        with
        | Some (_, p) ->
          let c', evs = apply_exn ~step c (Action.Fail p) in
          loop c' (step + 1) (List.rev_append evs rev_trace)
            (List.filter (fun (_, q) -> q <> p) pending_failures)
            pending_faults
        | None -> (
          match due_drop c step pending_faults with
          | Some f ->
            let index =
              match first_data_index c.buffers.(f.Fault.victim) with
              | Some i -> i
              | None -> assert false
            in
            let c', evs = apply_exn ~step c (Action.Drop { at = f.Fault.victim; index }) in
            loop c' (step + 1) (List.rev_append evs rev_trace) pending_failures
              (remove_one f pending_faults)
          | None -> (
            let actions = applicable ~fifo_notices c in
            match scheduler ~step c actions with
            | None ->
              { final = c; trace = List.rev rev_trace; steps = step; quiescent = actions = [] }
            | Some a ->
              let c', evs = apply_exn ~step c a in
              let c', evs, pending_faults =
                match a with
                | Action.Send_step p -> (
                  let sent_to =
                    List.find_map
                      (function
                        | Trace.Sent { triple; _ } -> Some triple.Triple.receiver
                        | _ -> None)
                      evs
                  in
                  let omit =
                    List.find_opt
                      (fun (f : Fault.t) ->
                        (match f.Fault.kind with
                        | Fault.Send_omit -> true
                        | Fault.Crash | Fault.Drop -> false)
                        && f.Fault.step <= step
                        && Proc_id.equal f.Fault.victim p)
                      pending_faults
                  in
                  match (sent_to, omit) with
                  | Some dst, Some f ->
                    let index = List.length c'.buffers.(dst) - 1 in
                    let c'', evs' = apply_exn ~step c' (Action.Drop { at = dst; index }) in
                    (c'', evs @ evs', remove_one f pending_faults)
                  | _ -> (c', evs, pending_faults))
                | Action.Deliver _ | Action.Fail _ | Action.Drop _ ->
                  (c', evs, pending_faults)
              in
              loop c' (step + 1) (List.rev_append evs rev_trace) pending_failures
                pending_faults))
    in
    loop c0 step0 rev_trace0 failures0 faults0

  (* Linear runs attach no visited store, so they carry untracked
     configurations: no hashing, no fingerprint deltas, no interning,
     no edge set — the fingerprints are recomputed lazily in the
     (unusual) case someone probes the final configuration. *)
  (* A [Fault.Crash] passed via [faults] joins the [(step, victim)]
     crash list, so the two entry points cannot disagree on fail-stop
     semantics; omission faults stay in their own pending list. *)
  let split_faults faults =
    List.partition_map
      (fun (f : Fault.t) ->
        match f.Fault.kind with
        | Fault.Crash -> Left (f.Fault.step, f.Fault.victim)
        | Fault.Drop | Fault.Send_omit -> Right f)
      faults

  let run ?(max_steps = 100_000) ?(failures = []) ?(faults = []) ?(fifo_notices = false)
      ~scheduler ~n ~inputs () =
    let crash_faults, omission_faults = split_faults faults in
    run_loop ~max_steps ~fifo_notices ~scheduler ~snap:None (init_with Lazy ~n ~inputs) 0 []
      (failures @ crash_faults)
      omission_faults

  (* ----- memoized failure-free prefixes -----

     A systematic fault plan's run equals the failure-free run of the
     same (scheduler, inputs) up to the plan's earliest crash step:
     the run loop fires no failure while every pending (k, p) has
     k > step, and the schedulers used by the systematic adversary are
     pure functions of (step, config, actions).  So the failure-free
     run can be computed once per (scheduler, inputs), its per-step
     configurations recorded, and every plan resumed from the snapshot
     at its earliest crash step — or answered outright when all its
     crashes land past the failure-free run's end (a run that stopped
     at step q with no failure at k <= q never fires one at k > q). *)

  type prefix = {
    (* snapshots.(s) = (configuration entering step s, reversed trace
       so far); length [ff.steps + 1], index [ff.steps] is the final
       state *)
    snapshots : (config * P.msg Trace.event list) array;
    ff : run_result;  (* the failure-free run itself *)
  }

  let run_prefix ?(max_steps = 100_000) ?(fifo_notices = false) ~scheduler ~n ~inputs ()
      =
    let snaps = ref [] in
    let snap c rev_trace = snaps := (c, rev_trace) :: !snaps in
    let ff =
      run_loop ~max_steps ~fifo_notices ~scheduler ~snap:(Some snap)
        (init_with Lazy ~n ~inputs)
        0 [] [] []
    in
    { snapshots = Array.of_list (List.rev !snaps); ff }

  let prefix_result prefix = prefix.ff

  (* [resume] must be given the same [max_steps], [fifo_notices] and
     [scheduler] the prefix was recorded under; the result is then
     bit-identical to [run ~failures] (pinned by the adversary's
     memo-vs-replay tests).  The returned number is the resume step —
     engine steps answered from the memo instead of re-executed. *)
  let resume ?(max_steps = 100_000) ?(fifo_notices = false) ~scheduler ~failures
      ?(faults = []) ~prefix () =
    let crash_faults, omission_faults = split_faults faults in
    let failures = failures @ crash_faults in
    let q = prefix.ff.steps in
    let min_k = List.fold_left (fun acc (k, _) -> min acc k) max_int failures in
    let min_k =
      List.fold_left (fun acc (f : Fault.t) -> min acc f.Fault.step) min_k omission_faults
    in
    (* a drop pending at step k cannot fire before k, and a send-omit
       cannot either, so the run equals the failure-free prefix up to
       the earliest fault step — the memo argument is unchanged *)
    if min_k > q then (prefix.ff, q)
    else
      let c, rev_trace = prefix.snapshots.(min_k) in
      ( run_loop ~max_steps ~fifo_notices ~scheduler ~snap:None c min_k rev_trace failures
          omission_faults,
        min_k )

  (* ----- scripted replays ----- *)

  type directive = Script.directive =
    | Step_of of Proc_id.t
    | Deliver_from of Proc_id.t * Proc_id.t
    | Deliver_msg of { at : Proc_id.t; from : Proc_id.t; index : int }
    | Deliver_note of Proc_id.t * Proc_id.t
    | Drop_msg of { at : Proc_id.t; from : Proc_id.t; index : int }
    | Fail_now of Proc_id.t
    | Drain of Proc_id.t
    | Flush_fifo

  let pp_directive = Script.pp

  let find_entry c at pred =
    Listx.find_index pred c.buffers.(at)

  let play c directives =
    let flush_cap = 100_000 in
    (* [pos] is the directive's 1-based position in the script, so a
       failure names exactly which line of a long certificate script
       went wrong *)
    let rec exec c step rev_trace pos = function
      | [] -> Ok (c, List.rev rev_trace)
      | d :: rest -> (
        let fail_d msg =
          Error (Format.asprintf "directive #%d [%a] failed: %s" pos pp_directive d msg)
        in
        let continue c' step evs rev_trace =
          exec c' (step + 1) (List.rev_append evs rev_trace) (pos + 1) rest
        in
        match d with
        | Step_of p -> (
          match apply ~step c (Action.Send_step p) with
          | Error e -> fail_d e
          | Ok (c', evs) -> continue c' step evs rev_trace)
        | Deliver_from (at, from) -> (
          let pred = function
            | Data { triple; _ } -> Proc_id.equal triple.Triple.sender from
            | Note _ -> false
          in
          match find_entry c at pred with
          | None -> fail_d (Printf.sprintf "no message from p%d buffered at p%d" from at)
          | Some index -> (
            match apply ~step c (Action.Deliver { at; index }) with
            | Error e -> fail_d e
            | Ok (c', evs) -> continue c' step evs rev_trace))
        | Deliver_msg { at; from; index } -> (
          let pred = function
            | Data { triple; _ } ->
              Proc_id.equal triple.Triple.sender from && triple.Triple.index = index
            | Note _ -> false
          in
          match find_entry c at pred with
          | None ->
            fail_d (Printf.sprintf "no message p%d->p%d#%d buffered at p%d" from at index at)
          | Some buffer_index -> (
            match apply ~step c (Action.Deliver { at; index = buffer_index }) with
            | Error e -> fail_d e
            | Ok (c', evs) -> continue c' step evs rev_trace))
        | Deliver_note (at, about) -> (
          let pred = function Note q -> Proc_id.equal q about | Data _ -> false in
          match find_entry c at pred with
          | None -> fail_d (Printf.sprintf "no failure notice about p%d buffered at p%d" about at)
          | Some index -> (
            match apply ~step c (Action.Deliver { at; index }) with
            | Error e -> fail_d e
            | Ok (c', evs) -> continue c' step evs rev_trace))
        | Drop_msg { at; from; index } -> (
          let pred = function
            | Data { triple; _ } ->
              Proc_id.equal triple.Triple.sender from && triple.Triple.index = index
            | Note _ -> false
          in
          match find_entry c at pred with
          | None ->
            fail_d (Printf.sprintf "no message p%d->p%d#%d buffered at p%d" from at index at)
          | Some buffer_index -> (
            match apply ~step c (Action.Drop { at; index = buffer_index }) with
            | Error e -> fail_d e
            | Ok (c', evs) -> continue c' step evs rev_trace))
        | Fail_now p -> (
          match apply ~step c (Action.Fail p) with
          | Error e -> fail_d e
          | Ok (c', evs) -> continue c' step evs rev_trace)
        | Drain p ->
          let rec drain c step rev_trace budget =
            if budget = 0 then fail_d "drain did not terminate"
            else if
              (not (is_failed c p))
              && Step_kind.equal (P.step_kind c.states.(p)) Step_kind.Sending
            then
              match apply ~step c (Action.Send_step p) with
              | Error e -> fail_d e
              | Ok (c', evs) -> drain c' (step + 1) (List.rev_append evs rev_trace) (budget - 1)
            else exec c step rev_trace (pos + 1) rest
          in
          drain c step rev_trace flush_cap
        | Flush_fifo ->
          let rec flush c step rev_trace budget =
            if budget = 0 then fail_d "flush did not reach quiescence"
            else
              match applicable c with
              | [] -> exec c step rev_trace (pos + 1) rest
              | a :: _ -> (
                match apply ~step c a with
                | Error e -> fail_d e
                | Ok (c', evs) -> flush c' (step + 1) (List.rev_append evs rev_trace) (budget - 1))
          in
          flush c step rev_trace flush_cap)
    in
    exec c 0 [] 1 directives

  let play_exn c directives =
    match play c directives with Ok r -> r | Error e -> failwith e
end
