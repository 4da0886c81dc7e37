open Patterns_sim

type nmsg = Bit of bool | Decision_msg of Decision.t

let compare_nmsg a b =
  match (a, b) with
  | Bit x, Bit y -> Bool.compare x y
  | Decision_msg x, Decision_msg y -> Decision.compare x y
  | Bit _, Decision_msg _ -> -1
  | Decision_msg _, Bit _ -> 1

let pp_nmsg ppf = function
  | Bit b -> Format.fprintf ppf "bit(%d)" (if b then 1 else 0)
  | Decision_msg d -> Format.fprintf ppf "decision(%a)" Decision.pp d

type phase =
  | Collect of { waiting : Proc_id.Set.t; bits : (Proc_id.t * bool) list; failed_seen : bool }
  | Wait_decision
  | Done of Decision.t

type nstate = { outbox : nmsg Outbox.t; phase : phase; input : bool }

let hash_phase = function
  | Collect { waiting; bits; failed_seen } ->
    ((((Proc_id.set_hash waiting * 31) + Hashtbl.hash bits) * 2) + Bool.to_int failed_seen) * 4
  | Wait_decision -> 1
  | Done d -> (Hashtbl.hash d * 4) + 2

let hash_nstate s =
  (((Hashtbl.hash s.outbox * 31) + hash_phase s.phase) * 2) + Bool.to_int s.input

let tallier : Proc_id.t = 0

module Make_base (Cfg : sig
  val rule : Decision_rule.t
  val amnesic : bool
  val name : string
end) : Commit_glue.BASE with type nmsg = nmsg = struct
  type nonrec nstate = nstate
  type nonrec nmsg = nmsg

  let name = Cfg.name

  let describe =
    if Cfg.amnesic then
      Printf.sprintf "Figure 3 chain protocol, amnesic ST attempt (%s)"
        (Decision_rule.to_string Cfg.rule)
    else Printf.sprintf "Figure 3: WT-IC chain protocol (%s)" (Decision_rule.to_string Cfg.rule)

  let amnesic_variant = Cfg.amnesic
  let valid_n n = n >= 2

  let initial ~n ~me ~input =
    if Proc_id.equal me tallier then
      {
        outbox = Outbox.empty;
        phase =
          Collect
            {
              waiting = Proc_id.set_of_list (Proc_id.others ~n tallier);
              bits = [];
              failed_seen = false;
            };
        input;
      }
    else { outbox = [ (tallier, Bit input) ]; phase = Wait_decision; input }

  let step_kind s =
    if not (Outbox.is_empty s.outbox) then Step_kind.Sending
    else
      match s.phase with
      | Collect _ | Wait_decision -> Step_kind.Receiving
      | Done _ -> Step_kind.Receiving (* weak termination: listen forever *)

  let send ~n:_ ~me:_ s =
    match Outbox.pop s.outbox with
    | None -> (None, s)
    | Some (out, rest) -> (Some out, { s with outbox = rest })

  let forward ~n ~me d =
    if me + 1 < n then [ (me + 1, Decision_msg d) ] else Outbox.empty

  let finish_collect ~n ~me s bits failed_seen =
    let decision =
      if failed_seen then Decision.Abort
      else begin
        let inputs = Array.make n false in
        inputs.(me) <- s.input;
        List.iter (fun (q, b) -> inputs.(q) <- b) bits;
        Decision_rule.natural_decision Cfg.rule inputs
      end
    in
    { s with outbox = forward ~n ~me decision; phase = Done decision }

  let receive ~n ~me s ~from msg =
    match (s.phase, msg) with
    | Collect { waiting; bits; failed_seen }, Bit b when Proc_id.Set.mem from waiting ->
      let waiting = Proc_id.Set.remove from waiting in
      let bits = List.sort Stdlib.compare ((from, b) :: bits) in
      if Proc_id.Set.is_empty waiting then finish_collect ~n ~me s bits failed_seen
      else { s with phase = Collect { waiting; bits; failed_seen } }
    | Wait_decision, Decision_msg d -> { s with outbox = forward ~n ~me d; phase = Done d }
    | (Collect _ | Wait_decision | Done _), _ -> s

  let bias_of s =
    match s.phase with
    | Done Decision.Commit -> Termination_core.Committable
    | Done Decision.Abort | Collect _ | Wait_decision -> Termination_core.Noncommittable

  let on_failure ~n ~me s q =
    match s.phase with
    | Collect { waiting; bits; failed_seen = _ } when Proc_id.Set.mem q waiting ->
      let waiting = Proc_id.Set.remove q waiting in
      let s' = { s with phase = Collect { waiting; bits; failed_seen = true } } in
      if Proc_id.Set.is_empty waiting then `Continue (finish_collect ~n ~me s' bits true)
      else `Continue s'
    | Collect _ | Wait_decision | Done _ -> `Join (bias_of s)

  (* every state joins on a termination message: a tallier that kept
     collecting would silently drop the message and leave the sender
     waiting for its rounds forever *)
  let on_term_msg ~n:_ ~me:_ s = `Join (bias_of s)

  (* in-flight decisions are ignored mid-termination: their senders
     stay up and join the run with their bias *)
  let term_translate (_ : nmsg) = `Ignore
  let known_halted _ = []

  (* Figure 3 has each processor decide *before* forwarding the
     decision down the chain — the very behaviour Corollary 6 forbids
     of TC protocols. *)
  let status s =
    match s.phase with
    | Done d -> Status.decided d
    | Collect _ | Wait_decision -> Status.undecided

  let compare_phase a b =
    match (a, b) with
    | Collect a, Collect b ->
      let c = Proc_id.Set.compare a.waiting b.waiting in
      if c <> 0 then c
      else
        let c = Stdlib.compare a.bits b.bits in
        if c <> 0 then c else Bool.compare a.failed_seen b.failed_seen
    | Wait_decision, Wait_decision -> 0
    | Done a, Done b -> Decision.compare a b
    | Collect _, (Wait_decision | Done _) -> -1
    | Wait_decision, Collect _ -> 1
    | Wait_decision, Done _ -> -1
    | Done _, (Collect _ | Wait_decision) -> 1

  let hash_nstate = hash_nstate

  let compare_nstate a b =
    let c = Outbox.compare ~cmp_msg:compare_nmsg a.outbox b.outbox in
    if c <> 0 then c
    else
      let c = compare_phase a.phase b.phase in
      if c <> 0 then c else Bool.compare a.input b.input

  let pp_nstate ppf s =
    let pp_phase ppf = function
      | Collect { waiting; failed_seen; _ } ->
        Format.fprintf ppf "collect(wait=%a%s)" Proc_id.pp_set waiting
          (if failed_seen then ",failure" else "")
      | Wait_decision -> Format.pp_print_string ppf "wait-decision"
      | Done d -> Format.fprintf ppf "done(%a)" Decision.pp d
    in
    Format.fprintf ppf "%a%s" pp_phase s.phase
      (if Outbox.is_empty s.outbox then ""
       else Format.asprintf "+outbox%a" (Outbox.pp ~pp_msg:pp_nmsg) s.outbox)

  let compare_nmsg = compare_nmsg
  let pp_nmsg = pp_nmsg
end

let make ?(amnesic = false) ~rule ~name () =
  let module B = Make_base (struct
    let rule = rule
    let amnesic = amnesic
    let name = name
  end) in
  let module P = Commit_glue.Make (B) in
  (module P : Protocol.S)

let fig3 = make ~rule:Decision_rule.Unanimity ~name:"fig3-chain" ()

let fig3_amnesic = make ~amnesic:true ~rule:Decision_rule.Unanimity ~name:"fig3-chain-st" ()
