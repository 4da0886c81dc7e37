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
  | Gather of { waiting : Proc_id.Set.t; bit : bool }
  | Wait_decision
  | Done of Decision.t

type nstate = { outbox : nmsg Outbox.t; phase : phase; input : bool }

let hash_phase = function
  | Gather { waiting; bit } -> ((Proc_id.set_hash waiting * 2) + Bool.to_int bit) * 4
  | Wait_decision -> 1
  | Done d -> (Hashtbl.hash d * 4) + 2

let hash_nstate s =
  (((Hashtbl.hash s.outbox * 31) + hash_phase s.phase) * 2) + Bool.to_int s.input

module Make_base (Cfg : sig
  val tree : Tree.t
  val name : string
end) : Commit_glue.BASE with type nmsg = nmsg = struct
  type nonrec nstate = nstate
  type nonrec nmsg = nmsg

  let name = Cfg.name
  let describe =
    Printf.sprintf "tree-of-processes 2PC ([ML]) on a depth-%d tree: votes up, decision down, WT-IC"
      (Tree.depth Cfg.tree)
  let amnesic_variant = false
  let valid_n n = n = Tree.size Cfg.tree

  let tree = Cfg.tree
  let root = Tree.root tree

  let initial ~n:_ ~me ~input =
    match Tree.children tree me with
    | [] ->
      let parent = Option.get (Tree.parent tree me) in
      { outbox = [ (parent, Bit input) ]; phase = Wait_decision; input }
    | children ->
      { outbox = []; phase = Gather { waiting = Proc_id.set_of_list children; bit = input }; input }

  let step_kind s =
    if not (Outbox.is_empty s.outbox) then Step_kind.Sending
    else
      match s.phase with
      | Gather _ | Wait_decision -> Step_kind.Receiving
      | Done _ -> Step_kind.Receiving (* weak termination: stay available *)

  let send ~n:_ ~me:_ s =
    match Outbox.pop s.outbox with
    | None -> (None, s)
    | Some (out, rest) -> (Some out, { s with outbox = rest })

  (* subtree vote complete: the root decides and floods downward;
     interior nodes report upward *)
  let finish_gather s me bit =
    if Proc_id.equal me root then
      let d = if bit then Decision.Commit else Decision.Abort in
      {
        s with
        outbox = Outbox.broadcast Outbox.empty (Tree.children tree me) (Decision_msg d);
        phase = Done d;
      }
    else
      let parent = Option.get (Tree.parent tree me) in
      { s with outbox = [ (parent, Bit bit) ]; phase = Wait_decision }

  let receive ~n:_ ~me s ~from msg =
    match (s.phase, msg) with
    | Gather { waiting; bit }, Bit b when Proc_id.Set.mem from waiting ->
      let waiting = Proc_id.Set.remove from waiting in
      let bit = bit && b in
      if Proc_id.Set.is_empty waiting then finish_gather s me bit
      else { s with phase = Gather { waiting; bit } }
    | Wait_decision, Decision_msg d ->
      {
        s with
        outbox = Outbox.broadcast Outbox.empty (Tree.children tree me) (Decision_msg d);
        phase = Done d;
      }
    | (Gather _ | Wait_decision | Done _), _ -> s

  let bias_of s =
    match s.phase with
    | Done Decision.Commit -> Termination_core.Committable
    | Done Decision.Abort | Gather _ | Wait_decision -> Termination_core.Noncommittable

  (* a failed child counts as a 0 vote (abort is permitted once a
     failure has occurred) *)
  let on_failure ~n:_ ~me s q =
    match s.phase with
    | Gather { waiting; bit = _ } when Proc_id.Set.mem q waiting ->
      let waiting = Proc_id.Set.remove q waiting in
      if Proc_id.Set.is_empty waiting then `Continue (finish_gather s me false)
      else `Continue { s with phase = Gather { waiting; bit = false } }
    | Gather _ | Wait_decision | Done _ -> `Join (bias_of s)

  let on_term_msg ~n:_ ~me:_ s = `Join (bias_of s)
  let term_translate (_ : nmsg) = `Ignore
  let known_halted _ = []

  (* like the chain, nodes decide before forwarding — the WT-IC
     signature move *)
  let status s =
    match s.phase with
    | Done d -> Status.decided d
    | Gather _ | Wait_decision -> Status.undecided

  let compare_phase a b =
    match (a, b) with
    | Gather a, Gather b ->
      let c = Proc_id.Set.compare a.waiting b.waiting in
      if c <> 0 then c else Bool.compare a.bit b.bit
    | Wait_decision, Wait_decision -> 0
    | Done a, Done b -> Decision.compare a b
    | Gather _, (Wait_decision | Done _) -> -1
    | Wait_decision, Gather _ -> 1
    | Wait_decision, Done _ -> -1
    | Done _, (Gather _ | Wait_decision) -> 1

  let hash_nstate = hash_nstate

  let compare_nstate a b =
    let c = Outbox.compare ~cmp_msg:compare_nmsg a.outbox b.outbox in
    if c <> 0 then c
    else
      let c = compare_phase a.phase b.phase in
      if c <> 0 then c else Bool.compare a.input b.input

  let pp_nstate ppf s =
    let pp_phase ppf = function
      | Gather { waiting; bit } ->
        Format.fprintf ppf "gather(bit=%d,wait=%a)" (if bit then 1 else 0) Proc_id.pp_set waiting
      | Wait_decision -> Format.pp_print_string ppf "wait-decision"
      | Done d -> Format.fprintf ppf "done(%a)" Decision.pp d
    in
    Format.fprintf ppf "%a%s" pp_phase s.phase
      (if Outbox.is_empty s.outbox then ""
       else Format.asprintf "+outbox%a" (Outbox.pp ~pp_msg:pp_nmsg) s.outbox)

  let compare_nmsg = compare_nmsg
  let pp_nmsg = pp_nmsg
end

let make ~name tree =
  let module B = Make_base (struct
    let tree = tree
    let name = name
  end) in
  let module P = Commit_glue.Make (B) in
  (module P : Protocol.S)

let binary7 = make ~name:"tree-2pc" (Tree.binary 7)

let star n = make ~name:(Printf.sprintf "tree-2pc-star-%d" n) (Tree.star n)
