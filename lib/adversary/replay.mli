(** Certificate replay.

    Re-execute a violation certificate from its initial configuration
    through {!Patterns_sim.Engine}'s directive player and re-check the
    claimed property on the resulting trace.  Replay is deterministic
    — a script admits exactly one execution — and protocol-independent
    on this side: the certificate names its protocol and the registry
    supplies the module.

    With an execution database attached ([?db]), replay consults the
    recorded edge log first: the script is walked as point queries
    (src and event bound at every step, so each reads one source's
    out-edges), and if the walk covers the whole script and a verdict
    fact for the resulting path fingerprint is stored, the verdict is
    returned with {e zero} engine plays and zero kernel expansions
    ([states_expanded = 0] in the returned metrics).  On any miss the
    engine replays live, the execution's edges are recorded stepwise
    into the database, and the verdict is stored as a fact — so the
    next replay of the same execution is answered from the index. *)

type verdict =
  | Reproduced of string
      (** the property is violated again; carries the checker's
          description of the (re-observed) violation *)
  | Not_reproduced
      (** the script played to completion but the property held *)
  | Inapplicable of string
      (** the certificate does not name a runnable execution here:
          unknown protocol, unsupported [n], or a directive that does
          not apply (e.g. the protocol's code changed) *)

val exit_code : verdict -> int
(** [0] reproduced, [1] not reproduced, [2] inapplicable — the
    [patterns replay] exit convention. *)

val pp : Format.formatter -> verdict -> unit

val replay : ?db:Patterns_db.Db.t -> Cert.t -> verdict

val replay_metrics : ?db:Patterns_db.Db.t -> Cert.t -> verdict * Patterns_search.Metrics.t
(** Like {!replay}, also returning a metrics record:
    [states_expanded] (= [budget_consumed]) counts live engine
    directive applications — [0] when the database answered — and the
    /6 fields carry the database counter deltas of this call
    ([db_edges] is the database's absolute edge count afterwards).
    All fields are deterministic for a given database state. *)
