(** Trace-level checkers for the taxonomy's safety and liveness
    properties.

    Each checker is a linear scan over a single execution trace (plus
    the final statuses where liveness is concerned), reporting the
    first violation in trace order.  The exhaustive, all-schedules
    analogues live in {!Explore}. *)

open Patterns_sim
open Patterns_protocols

type verdict = (unit, string) result
(** [Error description] pinpoints the violation. *)

val total_consistency : 'msg Trace.t -> verdict
(** TC: no two decision events (by anybody, failed processors
    included) carry different values. *)

val interactive_consistency : 'msg Trace.t -> verdict
(** IC: replaying the trace, at no point do two processors that have
    not failed occupy different decision states.  (Amnesia vacates the
    decision state.) *)

val nonfaulty_agreement : 'msg Trace.t -> verdict
(** No two processors that stay nonfaulty for the whole run decide
    differently — the consistency that the ST variants of Theorem 13
    are shown to violate (amnesia hides the conflict from
    [interactive_consistency] but not from the decision events). *)

val decision_rule : Decision_rule.t -> inputs:bool list -> 'msg Trace.t -> verdict
(** Every decision event is permitted by the rule given the inputs and
    whether a failure had occurred by then. *)

val validity : Decision_rule.t -> inputs:bool list -> 'msg Trace.t -> verdict
(** For failure-free runs: every decision equals the rule's natural
    decision on these inputs. *)

val weak_termination :
  quiescent:bool -> statuses:Status.t array -> ever_decided:Decision.t option array ->
  failed:bool array -> verdict
(** WT at the end of a run: the run reached quiescence and every
    nonfaulty processor decided at some point. *)

val strong_termination :
  quiescent:bool -> statuses:Status.t array -> ever_decided:Decision.t option array ->
  failed:bool array -> verdict
(** ST: WT and every nonfaulty decider has reached the amnesic state
    (or halted without needing to forget). *)

val halting_termination :
  quiescent:bool -> statuses:Status.t array -> ever_decided:Decision.t option array ->
  failed:bool array -> verdict
(** HT: WT and every nonfaulty processor has halted. *)

val ever_decided : n:int -> 'msg Trace.t -> Decision.t option array
(** First decision of each processor in the trace. *)
