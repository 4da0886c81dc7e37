(** Concurrency sets, literally.

    "A processor's knowledge about the states of its cohorts is
    captured by the concurrency set of its state.  The concurrency set
    of state [s], denoted [C(s)], is the set of states [t] such that
    [s] and [t] occur in the same configuration."  (Section 3.)

    [Make (P)] explores the reachable configurations (like
    {!Explore}, over chosen input vectors and a failure budget, one
    search-kernel run per vector) and materializes [C(s)] for every
    reachable operational local state.
    This is the raw object behind the safe-state conditions; the
    {!Explore} module keeps only the decision-relevant projection,
    this one keeps everything — suitable for small instances. *)

open Patterns_sim

module Make (P : Protocol.S) : sig
  module E : module type of Engine.Make (P)

  type t

  val build :
    ?max_failures:int ->
    ?max_configs:int ->
    ?inputs_choices:bool list list ->
    n:int ->
    unit ->
    t
  (** Defaults: all input vectors, one failure, 400_000 configs split
      evenly over the vectors. *)

  val state_count : t -> int
  (** Number of distinct reachable operational local states. *)

  val states : t -> P.state list
  (** All of them, sorted by [P.compare_state]. *)

  val concurrency_set : t -> P.state -> P.state list
  (** [C(s)], sorted by [P.compare_state] — empty for states never
      reached. *)

  val co_occur : t -> P.state -> P.state -> bool

  val truncated : t -> bool

  val pp_summary : Format.formatter -> t -> unit
  (** State count and the distribution of |C(s)|. *)
end
