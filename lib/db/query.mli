(** Query combinators over the execution database.

    Thin, deterministic combinators on {!Db}: edge patterns resolve
    through its key set, the graph helpers ([reachable], [path]) run
    breadth-first over [src]-prefix successor scans with
    successors visited in canonical (sorted) order, and
    [certs_touching] filters stored certificate facts by crash
    schedule.  All results are insertion-order-independent, hence
    [--jobs]- and [--par-mode]-invariant for a given recorded edge
    set. *)

type edge = {
  src : int;  (** config fingerprint *)
  event : string;  (** event descriptor *)
  dst : int;  (** config fingerprint *)
}

val edges : Db.t -> ?src:int -> ?event:string -> ?dst:int -> unit -> edge list
(** All recorded triples matching the bound components (see
    {!Db.edges}); sorted by [(src, event, dst)]. *)

val successors : Db.t -> int -> (string * int) list
(** Outgoing [(event, dst)] pairs of a config, sorted. *)

val predecessors : Db.t -> int -> (int * string) list
(** Incoming [(src, event)] pairs of a config, sorted: one filtered
    pass over every edge, since the source is unbound. *)

val reachable : Db.t -> int -> int list
(** Every config fingerprint reachable from the given one over
    recorded edges (including itself, if it appears in the
    dictionary), sorted ascending. *)

val path : Db.t -> src:int -> dst:int -> edge list option
(** A shortest recorded path, found breadth-first with successors
    explored in sorted order (so the witness is canonical);
    [Some []] when [src = dst] appears in the database, [None] when
    unreachable. *)

val certs_touching : Db.t -> int -> (string * Patterns_stdx.Json.t) list
(** All stored certificate facts (kind ["cert"]) whose crash schedule
    touches the given process: facts whose value carries a ["crashes"]
    list containing it.  Sorted by fact key. *)

val edge_to_json : edge -> Patterns_stdx.Json.t
(** [{"src": fp, "event": desc, "dst": fp}]. *)

val edges_to_json : edge list -> Patterns_stdx.Json.t
