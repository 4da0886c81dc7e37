(** The execution database: a triple-encoded edge log, a fact store,
    and a query-result cache.

    Every recorded kernel expansion is one [(src, event, dst)] triple:
    [src]/[dst] are canonical config fingerprints
    ({!Patterns_stdx.Fingerprint.to_int}) and [event] is a descriptor
    string (a rendered {!Patterns_sim.Script.directive}, or a
    successor ordinal for anonymous kernel expansions).  Fingerprints
    and descriptors are interned into global dictionaries
    ({!Patterns_stdx.Dict}); the dense ids form one 24-byte big-endian
    (src, event, dst) key per edge ({!Index}), kept in one ordered
    set.  A query that binds [src] is a prefix scan of that set; one
    that leaves [src] unbound is a single filtered pass over it.
    Query results are memoised in an LRU cache of 128 entries,
    invalidated wholesale on every write.

    Alongside edges the database stores generic {e facts} — JSON
    values keyed by [(kind, key)] — used by the consumers for
    violation certificates ([kind = "cert"], plain JSON the [query]
    command reads) and, sealed ({!put_sealed}), for replay verdicts
    ([kind = "verdict"]) and for the per-root memo of the search
    sweeps (one fact per finished root, of kinds such as
    ["classify_vec3"]).  The database itself knows nothing about those
    payloads, which keeps [Patterns_db] dependent on [Patterns_stdx]
    only.

    All operations are thread-safe (one internal mutex): the
    asynchronous search driver's workers may record edges
    concurrently. *)

type t

type stats = {
  edges : int;  (** distinct triples stored *)
  index_scans : int;  (** scans and filtered passes actually performed *)
  cache_hits : int;
  cache_misses : int;
}

val schema : string
(** ["patterns-edge-db/3"] — the persisted JSONL schema written by
    {!save}: a schema marker line, then one compact record per line
    (["c"] config fingerprints in id order, ["e"] event descriptors in
    id order, ["t"] edge id-triples in (src, event, dst) id order,
    ["f"] facts sorted by (kind, key)), then an end record holding the
    number of records before it and an MD5 digest of them. *)

val create : unit -> t
(** Fresh empty database. *)

(** {1 Edges} *)

val add_edge : t -> src:int -> event:string -> dst:int -> unit
(** Record one triple (idempotent — the keys form a set).  [src] and
    [dst] are config fingerprints, [event] a descriptor string.
    Invalidates the query cache. *)

val edges : t -> ?src:int -> ?event:string -> ?dst:int -> unit -> (int * string * int) list
(** All stored triples matching the bound components (memoised in the
    cache): a prefix scan when [src] is bound, else one pass over every
    edge, filtered on [event] and [dst].  A bound [dst] with an unbound
    [event] filters the [src] scan.  Results are sorted by
    [(src, event, dst)] — fingerprint, then descriptor, then
    fingerprint — so they are independent of insertion order and
    hence of [--jobs]/[--par-mode]. *)

val mem_config : t -> int -> bool
(** Whether a config fingerprint appears in the dictionary (i.e. some
    recorded edge touches it). *)

val stats : t -> stats

(** {1 Facts} *)

val put_fact : t -> kind:string -> key:string -> Patterns_stdx.Json.t -> unit
(** Insert or replace the fact [(kind, key)].  Invalidates the query
    cache. *)

val get_fact : t -> kind:string -> key:string -> Patterns_stdx.Json.t option

val facts : t -> kind:string -> (string * Patterns_stdx.Json.t) list
(** All facts of a kind, sorted by key. *)

val put_sealed : t -> kind:string -> key:string -> 'a -> unit
(** Store a value as the fact [(kind, key)]: one hex string of the
    value sealed under [kind] ({!Patterns_stdx.Seal}), so a payload
    type change takes a new kind. *)

val get_sealed : t -> kind:string -> key:string -> 'a option
(** The value {!put_sealed} stored, or [None] when the fact is absent
    or does not decode and unseal under [kind] — damaged, foreign or
    written by another build.  Sealed facts are a cache: a caller
    treats [None] as a miss, recomputes and overwrites. *)

val on_put : t -> (unit -> unit) -> unit
(** [on_put t f] runs [f] after every later {!put_fact} (so every
    {!put_sealed}) on [t], outside the lock, replacing any earlier
    hook.  The CLI persists its [--resume] memo this way, one rewrite
    per recorded root; a library call never writes a file. *)

(** {1 Persistence} *)

val save : t -> string -> unit
(** Stream the database to a file in the /3 JSONL form, a group of
    records at a time — saving never materialises the whole database
    as a string, so [--db] does not double peak memory on large edge
    logs.  The stream is written to [path ^ ".tmp"] and renamed over
    [path], so a kill mid-save leaves the previous file whole. *)

val load : string -> (t, string) result
(** Read a database from a /3 stream (recognised by its first line),
    applied record by record.  A missing file is an empty database
    (so [--db FILE] works on first use).  [Error] naming the file
    when a line is malformed, when the end record is missing (a file
    cut short, at a record boundary or not) or disagrees with the
    records before it (a changed byte), or when data follows it; any
    other file — the /2 stream without an end record and the retired
    /1 document included — is [Error] naming the schema it
    declares. *)
