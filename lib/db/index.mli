(** The index key layout.

    Every recorded expansion is a [(src, event, dst)] triple of dense
    dictionary ids, stored once as a 24-byte key of three big-endian
    8-byte ids in (src, event, dst) order
    ({!Patterns_stdx.Dict.encode_into}), so lexicographic byte order
    equals numeric id order.

    A query whose bound components form a leading run — [src], then
    [event], then [dst] — is a pure prefix scan.  Any other bound
    component is checked on the scanned keys: a bound [dst] after an
    unbound [event] filters the [src] prefix scan, and a query that
    leaves [src] unbound is one filtered pass over every key. *)

val width : int
(** Bytes per index key: 24. *)

val key : src:int -> event:int -> dst:int -> string
(** The 24-byte key of a triple. *)

val decode : string -> int * int * int
(** [decode k] recovers [(src, event, dst)] from a key.  Raises
    [Invalid_argument] if [k] is not {!width} bytes. *)

val prefix : ?src:int -> ?event:int -> ?dst:int -> unit -> string
(** The scan prefix for the bound components: the encodings of
    [src], [event], [dst] in order, stopping at the first unbound
    one. *)
