(** Global dictionary: values to dense, monotonically-assigned ids.

    Where {!Intern} hash-conses values {e per root} to maximise
    physical sharing during one search, [Dict] is the {e global}
    dictionary of the execution database: every distinct value (a
    config fingerprint, an event descriptor) is assigned the next
    dense id [0, 1, 2, ...] on first sight, and ids never change for
    the lifetime of the dictionary.  Dense ids make index keys
    fixed-width, and the companion big-endian encoding below makes
    lexicographic byte order coincide with numeric id order — so a
    prefix scan of an index is a contiguous byte-order scan.

    Not thread-safe: callers that share a dictionary across domains
    must serialise access (the edge database guards all writes with
    its own mutex). *)

type 'a t

val create : ?initial:int -> unit -> 'a t
(** Fresh empty dictionary; [initial] sizes the hash table (default
    256). *)

val intern : 'a t -> 'a -> int
(** [intern d v] is the id of [v], assigning the next dense id if [v]
    has not been seen before.  Ids are assigned [0, 1, 2, ...] in
    first-sight order. *)

val find : 'a t -> 'a -> int option
(** The id of a value if already interned; never assigns. *)

val value : 'a t -> int -> 'a option
(** Reverse lookup: the value carrying an id, [None] if the id has not
    been assigned. *)

val cardinal : 'a t -> int
(** Number of interned values; also the next id to be assigned. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Iterate bindings in ascending id order (= first-sight order). *)

(** {1 Big-endian fixed-width key encoding}

    Ids encode as 8 big-endian bytes, so for nonnegative ids the
    lexicographic order of encodings equals the numeric order — the
    property the edge keys' prefix scans rely on. *)

val encoded_width : int
(** Bytes per encoded id: 8. *)

val encode_into : Bytes.t -> int -> int -> unit
(** [encode_into buf off id] writes the 8-byte big-endian encoding of
    [id] at offset [off]. *)

val encode : int -> string
(** [encode id] is the standalone 8-byte big-endian encoding. *)

val decode : string -> int -> int
(** [decode s off] reads the 8-byte big-endian id at offset [off].
    Inverse of {!encode_into} for ids that fit in an OCaml [int]. *)
