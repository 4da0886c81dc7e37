(** Global dictionary: values to dense, monotonically-assigned ids.

    Where {!Intern} hash-conses values {e per root} to maximise
    physical sharing during one search, a [Dict] is a {e global}
    dictionary of the execution database: every distinct value (a
    config fingerprint, an event descriptor) is assigned the next
    dense id [0, 1, 2, ...] on first sight, and ids never change for
    the lifetime of the dictionary.  Dense ids let the database index
    its edges by plain arrays and write them as small integers.

    The dictionary is monomorphic in its key ({!Make}): the table
    hashes and compares with the key module's own functions, and the
    reverse map is a plain array of values.

    Not thread-safe: callers that share a dictionary across domains
    must serialise access (the edge database guards all writes with
    its own mutex). *)

module Make (H : Hashtbl.HashedType) : sig
  type key = H.t
  type t

  val create : unit -> t
  (** Fresh empty dictionary. *)

  val intern : t -> key -> int
  (** [intern d v] is the id of [v], assigning the next dense id if [v]
      has not been seen before.  Ids are assigned [0, 1, 2, ...] in
      first-sight order. *)

  val find : t -> key -> int option
  (** The id of a value if already interned; never assigns. *)

  val get : t -> int -> key
  (** Reverse lookup: [get d id] is the value carrying [id].  Raises
      [Invalid_argument] if [id] has not been assigned. *)

  val cardinal : t -> int
  (** Number of interned values; also the next id to be assigned. *)

  val iter : (int -> key -> unit) -> t -> unit
  (** Iterate bindings in ascending id order (= first-sight order). *)
end
