(** Append-once sorted-run files of fixed-width records — the on-disk
    half of {!Spill_store}.

    A run is a flat file of 16-byte records: an 8-byte big-endian key
    followed by an 8-byte big-endian payload.  Because the keys are big-endian,
    byte order coincides with numeric order, so a run written in
    ascending key order can be searched with plain [String.compare]:
    a probe binary-searches an in-memory {e fence index} (the first
    key of every 256-record block, 8 bytes per 4 KiB of file) down to
    one block, reads that block, and binary-searches the records in
    it.  One probe therefore costs at most one 4 KiB read.

    Runs are immutable after {!create}.  Between probes a run's file
    descriptor lives at most in its store's {!cache}, a 64-entry LRU,
    so a store that has spilled thousands of small runs still uses
    O(1) descriptors while the hot runs avoid an open/close syscall
    pair per probe.  Neither a run nor a cache takes a lock: a store
    and its runs are used from one domain at a time. *)

val record_width : int
(** 16 — bytes per record. *)

val key_width : int
(** 8 — bytes per key. *)

val block_records : int
(** 256 — records per block; one fence entry and at most one read per
    probe. *)

val encode_record : Bytes.t -> int -> key:string -> payload:int -> unit
(** Write one record at the given offset: the 8-byte [key] verbatim,
    then [payload] big-endian.  Raises [Invalid_argument] unless
    [key] is exactly {!key_width} bytes. *)

val decode_key : string -> int -> string
(** The key of the record at the given byte offset. *)

val decode_payload : string -> int -> int
(** The payload of the record at the given byte offset (the record's
    start, not the payload's). *)

type cache
(** The open descriptors of one store's runs, at most 64: probing a
    run whose descriptor is not cached opens it and closes the least
    recently probed one. *)

val cache : unit -> cache
(** A fresh, empty descriptor cache. *)

type t

val create : cache:cache -> path:string -> (string * int) array -> t
(** Write the entries — which must be strictly ascending in key —
    as one sorted run at [path], building the fence index on the way
    out, and return the run, whose probes keep its descriptor in
    [cache].  Raises [Invalid_argument] on an unsorted or duplicate
    key. *)

val probe : t -> string -> int option
(** Payload stored under the key, if any; at most one block read.
    Counted in {!probes} / {!read_bytes}. *)

val length : t -> int
(** Records in the run. *)

val write_bytes : t -> int
(** Bytes written by {!create} — [16 * length]. *)

val probes : t -> int

val read_bytes : t -> int
(** Bytes read from disk by probes so far. *)

val reopens : t -> int
(** Opens after the first — probes that missed the descriptor cache
    because this run's channel had been evicted.  0 when the
    descriptor stayed cached for the run's whole life; deterministic
    for a deterministic probe sequence through the cache. *)

val path : t -> string

val close : t -> unit
(** Release this run's cached descriptor, if any.  Probing again
    reopens the file. *)

val delete : t -> unit
(** Release the cached descriptor and remove the file
    (best-effort). *)
