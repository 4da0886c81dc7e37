(** A checked envelope for [Marshal] payloads the tool reads back.

    Unmarshalling bytes that were truncated, flipped, written for
    another type or by another compiler is undefined behaviour — it
    may crash the process or return garbage.  Every [Marshal] payload
    this repository stores on disk (the per-root memo's facts, replay
    verdicts) therefore travels sealed: four text lines — the marker
    [patterns-seal/1], the payload kind, [Sys.ocaml_version] and the
    hex MD5 of the body — then the [Marshal] body.  {!unseal} checks
    all four before unmarshalling, so damage comes back as an
    [Error], never a crash.

    The kind stands for the payload type: a caller that changes the
    type it seals must change the kind with it. *)

val seal : kind:string -> 'a -> string
(** The sealed bytes of a value.  [kind] must not contain a newline
    ([Invalid_argument]); the value must not contain closures. *)

val unseal : kind:string -> string -> ('a, string) result
(** The value sealed under [kind], or [Error] naming the first check
    that failed: a missing or foreign envelope, another kind, another
    OCaml version, or a body whose checksum differs (truncation or
    corruption).  Never raises on any input. *)
