(** Root-granular checkpoint/resume for long sweeps.

    Every long sweep here is a fold over independent roots (input
    vectors, hunt index chunks) merged in root order, so the state
    that makes a killed run resumable is the map from completed root
    index to that root's finished payload.  A checkpoint file is one
    plain-text header line — [patterns-checkpoint/2] followed by a
    client header string encoding everything the payloads depend on
    (protocol, n, budgets, seeds, …) — and the sorted (index, payload)
    entries sealed ({!Patterns_stdx.Seal}) under a kind naming that
    line and {!Metrics.schema}.  Every {!record} atomically rewrites
    the file (temporary + rename), so a kill at any moment leaves the
    previous complete checkpoint, never a torn one.

    Recording policy (enforced by {!Search.sweep} for per-root sweeps
    and by the hunt's chunk loop, documented here): a root is recorded
    only when its own metrics carry [deadline_hits = 0] — deadline
    truncation is wall-clock-dependent, so resuming over such a
    payload would bake a nondeterministic result into a deterministic
    sweep.  Budget and live-limit truncations are deterministic and
    recordable. *)

val schema : string
(** ["patterns-checkpoint/2"].  A file of another checkpoint schema
    (the unsealed /1) is refused with an error naming that schema. *)

type spec = {
  file : string;
  resume : bool;
      (** [true]: load existing entries from [file] (a missing file is
          a fresh start, so wrappers can pass [--resume]
          unconditionally); [false]: start fresh, overwriting [file]
          on the first record. *)
  kill_after : int option;
      (** Test hook: after this many fresh records, print a notice and
          [exit 99], leaving the checkpoint for a resume. *)
}

type 'a t

val create : spec -> header:string -> ('a t, string) result
(** [Error] when resuming against a file that is not a /2 checkpoint,
    whose header line differs from [header] (incompatible payloads
    are refused, not mixed), or whose payload does not unseal
    (["FILE: corrupt checkpoint payload: REASON"]: truncated,
    corrupted, or written by another build). *)

val find : 'a t -> int -> 'a option
(** The recorded payload of root [i], if a previous process (or this
    one) completed it. *)

val record : 'a t -> int -> 'a -> unit
(** Record root [i]'s payload and atomically rewrite the file.  A
    second record of the same index is ignored.  Thread-safe. *)

val completed : 'a t -> int
(** Number of recorded roots. *)
