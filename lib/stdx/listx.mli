(** List and array helpers missing from the stdlib. *)

val range : int -> int -> int list
(** [range lo hi] is [\[lo; lo+1; ...; hi-1\]]; empty when [lo >= hi]. *)

val init_matrix : int -> int -> (int -> int -> 'a) -> 'a array array
(** [init_matrix rows cols f] builds a matrix with [f i j] at (i,j). *)

val cartesian : 'a list -> 'b list -> ('a * 'b) list
(** All pairs, in row-major order. *)

val all_subsets : 'a list -> 'a list list
(** All 2^n subsets (order within subsets preserved). *)

val all_bool_vectors : int -> bool list list
(** [all_bool_vectors n] is all 2^n boolean vectors of length [n],
    counting up from all-[false]. *)

val take : int -> 'a list -> 'a list
(** First [n] elements (fewer if the list is shorter). *)

val drop : int -> 'a list -> 'a list

val group_by : cmp:('k -> 'k -> int) -> key:('a -> 'k) -> 'a list -> ('k * 'a list) list
(** Stable grouping of elements by key, groups sorted by [cmp]. *)

val dedup_sorted : cmp:('a -> 'a -> int) -> 'a list -> 'a list
(** Sort by [cmp] and drop duplicates. *)

val find_index : ('a -> bool) -> 'a list -> int option

val interleavings : 'a list list -> 'a list list
(** All interleavings (shuffles) of the given sequences, preserving the
    internal order of each.  Exponential; intended for small inputs in
    tests. *)

val permutations : 'a list -> 'a list list
(** All permutations.  Factorial; for tests. *)

val bits : bool list -> string
(** A bit vector as ["0"]/["1"] characters, first element first. *)
