(* The reference kernel: a fixed, bench-owned piece of allocation-heavy
   OCaml (balanced-tree builds and folds, about 10 MB of short-lived
   allocation over a live set of about 100 KB) that no library change
   can touch.  The timed child runs it once after every operation, on
   as many domains as the operation uses, and the operation times of
   record are expressed in units of it, pair by pair.

   Why: on a shared host the machine itself speeds up and slows down by
   up to 2x over seconds to minutes — cache and memory-bandwidth
   contention from other tenants, which a pure arithmetic loop does not
   feel but every allocating OCaml program does.  Raw per-run medians
   then spread by 3-13% between runs, while the ratio of an operation
   to the kernel run next to it spreads by 1-5% (README.md, "Why
   operation times are normalized").  A two-domain operation also feels
   contention on the second core and the runtime's cross-domain
   collections, which only a two-domain kernel feels too.  Its live set
   stays small so that it adds almost nothing to a workload's peak RSS.
   Raw seconds are still reported, as diagnostics. *)

module M = Map.Make (Int)

let kernel () =
  let rng = Random.State.make [| 1984 |] in
  let acc = ref 0 in
  for _ = 1 to 40 do
    let m = ref M.empty in
    for i = 1 to 2_000 do
      m := M.add (Random.State.int rng 1_000_000) i !m
    done;
    acc := M.fold (fun k v a -> a + (k lxor v)) !m !acc
  done;
  ignore (Sys.opaque_identity !acc)

(* one copy of the kernel per domain, all at once *)
let run ~domains =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn kernel) in
  kernel ();
  List.iter Domain.join others
