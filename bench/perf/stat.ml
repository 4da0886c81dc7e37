(* Order statistics for samples of a run and runs of a set. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by the exclusive method — what Python's
   [statistics.quantiles(xs, n=4)] returns, so spreads computed here
   and by an external script agree. *)
let quartiles xs =
  let a = sorted xs in
  let len = Array.length a in
  if len = 0 then (nan, nan)
  else if len = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = len + 1 in
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* The slowest sample that still has at least ten slower ones beyond
   it — the highest percentile a sample of this size supports.  Below
   eleven samples no percentile qualifies and the maximum stands in. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n < 11 then a.(n - 1) else a.(n - 11)
