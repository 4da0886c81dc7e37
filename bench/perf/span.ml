(* In-memory spans for the traced run.

   Every span is folded into a per-name aggregate (count, total and
   self nanoseconds, minor words, direct child spans); spans of the
   names created with [~record:true] — operations and their steps, a
   few per operation — are also kept whole as (name, start, end,
   parent, minor-words) records.  Nothing is written until [write],
   which the traced child calls once at exit.

   The recorder is single-domain: every traced procedure makes its
   spanned calls on the calling domain (the jobs=2 workload is traced
   through the kernel's own counters, not through spans).  Its hot path
   allocates nothing, so the minor-word deltas belong to the spanned
   code alone. *)

type id = int

let max_names = 64
let names = Array.make max_names ""
let recorded = Array.make max_names false
let n_names = ref 0

let make ?(record = false) name =
  let id = !n_names in
  if id >= max_names then invalid_arg "Span.make: too many span names";
  names.(id) <- name;
  recorded.(id) <- record;
  incr n_names;
  id

(* per-name aggregates *)
let count = Array.make max_names 0
let total_ns = Array.make max_names 0
let self_ns = Array.make max_names 0
let words = Array.make max_names 0.
let self_words = Array.make max_names 0.
let children = Array.make max_names 0

(* the open-span stack *)
let max_depth = 32
let st_id = Array.make max_depth 0
let st_t0 = Array.make max_depth 0
let st_w0 = Array.make max_depth 0.
let st_child_ns = Array.make max_depth 0
let st_child_w = Array.make max_depth 0.
let st_rec = Array.make max_depth (-1)
let depth = ref 0
let on = ref false

type record = {
  r_name : id;
  r_parent : int;
  r_start : int;
  mutable r_end : int;
  mutable r_words : float;
}

let no_record = { r_name = -1; r_parent = -1; r_start = 0; r_end = 0; r_words = 0. }
let st_r = Array.make max_depth no_record
let records : record list ref = ref []
let n_records = ref 0
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* index of the innermost recorded span still open, for parent links *)
let open_record d =
  let rec go d = if d < 0 then -1 else if st_rec.(d) >= 0 then st_rec.(d) else go (d - 1) in
  go d

let enter id =
  if !on then begin
    let d = !depth in
    st_id.(d) <- id;
    st_child_ns.(d) <- 0;
    st_child_w.(d) <- 0.;
    if recorded.(id) then begin
      let r =
        { r_name = id; r_parent = open_record (d - 1); r_start = now_ns (); r_end = 0; r_words = 0. }
      in
      records := r :: !records;
      st_r.(d) <- r;
      st_rec.(d) <- !n_records;
      incr n_records
    end
    else st_rec.(d) <- -1;
    depth := d + 1;
    st_w0.(d) <- Gc.minor_words ();
    st_t0.(d) <- now_ns ()
  end

let leave () =
  if !on then begin
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    let d = !depth - 1 in
    depth := d;
    let id = st_id.(d) in
    let dt = t1 - st_t0.(d) and dw = w1 -. st_w0.(d) in
    count.(id) <- count.(id) + 1;
    total_ns.(id) <- total_ns.(id) + dt;
    self_ns.(id) <- self_ns.(id) + dt - st_child_ns.(d);
    words.(id) <- words.(id) +. dw;
    self_words.(id) <- self_words.(id) +. dw -. st_child_w.(d);
    if d > 0 then begin
      st_child_ns.(d - 1) <- st_child_ns.(d - 1) + dt;
      st_child_w.(d - 1) <- st_child_w.(d - 1) +. dw;
      let p = st_id.(d - 1) in
      children.(p) <- children.(p) + 1
    end;
    if st_rec.(d) >= 0 then begin
      st_r.(d).r_end <- t1;
      st_r.(d).r_words <- dw
    end
  end

let span id f =
  enter id;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

let reset () =
  Array.fill count 0 max_names 0;
  Array.fill total_ns 0 max_names 0;
  Array.fill self_ns 0 max_names 0;
  Array.fill words 0 max_names 0.;
  Array.fill self_words 0 max_names 0.;
  Array.fill children 0 max_names 0;
  records := [];
  n_records := 0;
  depth := 0

(* Tracing costs time on both sides of a span boundary: part of each
   [enter]/[leave] pair lands inside the span it opens and part in its
   parent's self time.  Both shares are measured once, on empty spans,
   and subtracted by [calibrated_total]/[calibrated_self] so that
   per-call times of cheap functions (a fingerprint read, a compare)
   are not mostly recorder. *)
let inner_ns = ref 0.
let outer_ns = ref 0.

let calibrate () =
  let was_on = !on in
  on := true;
  let outer = make "span.calibrate.outer" and inner = make "span.calibrate.inner" in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let k = 2_000 in
  let samples =
    List.init 15 (fun _ ->
        reset ();
        enter outer;
        for _ = 1 to k do
          enter inner;
          leave ()
        done;
        leave ();
        ( float_of_int total_ns.(inner) /. float_of_int k,
          float_of_int self_ns.(outer) /. float_of_int k ))
  in
  inner_ns := median (List.map fst samples);
  outer_ns := median (List.map snd samples);
  reset ();
  on := was_on

let calibrated_total id =
  Float.max 0. (float_of_int total_ns.(id) -. (float_of_int count.(id) *. !inner_ns))

let calibrated_self id =
  Float.max 0.
    (float_of_int self_ns.(id)
    -. (float_of_int count.(id) *. !inner_ns)
    -. (float_of_int children.(id) *. !outer_ns))

(* recorder cost charged to a span's parent-side interval, for the
   traced-vs-untraced accounting *)
let overhead_ns id =
  (float_of_int count.(id) *. (!inner_ns +. !outer_ns))

let write path =
  let oc = open_out path in
  let recs = Array.of_list (List.rev !records) in
  let t0 = if Array.length recs = 0 then 0 else recs.(0).r_start in
  Printf.fprintf oc "{\n  \"schema\": \"patterns-perf-trace/1\",\n";
  Printf.fprintf oc "  \"calibration_ns\": {\"inner\": %.1f, \"outer\": %.1f},\n" !inner_ns
    !outer_ns;
  Printf.fprintf oc "  \"aggregates\": [";
  let first = ref true in
  for id = 0 to !n_names - 1 do
    if count.(id) > 0 then begin
      Printf.fprintf oc "%s\n    {\"name\": %S, \"count\": %d, \"total_ns\": %d, \"self_ns\": %d, \
                         \"minor_words\": %.0f, \"self_minor_words\": %.0f, \"children\": %d}"
        (if !first then "" else ",")
        names.(id) count.(id) total_ns.(id) self_ns.(id) words.(id) self_words.(id)
        children.(id);
      first := false
    end
  done;
  Printf.fprintf oc "\n  ],\n  \"spans\": [";
  Array.iteri
    (fun i r ->
      Printf.fprintf oc "%s\n    {\"name\": %S, \"start_ns\": %d, \"end_ns\": %d, \"parent\": %d, \
                         \"minor_words\": %.0f}"
        (if i = 0 then "" else ",")
        names.(r.r_name) (r.r_start - t0) (r.r_end - t0) r.r_parent r.r_words)
    recs;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc
