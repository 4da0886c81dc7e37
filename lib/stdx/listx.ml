let range lo hi =
  let rec loop i acc = if i < lo then acc else loop (i - 1) (i :: acc) in
  loop (hi - 1) []

let init_matrix rows cols f = Array.init rows (fun i -> Array.init cols (fun j -> f i j))

let cartesian xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let all_subsets l =
  List.fold_right (fun x acc -> List.map (fun s -> x :: s) acc @ acc) l [ [] ]

let all_bool_vectors n =
  let rec loop n = if n = 0 then [ [] ] else
    let rest = loop (n - 1) in
    List.concat_map (fun v -> [ false :: v; true :: v ]) rest
  in
  loop n

let take n l =
  let rec loop n acc = function
    | [] -> List.rev acc
    | _ when n <= 0 -> List.rev acc
    | x :: tl -> loop (n - 1) (x :: acc) tl
  in
  loop n [] l

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let group_by ~cmp ~key l =
  let tagged = List.map (fun x -> (key x, x)) l in
  let sorted = List.stable_sort (fun (k1, _) (k2, _) -> cmp k1 k2) tagged in
  let rec loop = function
    | [] -> []
    | (k, x) :: tl ->
      let same, rest = List.partition (fun (k', _) -> cmp k k' = 0) tl in
      (k, x :: List.map snd same) :: loop rest
  in
  loop sorted

let dedup_sorted ~cmp l =
  let sorted = List.sort cmp l in
  let rec loop = function
    | [] -> []
    | [ x ] -> [ x ]
    | x :: (y :: _ as tl) -> if cmp x y = 0 then loop tl else x :: loop tl
  in
  loop sorted

let find_index p l =
  let rec loop i = function
    | [] -> None
    | x :: tl -> if p x then Some i else loop (i + 1) tl
  in
  loop 0 l

let rec interleavings = function
  | [] -> [ [] ]
  | seqs ->
    let nonempty = List.filter (fun s -> s <> []) seqs in
    if nonempty = [] then [ [] ]
    else
      List.concat
        (List.mapi
           (fun i seq ->
             match seq with
             | [] -> []
             | x :: rest ->
               let others = List.filteri (fun j _ -> j <> i) nonempty in
               let remaining = if rest = [] then others else rest :: others in
               List.map (fun tail -> x :: tail) (interleavings remaining))
           nonempty)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat
      (List.mapi
         (fun i x ->
           let rest = List.filteri (fun j _ -> j <> i) l in
           List.map (fun p -> x :: p) (permutations rest))
         l)

let bits v = String.concat "" (List.map (fun b -> if b then "1" else "0") v)
