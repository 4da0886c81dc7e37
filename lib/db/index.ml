module Dict = Patterns_stdx.Dict

let width = 3 * Dict.encoded_width

let key ~src ~event ~dst =
  let buf = Bytes.create width in
  Dict.encode_into buf 0 src;
  Dict.encode_into buf Dict.encoded_width event;
  Dict.encode_into buf (2 * Dict.encoded_width) dst;
  Bytes.unsafe_to_string buf

let decode k =
  if String.length k <> width then invalid_arg "Index.decode: bad key width";
  (Dict.decode k 0, Dict.decode k Dict.encoded_width, Dict.decode k (2 * Dict.encoded_width))

let prefix ?src ?event ?dst () =
  let b = Buffer.create width in
  let rec go = function
    | Some id :: rest ->
      Buffer.add_string b (Dict.encode id);
      go rest
    | _ -> ()
  in
  go [ src; event; dst ];
  Buffer.contents b
