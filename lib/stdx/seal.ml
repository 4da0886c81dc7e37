let marker = "patterns-seal/1"

let seal ~kind v =
  if String.contains kind '\n' then invalid_arg "Seal.seal: kind contains a newline";
  let body = Marshal.to_string v [] in
  String.concat "\n"
    [ marker; kind; Sys.ocaml_version; Digest.to_hex (Digest.string body); body ]

let unseal ~kind s =
  (* the four header lines, then the body; [None] when a line ends
     past the string *)
  let rec lines acc pos = function
    | 0 -> Some (List.rev acc, pos)
    | k -> (
      match String.index_from_opt s pos '\n' with
      | None -> None
      | Some i -> lines (String.sub s pos (i - pos) :: acc) (i + 1) (k - 1))
  in
  match lines [] 0 4 with
  | Some ([ m; k; version; digest ], pos) when String.equal m marker ->
    let body = String.sub s pos (String.length s - pos) in
    if not (String.equal k kind) then
      Error (Printf.sprintf "payload kind %S, expected %S" k kind)
    else if not (String.equal version Sys.ocaml_version) then
      Error (Printf.sprintf "written by OCaml %s, this build is OCaml %s" version Sys.ocaml_version)
    else if not (String.equal digest (Digest.to_hex (Digest.string body))) then
      Error "checksum mismatch (truncated or corrupt body)"
    else Ok (Marshal.from_string body 0)
  | _ -> Error "not a sealed payload (missing or damaged envelope)"
