module Dict = Patterns_stdx.Dict
module Lru = Patterns_stdx.Lru
module Json = Patterns_stdx.Json
module Hex = Patterns_stdx.Hex
module Seal = Patterns_stdx.Seal
module Sset = Set.Make (String)

type stats = { edges : int; index_scans : int; cache_hits : int; cache_misses : int }

type t = {
  mutex : Mutex.t;
  configs : int Dict.t; (* fingerprint -> dense id *)
  events : string Dict.t; (* descriptor -> dense id *)
  mutable keys : Sset.t; (* one 24-byte (src, event, dst) key per edge *)
  mutable n_edges : int;
  mutable index_scans : int;
  cache : (string, (int * string * int) list) Lru.t;
  facts : (string * string, Json.t) Hashtbl.t;
}

(* /2 is the JSONL stream [save] writes and [load] reads; nothing
   writes the monolithic /1 document any more, and [load] refuses it. *)
let schema = "patterns-edge-db/2"

let create () =
  {
    mutex = Mutex.create ();
    configs = Dict.create ();
    events = Dict.create ();
    keys = Sset.empty;
    n_edges = 0;
    index_scans = 0;
    cache = Lru.create ~capacity:128 ();
    facts = Hashtbl.create 64;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* ----- edges ----- *)

let add_edge_unlocked t ~src ~event ~dst =
  let s = Dict.intern t.configs src in
  let e = Dict.intern t.events event in
  let o = Dict.intern t.configs dst in
  (* [Set.add] returns its argument physically when the key is present *)
  let keys = Sset.add (Index.key ~src:s ~event:e ~dst:o) t.keys in
  if keys != t.keys then begin
    t.keys <- keys;
    t.n_edges <- t.n_edges + 1;
    Lru.clear t.cache
  end

let add_edge t ~src ~event ~dst = locked t (fun () -> add_edge_unlocked t ~src ~event ~dst)

(* The keys extending the bound components' prefix (every key extending
   [p] sorts at or after [p] itself; [p] is empty when [src] is
   unbound), filtered on the bound components the prefix leaves out. *)
let scan t ?src ?event ?dst () =
  t.index_scans <- t.index_scans + 1;
  let p = Index.prefix ?src ?event ?dst () in
  let matches bound id = match bound with None -> true | Some b -> b = id in
  Sset.to_seq_from p t.keys
  |> Seq.take_while (String.starts_with ~prefix:p)
  |> Seq.fold_left
       (fun acc k ->
         let ((s, e, o) as ids) = Index.decode k in
         if matches src s && matches event e && matches dst o then ids :: acc else acc)
       []

let compare_triple (s1, e1, o1) (s2, e2, o2) =
  match compare (s1 : int) s2 with
  | 0 -> ( match String.compare e1 e2 with 0 -> compare (o1 : int) o2 | c -> c)
  | c -> c

let edges t ?src ?event ?dst () =
  locked t (fun () ->
      let ckey =
        Printf.sprintf "e|%s|%s|%s"
          (match src with Some fp -> string_of_int fp | None -> "*")
          (match event with Some d -> d | None -> "*")
          (match dst with Some fp -> string_of_int fp | None -> "*")
      in
      match Lru.find t.cache ckey with
      | Some r -> r
      | None ->
        let bound_config = function
          | None -> Some None
          | Some fp -> (
            match Dict.find t.configs fp with Some id -> Some (Some id) | None -> None)
        in
        let bound_event = function
          | None -> Some None
          | Some d -> ( match Dict.find t.events d with Some id -> Some (Some id) | None -> None)
        in
        let result =
          match (bound_config src, bound_event event, bound_config dst) with
          | Some s, Some e, Some o ->
            scan t ?src:s ?event:e ?dst:o ()
            |> List.filter_map (fun (s, e, o) ->
                   match (Dict.value t.configs s, Dict.value t.events e, Dict.value t.configs o) with
                   | Some sfp, Some d, Some ofp -> Some (sfp, d, ofp)
                   | _ -> None)
            |> List.sort compare_triple
          | _ -> [] (* a bound component was never interned: no matches *)
        in
        Lru.add t.cache ckey result;
        result)

let mem_config t fp = locked t (fun () -> Dict.find t.configs fp <> None)

let stats t =
  locked t (fun () ->
      {
        edges = t.n_edges;
        index_scans = t.index_scans;
        cache_hits = Lru.hits t.cache;
        cache_misses = Lru.misses t.cache;
      })

(* ----- facts ----- *)

let put_fact t ~kind ~key v =
  locked t (fun () ->
      Hashtbl.replace t.facts (kind, key) v;
      Lru.clear t.cache)

let get_fact t ~kind ~key = locked t (fun () -> Hashtbl.find_opt t.facts (kind, key))

(* a sealed fact is one hex string; anything that does not decode and
   unseal under its kind is a miss *)
let put_sealed t ~kind ~key v =
  put_fact t ~kind ~key (Json.String (Hex.encode (Seal.seal ~kind v)))

let get_sealed t ~kind ~key =
  match get_fact t ~kind ~key with
  | Some (Json.String h) -> (
    match Hex.decode h with
    | s -> Result.to_option (Seal.unseal ~kind s)
    | exception Invalid_argument _ -> None)
  | _ -> None

let facts t ~kind =
  locked t (fun () ->
      Hashtbl.fold (fun (k, key) v acc -> if String.equal k kind then (key, v) :: acc else acc) t.facts []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

(* ----- streaming JSONL (/2) ----- *)

(* One-line rendering for the /2 records: {!Json.to_string} breaks
   objects one element per line by design, so the stream writes its
   own compact form (same RFC 8259 escaping, no layout). *)
let escape_to b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec compact_to b (j : Json.t) =
  match j with
  | Json.Null -> Buffer.add_string b "null"
  | Json.Bool x -> Buffer.add_string b (string_of_bool x)
  | Json.Int i -> Buffer.add_string b (string_of_int i)
  | Json.Float f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Json.String s -> escape_to b s
  | Json.List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        compact_to b x)
      xs;
    Buffer.add_char b ']'
  | Json.Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_to b k;
        Buffer.add_char b ':';
        compact_to b v)
      kvs;
    Buffer.add_char b '}'

let output_record oc j =
  let b = Buffer.create 64 in
  compact_to b j;
  Buffer.add_char b '\n';
  Buffer.output_buffer oc b

(* The /2 stream: a schema marker line, then one record per line —
   ["c"] config fingerprints in id order, ["e"] event descriptors in
   id order, ["t"] edge id-triples in key order, ["f"] facts
   sorted by (kind, key).  Each record is rendered and written
   individually, so saving never materialises the whole database as
   one string.  The stream goes to a temporary file renamed over
   [path], so a kill mid-save leaves the previous database whole. *)
let save t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      locked t (fun () ->
          output_record oc (Json.Obj [ ("schema", Json.String schema) ]);
          Dict.iter (fun _ fp -> output_record oc (Json.Obj [ ("c", Json.Int fp) ])) t.configs;
          Dict.iter
            (fun _ d -> output_record oc (Json.Obj [ ("e", Json.String d) ]))
            t.events;
          Sset.iter
            (fun k ->
              let s, e, o = Index.decode k in
              output_record oc
                (Json.Obj [ ("t", Json.List [ Json.Int s; Json.Int e; Json.Int o ]) ]))
            t.keys;
          Hashtbl.fold (fun (kind, key) v acc -> (kind, key, v) :: acc) t.facts []
          |> List.sort (fun (k1, key1, _) (k2, key2, _) ->
                 match String.compare k1 k2 with 0 -> String.compare key1 key2 | c -> c)
          |> List.iter (fun (kind, key, v) ->
                 output_record oc
                   (Json.Obj
                      [
                        ( "f",
                          Json.Obj
                            [
                              ("kind", Json.String kind);
                              ("key", Json.String key);
                              ("value", v);
                            ] );
                      ]))));
  Sys.rename tmp path

let apply_record t j =
  let ( let* ) = Result.bind in
  match j with
  | Json.Obj [ ("c", fp) ] ->
    let* fp = Json.to_int fp in
    ignore (Dict.intern t.configs fp);
    Ok ()
  | Json.Obj [ ("e", d) ] ->
    let* d = Json.to_str d in
    ignore (Dict.intern t.events d);
    Ok ()
  | Json.Obj [ ("t", triple) ] -> (
    let* triple = Json.to_list triple in
    match triple with
    | [ s; ev; o ] -> (
      let* s = Json.to_int s in
      let* ev = Json.to_int ev in
      let* o = Json.to_int o in
      match (Dict.value t.configs s, Dict.value t.events ev, Dict.value t.configs o) with
      | Some sfp, Some d, Some ofp ->
        add_edge_unlocked t ~src:sfp ~event:d ~dst:ofp;
        Ok ()
      | _ -> Error "edge references an id outside the dictionaries")
    | _ -> Error "edge is not a 3-element list")
  | Json.Obj [ ("f", f) ] ->
    let* kind = Result.bind (Json.field "kind" f) Json.to_str in
    let* key = Result.bind (Json.field "key" f) Json.to_str in
    let* v = Json.field "value" f in
    Hashtbl.replace t.facts (kind, key) v;
    Ok ()
  | _ -> Error "unrecognised record"

(* A /2 file is recognised by its first line (the schema marker
   object) and streamed line by line.  Anything else is refused; the
   error names the schema the file declares — a marker line's, or the
   "schema" member of a whole JSON document such as the retired /1 —
   so an outdated file is told apart from a corrupt one. *)
let load path =
  if not (Sys.file_exists path) then Ok (create ())
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let first = match input_line ic with exception End_of_file -> "" | l -> l in
        let declared j = Result.bind (Json.field "schema" j) Json.to_str in
        match Result.bind (Json.of_string first) declared with
        | Ok s when String.equal s schema ->
          let t = create () in
          let rec go lineno =
            match input_line ic with
            | exception End_of_file -> Ok t
            | "" -> go (lineno + 1)
            | line -> (
              match Result.bind (Json.of_string line) (apply_record t) with
              | Ok () -> go (lineno + 1)
              | Error e -> Error (Printf.sprintf "%s: line %d: %s" path lineno e))
          in
          go 2
        | marker ->
          let found =
            if Result.is_ok marker then marker
            else Result.bind (Json.of_string (first ^ "\n" ^ In_channel.input_all ic)) declared
          in
          Error
            (match found with
            | Ok s -> Printf.sprintf "%s: unsupported db schema %S" path s
            | Error _ -> Printf.sprintf "%s: not a %s file" path schema))
