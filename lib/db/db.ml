module Lru = Patterns_stdx.Lru
module Json = Patterns_stdx.Json
module Hex = Patterns_stdx.Hex
module Seal = Patterns_stdx.Seal
module Configs = Patterns_stdx.Dict.Make (Int)
module Events = Patterns_stdx.Dict.Make (String)

type stats = { edges : int; index_scans : int; cache_hits : int; cache_misses : int }

type t = {
  mutex : Mutex.t;
  configs : Configs.t; (* fingerprint -> dense id *)
  events : Events.t; (* descriptor -> dense id *)
  mutable out : int array array; (* src id -> its adjacency, see [insert] *)
  mutable n_edges : int;
  mutable index_scans : int;
  cache : (string, (int * string * int) list) Lru.t;
  facts : (string * string, Json.t) Hashtbl.t;
  mutable on_put : unit -> unit; (* runs after every fact write, unlocked *)
}

(* /3 is the JSONL stream [save] writes and [load] reads: /2 with an
   end record.  Nothing writes /2 or the monolithic /1 document any
   more, and [load] refuses both by name. *)
let schema = "patterns-edge-db/3"

(* the adjacency of a source without edges; [insert] never writes it *)
let no_edges = [| 0 |]

let create () =
  {
    mutex = Mutex.create ();
    configs = Configs.create ();
    events = Events.create ();
    out = [||];
    n_edges = 0;
    index_scans = 0;
    cache = Lru.create ~capacity:128 ();
    facts = Hashtbl.create 64;
    on_put = ignore;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* ----- edges ----- *)

(* An adjacency holds its length in slot 0 and then that many
   (event id, dst id) pairs, each packed into one int as
   [event lsl 32 lor dst] and kept in ascending order, which is
   (event, dst) order: a duplicate is found on insert and a source's
   edges are read in (src, event, dst) id order. *)
let pack e o =
  if e lsr 30 <> 0 || o lsr 32 <> 0 then invalid_arg "Db: an id outgrew its 30 or 32 bits";
  (e lsl 32) lor o

let event_of p = p lsr 32
let dst_of p = p land 0xFFFF_FFFF

(* add the edge [(s, e, o)] of interned ids unless it is present *)
let insert t s e o =
  let cap = Array.length t.out in
  if s >= cap then begin
    let out = Array.make (max 64 (2 * max cap s)) no_edges in
    Array.blit t.out 0 out 0 cap;
    t.out <- out
  end;
  let p = pack e o in
  let a = t.out.(s) in
  let len = a.(0) in
  (* the last slot at or below [p]: sources mostly gain their edges in
     ascending order, so the walk from the end usually stops at once *)
  let i = ref len in
  while !i > 0 && a.(!i) > p do
    decr i
  done;
  if !i = 0 || a.(!i) <> p then begin
    let a =
      if len + 1 < Array.length a then a
      else begin
        let b = Array.make (2 * (len + 1)) 0 in
        Array.blit a 0 b 0 (len + 1);
        t.out.(s) <- b;
        b
      end
    in
    Array.blit a (!i + 1) a (!i + 2) (len - !i);
    a.(!i + 1) <- p;
    a.(0) <- len + 1;
    t.n_edges <- t.n_edges + 1;
    Lru.clear t.cache
  end

(* no closure: this runs once per recorded expansion edge *)
let add_edge t ~src ~event ~dst =
  Mutex.lock t.mutex;
  match
    let s = Configs.intern t.configs src in
    let e = Events.intern t.events event in
    insert t s e (Configs.intern t.configs dst)
  with
  | () -> Mutex.unlock t.mutex
  | exception e ->
    Mutex.unlock t.mutex;
    raise e

(* The id triples matching the bound ids: one adjacency when [src] is
   bound, else one pass over all of them, filtered on [event] and
   [dst]. *)
let scan t ?src ?event ?dst () =
  t.index_scans <- t.index_scans + 1;
  let matches bound id = match bound with None -> true | Some b -> b = id in
  let acc = ref [] in
  let visit s =
    let a = if s < Array.length t.out then t.out.(s) else no_edges in
    for i = a.(0) downto 1 do
      let e = event_of a.(i) and o = dst_of a.(i) in
      if matches event e && matches dst o then acc := (s, e, o) :: !acc
    done
  in
  (match src with
  | Some s -> visit s
  | None ->
    for s = Array.length t.out - 1 downto 0 do
      visit s
    done);
  !acc

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
        let bound find = function
          | None -> Some None
          | Some v -> ( match find v with Some id -> Some (Some id) | None -> None)
        in
        let bound_config = bound (Configs.find t.configs) in
        let result =
          match (bound_config src, bound (Events.find t.events) event, bound_config dst) with
          | Some s, Some e, Some o ->
            scan t ?src:s ?event:e ?dst:o ()
            |> List.map (fun (s, e, o) ->
                   (Configs.get t.configs s, Events.get t.events e, Configs.get t.configs o))
            |> List.sort compare_triple
          | _ -> [] (* a bound component was never interned: no matches *)
        in
        Lru.add t.cache ckey result;
        result)

let mem_config t fp = locked t (fun () -> Configs.find t.configs fp <> None)

let stats t =
  locked t (fun () ->
      {
        edges = t.n_edges;
        index_scans = t.index_scans;
        cache_hits = Lru.hits t.cache;
        cache_misses = Lru.misses t.cache;
      })

(* ----- facts ----- *)

(* facts never enter the edge-query cache, so a fact write leaves it *)
let put_fact t ~kind ~key v =
  locked t (fun () -> Hashtbl.replace t.facts (kind, key) v);
  t.on_put ()

let on_put t f = t.on_put <- f

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

(* ----- the record codec ----- *)

(* One-line rendering for the records: {!Json.to_string} breaks
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

(* the decimal digits of [string_of_int n], written without the C
   formatter or an intermediate string; digits are taken from the
   nonpositive [-|n|], so [min_int] needs no special case *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b n
  end
  else add_digits b (-n)

let rec compact_to b (j : Json.t) =
  match j with
  | Json.Null -> Buffer.add_string b "null"
  | Json.Bool x -> Buffer.add_string b (string_of_bool x)
  | Json.Int i -> add_int b i
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

(* The integer spelled by [b.[i .. j-1]] when those bytes are exactly
   what [string_of_int] writes for it (an optional '-', then "0" or
   digits without a leading zero, in range), else [min_int], which
   sends the line to the generic parser.  [min_int] itself is spelled
   correctly but also goes there; the generic parser reads it the
   same. *)
let canonical_int b i j =
  let neg = i < j && Bytes.get b i = '-' in
  let start = if neg then i + 1 else i in
  let digits = j - start in
  if digits < 1 || digits > 19 || (Bytes.get b start = '0' && (digits > 1 || neg)) then min_int
  else begin
    (* accumulated as -|n|, which holds [min_int] *)
    let n = ref 0 and k = ref start in
    while !k < j do
      let d = Char.code (Bytes.get b !k) - 48 in
      if d < 0 || d > 9 || !n < min_int / 10 || !n * 10 < min_int + d then begin
        n := 1;
        k := j
      end
      else begin
        n := (!n * 10) - d;
        incr k
      end
    done;
    if !n > 0 then min_int else if neg then !n else if !n = min_int then min_int else - !n
  end

(* ----- the end record -----

   A /3 stream ends with [{"end":{"records":N,"md5":H}}]: N counts the
   records between the schema marker and the end record, and H is the
   MD5 of their lines (newlines included) taken [group] lines at a
   time, then over the group digests.  Both sides compute it as the
   stream passes, one group of lines at a time, so neither holds the
   whole body; a file cut at a record boundary has no end record, and
   one with a changed byte disagrees with its own. *)
let group = 4096

type tally = { lines : Buffer.t; mutable records : int; mutable groups : string list }

let tally () = { lines = Buffer.create 65_536; records = 0; groups = [] }

(* one more record line is in [t.lines]; a full group is digested,
   handed to [flush] and dropped *)
let counted t ~flush =
  t.records <- t.records + 1;
  if t.records mod group = 0 then begin
    t.groups <- Digest.string (Buffer.contents t.lines) :: t.groups;
    flush t.lines;
    Buffer.clear t.lines
  end

let digest t =
  Digest.string (Buffer.contents t.lines) :: t.groups
  |> List.rev |> String.concat "" |> Digest.string |> Digest.to_hex

let output_record oc j =
  let b = Buffer.create 64 in
  compact_to b j;
  Buffer.add_char b '\n';
  Buffer.output_buffer oc b

(* The /3 stream: a schema marker line, then one record per line —
   ["c"] config fingerprints in id order, ["e"] event descriptors in
   id order, ["t"] edge id-triples in (src, event, dst) id order, ["f"]
   facts sorted by (kind, key) — then the end record.  The ["c"],
   ["e"] and ["t"] records are written straight into the group
   buffer, a group at a time, so saving never materialises the whole
   database as one string.  The stream goes to a temporary file
   renamed over [path], so a kill mid-save leaves the previous
   database whole.  One lock covers the open, the write and the
   rename: two saves of one database to one path from two domains
   would otherwise truncate each other's temporary file, and the
   second rename would find it gone. *)
let save t path =
  let tmp = path ^ ".tmp" in
  locked t (fun () ->
      let oc = open_out tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          let w = tally () in
          let b = w.lines in
          let flush = Buffer.output_buffer oc in
          let record j =
            compact_to b j;
            Buffer.add_char b '\n';
            counted w ~flush
          in
          output_record oc (Json.Obj [ ("schema", Json.String schema) ]);
          Configs.iter
            (fun _ fp ->
              Buffer.add_string b {|{"c":|};
              add_int b fp;
              Buffer.add_string b "}\n";
              counted w ~flush)
            t.configs;
          Events.iter
            (fun _ d ->
              Buffer.add_string b {|{"e":|};
              escape_to b d;
              Buffer.add_string b "}\n";
              counted w ~flush)
            t.events;
          Array.iteri
            (fun s a ->
              for i = 1 to a.(0) do
                Buffer.add_string b {|{"t":[|};
                add_int b s;
                Buffer.add_char b ',';
                add_int b (event_of a.(i));
                Buffer.add_char b ',';
                add_int b (dst_of a.(i));
                Buffer.add_string b "]}\n";
                counted w ~flush
              done)
            t.out;
          Hashtbl.fold (fun (kind, key) v acc -> (kind, key, v) :: acc) t.facts []
          |> List.sort (fun (k1, key1, _) (k2, key2, _) ->
                 match String.compare k1 k2 with 0 -> String.compare key1 key2 | c -> c)
          |> List.iter (fun (kind, key, v) ->
                 record
                   (Json.Obj
                      [
                        ( "f",
                          Json.Obj
                            [
                              ("kind", Json.String kind);
                              ("key", Json.String key);
                              ("value", v);
                            ] );
                      ]));
          flush b;
          output_record oc
            (Json.Obj
               [
                 ( "end",
                   Json.Obj [ ("records", Json.Int w.records); ("md5", Json.String (digest w)) ]
                 );
               ]));
      Sys.rename tmp path)

(* the edge of ids [(s, e, o)] read from a file, if every id is one
   its dictionaries have assigned *)
let insert_read t s e o =
  let n = Configs.cardinal t.configs in
  if s >= 0 && s < n && o >= 0 && o < n && e >= 0 && e < Events.cardinal t.events then begin
    insert t s e o;
    true
  end
  else false

(* the first ',' in [b.[i .. j-1]], or [j] *)
let rec comma b i j = if i >= j || Bytes.get b i = ',' then i else comma b (i + 1) j

(* whether [b.[i .. j-1]] starts with [p], compared from [p.[k]] on:
   [String.starts_with] without the closure it allocates on every
   call *)
let rec has_prefix b i j p k =
  k >= String.length p
  || (i + k < j && Bytes.get b (i + k) = p.[k] && has_prefix b i j p (k + 1))

(* The ["c"] and ["t"] lines exactly as [save] writes them, read from
   [b.[i .. j-1]] and applied without a [Json.t] or a string; [false],
   with nothing applied, for any other line, which goes to
   [apply_record]. *)
let apply_compact t b i j =
  let len = j - i in
  if len > 6 && has_prefix b i j {|{"c":|} 0 && Bytes.get b (j - 1) = '}' then begin
    let fp = canonical_int b (i + 5) (j - 1) in
    fp <> min_int
    &&
    (ignore (Configs.intern t.configs fp : int);
     true)
  end
  else if
    len > 8
    && has_prefix b i j {|{"t":[|} 0
    && Bytes.get b (j - 2) = ']'
    && Bytes.get b (j - 1) = '}'
  then begin
    let stop = j - 2 in
    let c1 = comma b (i + 6) stop in
    let c2 = comma b (c1 + 1) stop in
    c2 < stop
    && insert_read t (canonical_int b (i + 6) c1)
         (canonical_int b (c1 + 1) c2)
         (canonical_int b (c2 + 1) stop)
  end
  else false

(* The lines of a channel, read a block at a time: the current line
   is [buf.[start .. stop-1]], without its newline, so reading a record
   makes no string.  A last line without a newline is a line, as
   [input_line] reads it. *)
type lines = {
  ic : in_channel;
  mutable buf : Bytes.t;
  mutable pos : int;  (* the first byte not yet read as a line *)
  mutable len : int;  (* the bytes of [buf] holding data *)
  mutable start : int;
  mutable stop : int;
}

let lines ic = { ic; buf = Bytes.create 65_536; pos = 0; len = 0; start = 0; stop = 0 }

let rec newline b i j = if i >= j || Bytes.get b i = '\n' then i else newline b (i + 1) j

(* more bytes after the unread ones, which move to the front of a
   buffer twice as large when they fill it; [false] at the end of the
   file *)
let refill r =
  let unread = r.len - r.pos in
  let buf =
    if unread = Bytes.length r.buf then Bytes.create (2 * Bytes.length r.buf) else r.buf
  in
  Bytes.blit r.buf r.pos buf 0 unread;
  r.buf <- buf;
  r.pos <- 0;
  r.len <- unread;
  let got = input r.ic buf unread (Bytes.length buf - unread) in
  r.len <- unread + got;
  got > 0

(* moves to the next line; [false] at the end of the file *)
let rec next_line r =
  let nl = newline r.buf r.pos r.len in
  if nl < r.len then begin
    r.start <- r.pos;
    r.stop <- nl;
    r.pos <- nl + 1;
    true
  end
  else if refill r then next_line r
  else if r.pos < r.len then begin
    r.start <- r.pos;
    r.stop <- r.len;
    r.pos <- r.len;
    true
  end
  else false

let apply_record t j =
  let ( let* ) = Result.bind in
  match j with
  | Json.Obj [ ("c", fp) ] ->
    let* fp = Json.to_int fp in
    ignore (Configs.intern t.configs fp : int);
    Ok ()
  | Json.Obj [ ("e", d) ] ->
    let* d = Json.to_str d in
    ignore (Events.intern t.events d : int);
    Ok ()
  | Json.Obj [ ("t", triple) ] -> (
    let* triple = Json.to_list triple in
    match triple with
    | [ s; ev; o ] ->
      let* s = Json.to_int s in
      let* ev = Json.to_int ev in
      let* o = Json.to_int o in
      if insert_read t s ev o then Ok ()
      else Error "edge references an id outside the dictionaries"
    | _ -> Error "edge is not a 3-element list")
  | Json.Obj [ ("f", f) ] ->
    let* kind = Result.bind (Json.field "kind" f) Json.to_str in
    let* key = Result.bind (Json.field "key" f) Json.to_str in
    let* v = Json.field "value" f in
    Hashtbl.replace t.facts (kind, key) v;
    Ok ()
  | _ -> Error "unrecognised record"

(* A /3 file is recognised by its first line (the schema marker
   object) and streamed line by line up to its end record, which must
   match the records read and be the last line.  Anything else is
   refused; the error names the schema the file declares — a marker
   line's, or the "schema" member of a whole JSON document such as the
   retired /1 — so an outdated file is told apart from a corrupt one. *)
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
          let r = tally () in
          let fail fmt = Printf.ksprintf (fun e -> Error (path ^ ": " ^ e)) fmt in
          let lines = lines ic in
          let finish e =
            let field name conv = Result.bind (Json.field name e) conv in
            match (field "records" Json.to_int, field "md5" Json.to_str) with
            | Ok n, Ok h when n = r.records && String.equal h (digest r) ->
              if next_line lines then fail "data after the end record" else Ok t
            | _ -> fail "the end record disagrees with the %d records before it" r.records
          in
          (* the line goes into the digest as it was read *)
          let counted () =
            Buffer.add_subbytes r.lines lines.buf lines.start (lines.stop - lines.start);
            Buffer.add_char r.lines '\n';
            counted r ~flush:ignore
          in
          let rec go lineno =
            if not (next_line lines) then fail "no end record after %d records" r.records
            else if apply_compact t lines.buf lines.start lines.stop then begin
              counted ();
              go (lineno + 1)
            end
            else
              match
                Json.of_string (Bytes.sub_string lines.buf lines.start (lines.stop - lines.start))
              with
              | Ok (Json.Obj [ ("end", e) ]) -> finish e
              | parsed -> (
                match Result.bind parsed (apply_record t) with
                | Ok () ->
                  counted ();
                  go (lineno + 1)
                | Error e -> fail "line %d: %s" lineno e)
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
