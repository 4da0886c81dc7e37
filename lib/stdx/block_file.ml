let record_width = 16
let key_width = 8
let block_records = 256
let block_bytes = record_width * block_records

(* ----- fixed-width record codec ----- *)

(* A record is the 8-byte big-endian key followed by the 8-byte
   big-endian payload.  Big-endian is what makes [String.compare] on
   keys coincide with numeric order, so the run files below can be
   binary-searched as flat strings. *)
let encode_record buf off ~key ~payload =
  if String.length key <> key_width then
    invalid_arg "Block_file.encode_record: key must be 8 bytes";
  Bytes.blit_string key 0 buf off key_width;
  Bytes.set_int64_be buf (off + key_width) (Int64.of_int payload)

let decode_key s off = String.sub s off key_width
let decode_payload s off = Int64.to_int (String.get_int64_be s (off + key_width))

(* ----- sorted runs ----- *)

(* Probes used to open/read/close the run file every time — 21k+
   opens in the n=3 budget-500 check.  Each store keeps the channels
   of its runs in a small LRU (path-keyed) that absorbs almost all of
   them while still bounding descriptors when thousands of tiny runs
   exist; the cache evicting a channel closes it.  A store and its
   cache are used from one domain, so nothing here is shared between
   domains. *)
type cache = (string, in_channel) Lru.t

let cache_capacity = 64

let cache () : cache =
  Lru.create ~on_evict:(fun _ ic -> close_in_noerr ic) ~capacity:cache_capacity ()

type t = {
  path : string;
  cache : cache;
  length : int; (* records *)
  write_bytes : int;
  fences : string array; (* first key of each block, in block order *)
  mutable probes : int;
  mutable read_bytes : int;
  mutable opened : bool; (* some probe has opened the file *)
  mutable reopens : int; (* opens after the first — descriptor-cache misses *)
}

let create ~cache ~path entries =
  let n = Array.length entries in
  let oc = open_out_bin path in
  let buf = Bytes.create record_width in
  let fences = Array.make ((n + block_records - 1) / block_records) "" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iteri
        (fun i (key, payload) ->
          if i > 0 && String.compare (fst entries.(i - 1)) key >= 0 then
            invalid_arg "Block_file.create: keys must be strictly ascending";
          if i mod block_records = 0 then fences.(i / block_records) <- key;
          encode_record buf 0 ~key ~payload;
          output_bytes oc buf)
        entries);
  {
    path;
    cache;
    length = n;
    write_bytes = n * record_width;
    fences;
    probes = 0;
    read_bytes = 0;
    opened = false;
    reopens = 0;
  }

let length t = t.length
let write_bytes t = t.write_bytes
let probes t = t.probes
let read_bytes t = t.read_bytes
let reopens t = t.reopens
let path t = t.path

(* greatest block whose fence is <= key; None when the key sorts
   before every record *)
let block_of t key =
  if Array.length t.fences = 0 || String.compare key t.fences.(0) < 0 then None
  else begin
    let lo = ref 0 and hi = ref (Array.length t.fences - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if String.compare t.fences.(mid) key <= 0 then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

(* the run's cached channel, opened (and counted) on a miss *)
let channel t =
  match Lru.find t.cache t.path with
  | Some ic -> ic
  | None ->
    let ic = open_in_bin t.path in
    if t.opened then t.reopens <- t.reopens + 1 else t.opened <- true;
    Lru.add t.cache t.path ic;
    ic

let probe t key =
  if String.length key <> key_width then invalid_arg "Block_file.probe: key must be 8 bytes";
  t.probes <- t.probes + 1;
  match block_of t key with
  | None -> None
  | Some b ->
    let off = b * block_bytes in
    let len = min block_bytes ((t.length * record_width) - off) in
    let ic = channel t in
    seek_in ic off;
    let s = really_input_string ic len in
    t.read_bytes <- t.read_bytes + len;
    let nrec = len / record_width in
    let lo = ref 0 and hi = ref (nrec - 1) and found = ref None in
    while !found = None && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let c = String.compare (decode_key s (mid * record_width)) key in
      if c = 0 then found := Some (decode_payload s (mid * record_width))
      else if c < 0 then lo := mid + 1
      else hi := mid - 1
    done;
    !found

let close t = Option.iter close_in_noerr (Lru.remove t.cache t.path)

let delete t =
  close t;
  try Sys.remove t.path with Sys_error _ -> ()
