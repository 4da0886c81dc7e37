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

(* ----- bounded descriptor cache ----- *)

(* Probes used to open/read/close the run file every time — 21k+
   opens in the n=3 budget-500 check.  A small process-global LRU of
   open channels (path-keyed) absorbs almost all of them while still
   bounding descriptors when thousands of tiny runs exist.  The
   discipline is claim-based so no channel is ever shared: a probe
   {e removes} the channel from the cache (or opens one on a miss),
   performs its seek/read with exclusive ownership, and re-inserts it
   afterwards — the registry mutex is never held across I/O, and a
   channel evicted by a re-insert is by construction unclaimed, so
   closing it in the eviction hook is safe.  Two domains probing the
   same run concurrently just cost one transient extra descriptor. *)
let fd_cache_capacity = 64
let fd_lock = Mutex.create ()

let fd_cache : (string, in_channel) Lru.t =
  Lru.create ~on_evict:(fun _ ic -> close_in_noerr ic) ~capacity:fd_cache_capacity ()

(* claimed channel plus whether it was freshly opened (a cache miss) *)
let claim_channel path =
  Mutex.lock fd_lock;
  let cached = Lru.remove fd_cache path in
  Mutex.unlock fd_lock;
  match cached with Some ic -> (ic, false) | None -> (open_in_bin path, true)

let release_channel path ic =
  Mutex.lock fd_lock;
  (match Lru.find fd_cache path with
  | Some _ -> close_in_noerr ic (* a concurrent probe re-inserted first *)
  | None -> Lru.add fd_cache path ic);
  Mutex.unlock fd_lock

let drop_channel path =
  Mutex.lock fd_lock;
  let cached = Lru.remove fd_cache path in
  Mutex.unlock fd_lock;
  Option.iter close_in_noerr cached

(* ----- sorted runs ----- *)

(* Between probes a run's descriptor lives (if anywhere) in the
   process-global cache above, so a search that writes thousands of
   small runs (tiny memory budgets) still cannot exhaust the fd
   table.  The per-run mutex only guards the counters. *)
type t = {
  path : string;
  lock : Mutex.t;
  length : int; (* records *)
  write_bytes : int;
  fences : string array; (* first key of each block, in block order *)
  mutable probes : int;
  mutable read_bytes : int;
  mutable opened : bool; (* some probe has opened the file *)
  mutable reopens : int; (* opens after the first — descriptor-cache misses *)
}

let create ~path entries =
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
    lock = Mutex.create ();
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

let probe t key =
  if String.length key <> key_width then invalid_arg "Block_file.probe: key must be 8 bytes";
  match block_of t key with
  | None ->
    Mutex.lock t.lock;
    t.probes <- t.probes + 1;
    Mutex.unlock t.lock;
    None
  | Some b ->
    let off = b * block_bytes in
    let len = min block_bytes ((t.length * record_width) - off) in
    let ic, fresh = claim_channel t.path in
    let s =
      try
        seek_in ic off;
        let s = really_input_string ic len in
        release_channel t.path ic;
        s
      with e ->
        close_in_noerr ic;
        raise e
    in
    Mutex.lock t.lock;
    t.probes <- t.probes + 1;
    t.read_bytes <- t.read_bytes + len;
    if fresh then
      if t.opened then t.reopens <- t.reopens + 1 else t.opened <- true;
    Mutex.unlock t.lock;
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

let close t = drop_channel t.path

let delete t =
  drop_channel t.path;
  try Sys.remove t.path with Sys_error _ -> ()
