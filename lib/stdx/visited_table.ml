(* Flat, lock-striped open-addressing visited table.

   A stripe stores [lnot key] for each state, [key] being the state's
   62-bit [Fingerprint.to_int]: keys are nonnegative, so every stored
   key is negative and 0 marks an empty slot.  Its states sit in a
   parallel array, created at the stripe's first insertion with that
   state as the filler of every empty slot.  A probe walks linearly
   from the key's low bits to the state's own slot or to the first
   empty one; a stored key equal to the probed one whose state is not
   [equal] is a true fingerprint collision, counted and walked past,
   so colliding states simply sit further along the same walk.  An
   insertion that finds its stripe half full doubles it first, so
   every walk ends at an empty slot.

   Under several workers each operation on a stripe, its doubling
   included, runs under that stripe's mutex, and that is all the
   synchronisation there is: of two workers racing to insert one
   state, the one that takes the lock first wins.  The counters live
   in their stripe and change under the same lock. *)

type 'a stripe = {
  mutable keys : int array;
  mutable states : 'a array;  (* [||] until the first insertion *)
  mutable count : int;
  mutable probes : int;
  mutable collisions : int;
  mutable contention : int;
}

type 'a t = {
  equal : 'a -> 'a -> bool;
  fingerprint : 'a -> Fingerprint.t;
  stripes : 'a stripe array;
  locks : Mutex.t array;  (* one per stripe; empty for one worker *)
  shift : int;  (* [key lsr shift] picks the stripe *)
}

(* every stripe starts at the 64-slot floor and grows by doubling *)
let floor_bits = 6

(* log2 of the stripe count of a table for several workers *)
let stripe_bits = 6

let create ~workers ~equal ~fingerprint () =
  if workers < 1 then invalid_arg "Visited_table.create: workers must be positive";
  let bits = if workers = 1 then 0 else stripe_bits in
  let stripe _ =
    {
      keys = Array.make (1 lsl floor_bits) 0;
      states = [||];
      count = 0;
      probes = 0;
      collisions = 0;
      contention = 0;
    }
  in
  {
    equal;
    fingerprint;
    stripes = Array.init (1 lsl bits) stripe;
    locks = (if workers = 1 then [||] else Array.init (1 lsl bits) (fun _ -> Mutex.create ()));
    shift = 62 - bits;
  }

(* The slot holding [x], or the first empty slot on its walk. *)
let rec walk equal st mask stored x i =
  let k = st.keys.(i) in
  if k = 0 then i
  else if k <> stored then walk equal st mask stored x ((i + 1) land mask)
  else if equal st.states.(i) x then i
  else begin
    st.collisions <- st.collisions + 1;
    walk equal st mask stored x ((i + 1) land mask)
  end

let find t st key x =
  let mask = Array.length st.keys - 1 in
  walk t.equal st mask (lnot key) x (key land mask)

let grow st =
  let keys = st.keys and states = st.states in
  let mask = (2 * Array.length keys) - 1 in
  st.keys <- Array.make (mask + 1) 0;
  st.states <- Array.make (mask + 1) states.(0);
  Array.iteri
    (fun i k ->
      if k <> 0 then begin
        let j = ref (lnot k land mask) in
        while st.keys.(!j) <> 0 do
          j := (!j + 1) land mask
        done;
        st.keys.(!j) <- k;
        st.states.(!j) <- states.(i)
      end)
    keys

let add t st key x =
  st.probes <- st.probes + 1;
  if 2 * st.count >= Array.length st.keys then grow st;
  let i = find t st key x in
  if st.keys.(i) <> 0 then false
  else begin
    if st.count = 0 then st.states <- Array.make (Array.length st.keys) x;
    st.keys.(i) <- lnot key;
    st.states.(i) <- x;
    st.count <- st.count + 1;
    true
  end

let member t st key x =
  st.probes <- st.probes + 1;
  st.keys.(find t st key x) <> 0

(* Run [op] on [x]'s stripe, under the stripe's lock if it has one. *)
let on_stripe op t x =
  let key = Fingerprint.to_int (t.fingerprint x) in
  let s = key lsr t.shift in
  let st = t.stripes.(s) in
  if Array.length t.locks = 0 then op t st key x
  else begin
    let lock = t.locks.(s) in
    if not (Mutex.try_lock lock) then begin
      Mutex.lock lock;
      st.contention <- st.contention + 1
    end;
    match op t st key x with
    | r ->
      Mutex.unlock lock;
      r
    | exception e ->
      Mutex.unlock lock;
      raise e
  end

let add_if_absent t x = on_stripe add t x
let mem t x = on_stripe member t x
let sum f t = Array.fold_left (fun acc st -> acc + f st) 0 t.stripes
let bindings t = sum (fun st -> st.count) t
let capacity t = sum (fun st -> Array.length st.keys) t
let initial_bits _ = floor_bits
let occupancy t = float_of_int (bindings t) /. float_of_int (capacity t)
let probes t = sum (fun st -> st.probes) t
let collision_fallbacks t = sum (fun st -> st.collisions) t
let lock_contention t = sum (fun st -> st.contention) t
