(* Flat open-addressing visited table.

   The table stores [lnot key] for each state, [key] being the state's
   62-bit [Fingerprint.to_int]: keys are nonnegative, so every stored
   key is negative and 0 marks an empty slot.  Its states sit in a
   parallel array, created at the first insertion with that state as
   the filler of every empty slot.  A probe walks linearly from the
   key's low bits to the state's own slot or to the first empty one; a
   stored key equal to the probed one whose state is not [equal] is a
   true fingerprint collision, counted and walked past, so colliding
   states simply sit further along the same walk.  An insertion that
   finds the table half full doubles it first, so every walk ends at
   an empty slot. *)

type 'a t = {
  equal : 'a -> 'a -> bool;
  fingerprint : 'a -> Fingerprint.t;
  mutable keys : int array;
  mutable states : 'a array;  (* [||] until the first insertion *)
  mutable count : int;
  mutable probes : int;
  mutable collisions : int;
}

(* the table starts at the 64-slot floor and grows by doubling *)
let floor_bits = 6

let create ~equal ~fingerprint () =
  {
    equal;
    fingerprint;
    keys = Array.make (1 lsl floor_bits) 0;
    states = [||];
    count = 0;
    probes = 0;
    collisions = 0;
  }

(* The slot holding [x], or the first empty slot on its walk. *)
let rec walk t mask stored x i =
  let k = t.keys.(i) in
  if k = 0 then i
  else if k <> stored then walk t mask stored x ((i + 1) land mask)
  else if t.equal t.states.(i) x then i
  else begin
    t.collisions <- t.collisions + 1;
    walk t mask stored x ((i + 1) land mask)
  end

let find t key x =
  let mask = Array.length t.keys - 1 in
  walk t mask (lnot key) x (key land mask)

let grow t =
  let keys = t.keys and states = t.states in
  let mask = (2 * Array.length keys) - 1 in
  t.keys <- Array.make (mask + 1) 0;
  t.states <- Array.make (mask + 1) states.(0);
  Array.iteri
    (fun i k ->
      if k <> 0 then begin
        let j = ref (lnot k land mask) in
        while t.keys.(!j) <> 0 do
          j := (!j + 1) land mask
        done;
        t.keys.(!j) <- k;
        t.states.(!j) <- states.(i)
      end)
    keys

let add_if_absent t x =
  let key = Fingerprint.to_int (t.fingerprint x) in
  t.probes <- t.probes + 1;
  if 2 * t.count >= Array.length t.keys then grow t;
  let i = find t key x in
  if t.keys.(i) <> 0 then false
  else begin
    if t.count = 0 then t.states <- Array.make (Array.length t.keys) x;
    t.keys.(i) <- lnot key;
    t.states.(i) <- x;
    t.count <- t.count + 1;
    true
  end

let mem t x =
  let key = Fingerprint.to_int (t.fingerprint x) in
  t.probes <- t.probes + 1;
  t.keys.(find t key x) <> 0

let bindings t = t.count
let capacity t = Array.length t.keys
let initial_bits _ = floor_bits
let occupancy t = float_of_int t.count /. float_of_int (capacity t)
let probes t = t.probes
let collision_fallbacks t = t.collisions
