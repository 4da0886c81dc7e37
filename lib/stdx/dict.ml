module Make (H : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (H)

  type key = H.t

  type t = {
    ids : int Tbl.t;
    mutable rev : key array; (* id -> value; slots [0, card) live *)
    mutable card : int;
  }

  let create () = { ids = Tbl.create 256; rev = [||]; card = 0 }
  let cardinal d = d.card

  (* the reverse array starts empty and is made (or doubled) on the
     first intern that does not fit, filled with the value at hand *)
  let intern d v =
    match Tbl.find d.ids v with
    | id -> id
    | exception Not_found ->
      let id = d.card in
      let cap = Array.length d.rev in
      if id >= cap then begin
        let rev = Array.make (max 16 (2 * cap)) v in
        Array.blit d.rev 0 rev 0 cap;
        d.rev <- rev
      end;
      d.rev.(id) <- v;
      d.card <- id + 1;
      Tbl.add d.ids v id;
      id

  let find d v = Tbl.find_opt d.ids v

  let get d id =
    if id < 0 || id >= d.card then invalid_arg "Dict.get: unassigned id";
    d.rev.(id)

  let iter f d =
    for id = 0 to d.card - 1 do
      f id d.rev.(id)
    done
end
