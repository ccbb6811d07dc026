(* Slot [i] is empty when both lanes are 0; the all-zero fingerprint itself
   is kept out of the table in [zero]. Linear probing from the [hi] lane,
   which the fingerprint's finalizer has fully mixed; the table doubles
   before it is half full, so probes stay short and always end. *)
type t = {
  mutable his : int array;
  mutable los : int array;
  mutable count : int;  (* table members, [zero] excluded *)
  mutable zero : bool;
}

(* Small: every shard epoch copies the corpus's set. *)
let initial_capacity = 64

let create () =
  {
    his = Array.make initial_capacity 0;
    los = Array.make initial_capacity 0;
    count = 0;
    zero = false;
  }

let rec probe his los mask ~hi ~lo i =
  let h = Array.unsafe_get his i and l = Array.unsafe_get los i in
  if (h = hi && l = lo) || (h = 0 && l = 0) then i
  else probe his los mask ~hi ~lo ((i + 1) land mask)

(* The slot holding [(hi, lo)], or the empty slot where it would go. *)
let slot his los ~hi ~lo =
  let mask = Array.length his - 1 in
  probe his los mask ~hi ~lo (hi land mask)

let mem t ~hi ~lo =
  if hi = 0 && lo = 0 then t.zero
  else
    let i = slot t.his t.los ~hi ~lo in
    t.his.(i) = hi && t.los.(i) = lo

let copy t = { t with his = Array.copy t.his; los = Array.copy t.los }

let grow t =
  let his = Array.make (2 * Array.length t.his) 0 in
  let los = Array.make (2 * Array.length t.los) 0 in
  Array.iteri
    (fun i hi ->
      let lo = t.los.(i) in
      if hi <> 0 || lo <> 0 then begin
        let j = slot his los ~hi ~lo in
        his.(j) <- hi;
        los.(j) <- lo
      end)
    t.his;
  t.his <- his;
  t.los <- los

let add t ~hi ~lo =
  if hi = 0 && lo = 0 then begin
    let fresh = not t.zero in
    t.zero <- true;
    fresh
  end
  else begin
    let i = slot t.his t.los ~hi ~lo in
    if t.his.(i) = hi && t.los.(i) = lo then false
    else begin
      t.his.(i) <- hi;
      t.los.(i) <- lo;
      t.count <- t.count + 1;
      if 2 * t.count > Array.length t.his then grow t;
      true
    end
  end

let clear t =
  t.his <- Array.make initial_capacity 0;
  t.los <- Array.make initial_capacity 0;
  t.count <- 0;
  t.zero <- false

(* OCaml's [%x] prints an int's 63-bit pattern, so each lane is at most
   16 digits and its first digit is at most 7. *)
let to_hex ~hi ~lo = Printf.sprintf "%016x%016x" hi lo

let of_hex s =
  let lane off =
    let rec go i acc =
      if i = off + 16 then Some acc
      else
        let d =
          match s.[i] with
          | '0' .. '9' as c -> Char.code c - Char.code '0'
          | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
          | _ -> -1
        in
        if d < 0 || (i = off && d > 7) then None
        else go (i + 1) ((acc lsl 4) lor d)
    in
    go off 0
  in
  if String.length s <> 32 then None
  else
    match (lane 0, lane 16) with
    | Some hi, Some lo -> Some (hi, lo)
    | _ -> None

let to_sorted_hex t =
  let acc = ref (if t.zero then [ to_hex ~hi:0 ~lo:0 ] else []) in
  Array.iteri
    (fun i hi ->
      let lo = t.los.(i) in
      if hi <> 0 || lo <> 0 then acc := to_hex ~hi ~lo :: !acc)
    t.his;
  List.sort String.compare !acc
