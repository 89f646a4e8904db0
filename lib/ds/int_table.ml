(* [used] marks the slots that hold a binding, so no key value is
   reserved as "empty". A free slot's value is [Obj.magic 0], never
   read: dropping a binding also drops the table's reference to its
   value. *)
type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable used : Bytes.t;
  mutable bits : int; (* the slot count is [1 lsl bits] *)
  mutable size : int;
}

let free () : 'a = Obj.magic 0

(* Fibonacci hashing: the top [bits] bits of the key times 2^63/phi
   (odd). Dense, strided and negative keys all spread. *)
let[@inline] home bits k = (k * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - bits)

let[@inline] is_used t i = Bytes.unsafe_get t.used i <> '\000'

let init t bits =
  let n = 1 lsl bits in
  t.keys <- Array.make n 0;
  t.vals <- Array.make n (free ());
  t.used <- Bytes.make n '\000';
  t.bits <- bits;
  t.size <- 0

let create n =
  let bits = ref 3 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  let t =
    { keys = [||]; vals = [||]; used = Bytes.empty; bits = 0; size = 0 }
  in
  init t !bits;
  t

let length t = t.size

(* The slot holding [k], or the free slot that ends its probe run.
   Terminates: at most half the slots are used. *)
let rec probe t k i =
  if (not (is_used t i)) || Array.unsafe_get t.keys i = k then i
  else probe t k ((i + 1) land (Array.length t.keys - 1))

let[@inline] slot t k = probe t k (home t.bits k)

let find t k =
  let i = slot t k in
  if is_used t i then Array.unsafe_get t.vals i else raise Not_found

let find_opt t k =
  let i = slot t k in
  if is_used t i then Some (Array.unsafe_get t.vals i) else None

let mem t k = is_used t (slot t k)

let set t i k v =
  Bytes.unsafe_set t.used i '\001';
  Array.unsafe_set t.keys i k;
  Array.unsafe_set t.vals i v

let rec replace t k v =
  let i = slot t k in
  if is_used t i then Array.unsafe_set t.vals i v
  else if 2 * (t.size + 1) > Array.length t.keys then begin
    let keys = t.keys and vals = t.vals and used = t.used in
    init t (t.bits + 1);
    Bytes.iteri
      (fun j u -> if u <> '\000' then replace t keys.(j) vals.(j))
      used;
    replace t k v
  end
  else begin
    set t i k v;
    t.size <- t.size + 1
  end

(* Backward-shift deletion: walk the probe run after the hole and pull
   back every entry whose home is not between the hole and itself, so
   each remaining key is still reachable from its home without a
   gap. *)
let remove t k =
  let i = slot t k in
  if is_used t i then begin
    let mask = Array.length t.keys - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while is_used t !j do
      let kj = Array.unsafe_get t.keys !j in
      if (!j - home t.bits kj) land mask >= (!j - !hole) land mask then begin
        set t !hole kj (Array.unsafe_get t.vals !j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    Bytes.unsafe_set t.used !hole '\000';
    Array.unsafe_set t.vals !hole (free ());
    t.size <- t.size - 1
  end

let iter f t =
  for i = 0 to Array.length t.keys - 1 do
    if is_used t i then f t.keys.(i) t.vals.(i)
  done

let fold f t acc =
  let acc = ref acc in
  for i = 0 to Array.length t.keys - 1 do
    if is_used t i then acc := f t.keys.(i) t.vals.(i) !acc
  done;
  !acc
