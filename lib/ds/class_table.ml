module Fq = Fifo_queue

(* Slot [i] of [t.slots] holds class [i]; the slot of a removed class
   repeats the root, so the table keeps no removed class alive, and its
   parent link reads [gone]. [links] holds four ints per id (see [get]). The
   children of [p] form a circular ring through the sibling links,
   entered at [p]'s first child, the oldest: ids only grow, so
   appending just before it keeps creation order. [heap.(0 ..
   hlen-1)] holds the victim ids and [pos] each id's heap index or -1;
   both are empty unless evicting. *)
type 'c store = {
  what : string;
  id_of : 'c -> int;
  name_of : 'c -> string;
  queue_of : 'c -> Fq.t;
  on_evict : 'c -> int -> unit;
  mutable next : int;
  mutable links : int array;
  names : (string, int list) Hashtbl.t; (* live ids, earliest first *)
  mutable heap : int array;
  mutable hlen : int;
  mutable pos : int array;
}

type 'c t = {
  mutable pkts : int;
  mutable bytes : int;
  mutable max_pkts : int;
  mutable max_bytes : int;
  mutable evicting : bool;
  mutable on_drop : float -> 'c -> Pkt.Packet.t -> unit;
  mutable slots : 'c array;
  s : 'c store;
}

let gone = -2

let create ~what ~id ~name ~queue ?(on_evict = fun _ _ -> ()) () =
  {
    pkts = 0;
    bytes = 0;
    max_pkts = max_int;
    max_bytes = max_int;
    evicting = false;
    on_drop = (fun _ _ _ -> ());
    slots = [||];
    s =
      {
        what;
        id_of = id;
        name_of = name;
        queue_of = queue;
        on_evict;
        next = 0;
        links = [||];
        names = Hashtbl.create 64;
        heap = [||];
        hlen = 0;
        pos = [||];
      };
  }

let fail s fmt = Printf.ksprintf (fun m -> invalid_arg (s.what ^ "." ^ m)) fmt
let next_id t = t.s.next

(* the links of id [i]: its parent, first child, next and previous
   sibling, side by side so that one class's links share a cache line *)
let up = 0
let first = 1
let nxt = 2
let prv = 3
let[@inline] get s i link = s.links.((4 * i) + link)
let set s i link v = s.links.((4 * i) + link) <- v
let[@inline] live s i = get s i up <> gone
let queue t id = t.s.queue_of t.slots.(id)
let is_leaf t c = get t.s (t.s.id_of c) first < 0

(* --- the victim heap ------------------------------------------------ *)

(* [a] before [b]: more queued bytes, then the smaller id *)
let before t a b =
  let ba = Fq.bytes (queue t a) and bb = Fq.bytes (queue t b) in
  ba > bb || (ba = bb && a < b)

let swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.pos.(b) <- i;
  s.heap.(j) <- a;
  s.pos.(a) <- j

let rec down t i =
  let s = t.s in
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < s.hlen && before t s.heap.(l + 1) s.heap.(l) then l + 1 else l
  in
  if c < s.hlen && before t s.heap.(c) s.heap.(i) then begin
    swap s i c;
    down t c
  end

(* move the entry at [i] up, else down, to its place *)
let rec sift t i =
  let s = t.s in
  let p = (i - 1) / 2 in
  if i > 0 && before t s.heap.(i) s.heap.(p) then begin
    swap s i p;
    sift t p
  end
  else down t i

let push s id =
  s.heap.(s.hlen) <- id;
  s.pos.(id) <- s.hlen;
  s.hlen <- s.hlen + 1

let rekey t id =
  let s = t.s in
  let i = s.pos.(id) in
  if Fq.length (queue t id) >= 2 then begin
    if i < 0 then push s id;
    sift t s.pos.(id)
  end
  else if i >= 0 then begin
    s.hlen <- s.hlen - 1;
    swap s i s.hlen;
    s.pos.(id) <- -1;
    if i < s.hlen then sift t i
  end

let victim t = if t.s.hlen = 0 then None else Some t.slots.(t.s.heap.(0))

let set_drop_policy t (p : Fq.drop_policy) =
  let s = t.s in
  match p with
  | Drop_longest when not t.evicting ->
      s.heap <- Array.make (Array.length t.slots) 0;
      s.pos <- Array.make (Array.length t.slots) (-1);
      for id = 0 to s.next - 1 do
        if live s id && Fq.length (queue t id) >= 2 then push s id
      done;
      for i = (s.hlen / 2) - 1 downto 0 do
        down t i
      done;
      t.evicting <- true
  | Tail_drop when t.evicting ->
      s.heap <- [||];
      s.pos <- [||];
      s.hlen <- 0;
      t.evicting <- false
  | Drop_longest | Tail_drop -> ()

let drop_policy t : Fq.drop_policy =
  if t.evicting then Drop_longest else Tail_drop

(* Terminates: every round takes a packet from a queue of two or more. *)
let rec make_room t ~now size =
  (t.pkts < t.max_pkts && t.bytes + size <= t.max_bytes)
  || t.s.hlen > 0
     && begin
          let c = t.slots.(t.s.heap.(0)) in
          let p = Fq.drop_tail (t.s.queue_of c) in
          t.pkts <- t.pkts - 1;
          t.bytes <- t.bytes - p.Pkt.Packet.size;
          rekey t t.s.heap.(0);
          t.s.on_evict c p.Pkt.Packet.size;
          t.on_drop now c p;
          make_room t ~now size
        end

let positive s op what = function
  | Some n when n <= 0 -> fail s "%s: %s must be positive" op what
  | _ -> ()

let set_aggregate_limit t ?pkts ?bytes () =
  positive t.s "set_aggregate_limit" "limit" pkts;
  positive t.s "set_aggregate_limit" "byte limit" bytes;
  Option.iter (fun n -> t.max_pkts <- n) pkts;
  Option.iter (fun n -> t.max_bytes <- n) bytes

let check_limits t c ?pkts ?bytes () =
  if pkts <> None || bytes <> None then begin
    if t.s.id_of c = 0 || not (is_leaf t c) then
      fail t.s "modify_class: class is not a leaf";
    positive t.s "modify_class" "limit" pkts;
    positive t.s "modify_class" "byte limit" bytes
  end

(* --- classes -------------------------------------------------------- *)

let add t ?parent c =
  let s = t.s and id = t.s.next in
  if s.id_of c <> id then fail s "add: class built with a stale id";
  if id = Array.length t.slots then begin
    let n = max 16 (2 * id) in
    let ext a m x =
      let b = Array.make m x in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.slots <- ext t.slots n (if id = 0 then c else t.slots.(0));
    s.links <- ext s.links (4 * n) 0;
    if t.evicting then begin
      s.heap <- ext s.heap n 0;
      s.pos <- ext s.pos n (-1)
    end
  end;
  t.slots.(id) <- c;
  s.next <- id + 1;
  set s id first (-1);
  (match parent with
  | None -> set s id up (-1)
  | Some p ->
      let p = s.id_of p in
      let f = get s p first in
      set s id up p;
      if f < 0 then begin
        set s p first id;
        set s id nxt id;
        set s id prv id
      end
      else begin
        set s (get s f prv) nxt id;
        set s id prv (get s f prv);
        set s id nxt f;
        set s f prv id
      end);
  let name = s.name_of c in
  let same = Option.value ~default:[] (Hashtbl.find_opt s.names name) in
  Hashtbl.replace s.names name (same @ [ id ])

let remove t c ~active =
  let s = t.s and id = t.s.id_of c in
  if id = 0 then fail s "remove_class: cannot remove the root";
  if not (is_leaf t c) then fail s "remove_class: class still has children";
  if not (Fq.is_empty (s.queue_of c)) then
    fail s "remove_class: class has queued packets";
  if active then fail s "remove_class: class is active";
  let p = get s id up and nx = get s id nxt and pv = get s id prv in
  if nx = id then set s p first (-1)
  else begin
    set s pv nxt nx;
    set s nx prv pv;
    if get s p first = id then set s p first nx
  end;
  set s id up gone;
  t.slots.(id) <- t.slots.(0);
  let name = s.name_of c in
  match List.filter (( <> ) id) (Hashtbl.find s.names name) with
  | [] -> Hashtbl.remove s.names name
  | same -> Hashtbl.replace s.names name same

(* every id-level reader's bounds and liveness check, inlined into each
   (lib/ds builds without -inline) *)
let[@inline] live_id t i =
  if i < 0 || i >= t.s.next || not (live t.s i) then
    fail t.s "class_of_id: unknown class id %d" i;
  i

let[@inline] class_of_id t i = Array.unsafe_get t.slots (live_id t i)
let id t c = t.s.id_of c
let name_of_id t i = t.s.name_of (class_of_id t i)
let queue_of_id t i = t.s.queue_of (class_of_id t i)
let is_leaf_id t i = get t.s (live_id t i) first < 0

let parent_of_id t i =
  let p = get t.s (live_id t i) up in
  if p < 0 then None else Some p

let find_id t name =
  match Hashtbl.find_opt t.s.names name with
  | Some (id :: _) -> Some id
  | Some [] | None -> None

let find t name = Option.map (Array.get t.slots) (find_id t name)

let ids t =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (if live t.s i then i :: acc else acc)
  in
  go (t.s.next - 1) []

let classes t = List.map (Array.get t.slots) (ids t)

(* the ring backwards from its newest member, so oldest first; at
   most [next] steps, so a broken ring still ends (in the audit) *)
let children t c =
  let s = t.s in
  let f = get s (s.id_of c) first in
  let rec go i n acc =
    let acc = t.slots.(i) :: acc in
    if i = f || n >= s.next then acc else go (get s i prv) (n + 1) acc
  in
  if f < 0 then [] else go (get s f prv) 1 []

(* --- audit ---------------------------------------------------------- *)

let audit t =
  let s = t.s and errs = ref [] in
  let err fmt = Format.kasprintf (fun m -> errs := m :: !errs) fmt in
  (* what the links, the index and the counters must say, from [up] *)
  let kids = Array.make s.next [] and names = Hashtbl.create 16 in
  let pkts = ref 0 and bytes = ref 0 and twos = ref 0 in
  for id = s.next - 1 downto 0 do
    if live s id then begin
      let c = t.slots.(id) and p = get s id up in
      if s.id_of c <> id then
        err "class table: slot %d holds %d" id (s.id_of c);
      if (id = 0) <> (p = -1) || (p >= 0 && not (live s p)) then
        err "class table: %d has parent %d" id p
      else if p >= 0 then kids.(p) <- id :: kids.(p);
      let name = s.name_of c in
      let same = Option.value ~default:[] (Hashtbl.find_opt names name) in
      Hashtbl.replace names name (id :: same);
      pkts := !pkts + Fq.length (s.queue_of c);
      bytes := !bytes + Fq.bytes (s.queue_of c);
      if Fq.length (s.queue_of c) >= 2 then incr twos
    end
  done;
  for p = 0 to s.next - 1 do
    if live s p then begin
      if List.map s.id_of (children t t.slots.(p)) <> kids.(p) then
        err "class table: the ring of %d is not its children in id order" p;
      if p > 0 && get s (get s p prv) nxt <> p then
        err "class table: sibling links broken at %d" p
    end
  done;
  if
    Hashtbl.length s.names <> Hashtbl.length names
    || Hashtbl.fold
         (fun n ids bad -> bad || Hashtbl.find_opt s.names n <> Some ids)
         names false
  then err "byname: not the live classes of each name, earliest first";
  if (t.pkts, t.bytes) <> (!pkts, !bytes) then
    err "backlog: %d/%dB counted, the queues hold %d/%dB" t.pkts t.bytes !pkts
      !bytes;
  (* distinct live queues of two, in heap order, as many as there are *)
  for i = 0 to s.hlen - 1 do
    let id = s.heap.(i) in
    if
      (not (id < s.next && live s id && s.pos.(id) = i))
      || Fq.length (queue t id) < 2
      || (i > 0 && before t id s.heap.((i - 1) / 2))
    then err "victim heap: slot %d holds %d" i id
  done;
  if s.hlen <> (if t.evicting then !twos else 0) then
    err "victim heap: %d members, %d queues of two" s.hlen !twos;
  List.rev !errs
