type drop_policy = Tail_drop | Drop_longest

(* A ring of packets whose length is a power of two, so an index wraps
   with [land mask]. Free slots hold [vacant], never read, so a queued
   packet costs its slot and no option cell. *)
type t = {
  mutable data : Pkt.Packet.t array;
  mutable head : int;
  mutable size : int;
  mutable byte_count : int;
  mutable drop_count : int;
  mutable limit : int;
  mutable limit_bytes : int;
}

let vacant = Pkt.Packet.make ~flow:0 ~size:1 ~seq:0 ~arrival:0.

let create ?(limit_pkts = 10_000) ?(limit_bytes = max_int) () =
  if limit_pkts <= 0 then invalid_arg "Fifo_queue.create: limit must be positive";
  if limit_bytes <= 0 then
    invalid_arg "Fifo_queue.create: byte limit must be positive";
  { data = Array.make 8 vacant; head = 0; size = 0; byte_count = 0;
    drop_count = 0; limit = limit_pkts; limit_bytes }

let length q = q.size
let bytes q = q.byte_count
let is_empty q = q.size = 0
let limit_pkts q = q.limit
let limit_bytes q = q.limit_bytes

let set_limits ?pkts ?bytes q =
  (match pkts with
  | Some n ->
      if n <= 0 then invalid_arg "Fifo_queue.set_limits: limit must be positive";
      q.limit <- n
  | None -> ());
  match bytes with
  | Some n ->
      if n <= 0 then
        invalid_arg "Fifo_queue.set_limits: byte limit must be positive";
      q.limit_bytes <- n
  | None -> ()

let can_accept q sz =
  q.size < q.limit && q.byte_count + sz <= q.limit_bytes

let count_drop q = q.drop_count <- q.drop_count + 1

let[@inline] slot q i = (q.head + i) land (Array.length q.data - 1)

let grow q =
  let n = Array.length q.data in
  let data = Array.make (2 * n) vacant in
  for i = 0 to q.size - 1 do
    data.(i) <- q.data.(slot q i)
  done;
  q.data <- data;
  q.head <- 0

let push q p =
  if not (can_accept q p.Pkt.Packet.size) then begin
    q.drop_count <- q.drop_count + 1;
    false
  end
  else begin
    if q.size = Array.length q.data then grow q;
    Array.unsafe_set q.data (slot q q.size) p;
    q.size <- q.size + 1;
    q.byte_count <- q.byte_count + p.Pkt.Packet.size;
    true
  end

let empty name = invalid_arg ("Fifo_queue." ^ name ^ ": empty queue")

let take q =
  if q.size = 0 then empty "take";
  let p = Array.unsafe_get q.data q.head in
  Array.unsafe_set q.data q.head vacant;
  q.head <- slot q 1;
  q.size <- q.size - 1;
  q.byte_count <- q.byte_count - p.Pkt.Packet.size;
  p

let head q =
  if q.size = 0 then empty "head";
  Array.unsafe_get q.data q.head

let drop_tail q =
  if q.size = 0 then empty "drop_tail";
  let i = slot q (q.size - 1) in
  let p = Array.unsafe_get q.data i in
  Array.unsafe_set q.data i vacant;
  q.size <- q.size - 1;
  q.byte_count <- q.byte_count - p.Pkt.Packet.size;
  q.drop_count <- q.drop_count + 1;
  p

let clear q =
  Array.fill q.data 0 (Array.length q.data) vacant;
  q.head <- 0;
  q.size <- 0;
  q.byte_count <- 0

let drops q = q.drop_count

let iter f q =
  for i = 0 to q.size - 1 do
    f q.data.(slot q i)
  done
