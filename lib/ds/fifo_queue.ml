type drop_policy = Tail_drop | Drop_longest

type t = {
  mutable data : Pkt.Packet.t option array;
  mutable head : int;
  mutable size : int;
  mutable byte_count : int;
  mutable drop_count : int;
  mutable limit : int;
  mutable limit_bytes : int;
}

let create ?(limit_pkts = 10_000) ?(limit_bytes = max_int) () =
  if limit_pkts <= 0 then invalid_arg "Fifo_queue.create: limit must be positive";
  if limit_bytes <= 0 then
    invalid_arg "Fifo_queue.create: byte limit must be positive";
  { data = Array.make 8 None; head = 0; size = 0; byte_count = 0;
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

let grow q =
  let n = Array.length q.data in
  let data = Array.make (2 * n) None in
  for i = 0 to q.size - 1 do
    data.(i) <- q.data.((q.head + i) mod n)
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
    q.data.((q.head + q.size) mod Array.length q.data) <- Some p;
    q.size <- q.size + 1;
    q.byte_count <- q.byte_count + p.Pkt.Packet.size;
    true
  end

let pop q =
  if q.size = 0 then None
  else begin
    let p = q.data.(q.head) in
    q.data.(q.head) <- None;
    q.head <- (q.head + 1) mod Array.length q.data;
    q.size <- q.size - 1;
    (match p with
    | Some pkt -> q.byte_count <- q.byte_count - pkt.Pkt.Packet.size
    | None -> assert false);
    p
  end

let drop_tail q =
  if q.size = 0 then None
  else begin
    let i = (q.head + q.size - 1) mod Array.length q.data in
    let p = q.data.(i) in
    q.data.(i) <- None;
    q.size <- q.size - 1;
    (match p with
    | Some pkt -> q.byte_count <- q.byte_count - pkt.Pkt.Packet.size
    | None -> assert false);
    q.drop_count <- q.drop_count + 1;
    p
  end

let peek q = if q.size = 0 then None else q.data.(q.head)

let clear q =
  Array.fill q.data 0 (Array.length q.data) None;
  q.head <- 0;
  q.size <- 0;
  q.byte_count <- 0

let drops q = q.drop_count

let iter f q =
  for i = 0 to q.size - 1 do
    match q.data.((q.head + i) mod Array.length q.data) with
    | Some p -> f p
    | None -> assert false
  done
