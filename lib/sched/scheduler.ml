type served = { pkt : Pkt.Packet.t; cls : string; criterion : string }

type t = {
  name : string;
  enqueue : now:float -> Pkt.Packet.t -> bool;
  dequeue : now:float -> served option;
  dequeue_many : (now:float -> max:int -> served list) option;
  next_ready : now:float -> float option;
  backlog_pkts : unit -> int;
  backlog_bytes : unit -> int;
  deferred_drops : (unit -> int) option;
}

let work_conserving_next_ready ~backlog ~now =
  if backlog () > 0 then Some now else None

(* the singles loop, a top-level function so a poll allocates no
   closure: every simulated poll takes it with [max = 1] *)
let rec singles t ~now i max =
  if i >= max then []
  else
    match t.dequeue ~now with
    | None -> []
    | Some s -> s :: singles t ~now (i + 1) max

let dequeue_burst t ~now ~max =
  match t.dequeue_many with
  | Some f -> f ~now ~max
  | None -> singles t ~now 0 max
