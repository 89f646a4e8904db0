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

let dequeue_burst t ~now ~max =
  match t.dequeue_many with
  | Some f -> f ~now ~max
  | None ->
      let rec go i acc =
        if i >= max then List.rev acc
        else
          match t.dequeue ~now with
          | None -> List.rev acc
          | Some s -> go (i + 1) (s :: acc)
      in
      go 0 []
