(* A queued packet, its stamp and its arrival order: the order breaks a
   tie between equal stamps of different flows. *)
type stamped = { stamp : float; order : int; pkt : Pkt.Packet.t }

type flow = {
  rate : float;
  queue : stamped Queue.t;
  mutable vc : float; (* VC_i: the stamp of the flow's last packet *)
}

let earlier a b = a.stamp < b.stamp || (a.stamp = b.stamp && a.order < b.order)

let create ?(qlimit = 100_000) ~rates () =
  let flows = Hashtbl.create 16 in
  List.iter
    (fun (flow, r) ->
      if not (Float.is_finite r && r > 0.) then
        invalid_arg "Virtual_clock.create: rate must be finite and > 0";
      Hashtbl.replace flows flow { rate = r; queue = Queue.create (); vc = 0. })
    rates;
  let order = ref 0 in
  let pkts = ref 0 in
  let bytes = ref 0 in
  let enqueue ~now p =
    match Hashtbl.find_opt flows p.Pkt.Packet.flow with
    | None -> false
    | Some f ->
        if !pkts >= qlimit then false
        else begin
          let stamp =
            Float.max now f.vc +. (float_of_int p.Pkt.Packet.size /. f.rate)
          in
          f.vc <- stamp;
          incr order;
          Queue.push { stamp; order = !order; pkt = p } f.queue;
          incr pkts;
          bytes := !bytes + p.Pkt.Packet.size;
          true
        end
  in
  (* Within a flow both stamp and order increase, so the packet with
     the smallest (stamp, order) of all is the least of the flow heads:
     a scan over the flows, as WFQ and WF2Q+ pick theirs. *)
  let dequeue ~now:_ =
    if !pkts = 0 then None
    else begin
      let best = ref None in
      Hashtbl.iter
        (fun _ f ->
          match (Queue.peek_opt f.queue, !best) with
          | None, _ -> ()
          | Some s, Some b when not (earlier s (Queue.peek b.queue)) -> ()
          | Some _, _ -> best := Some f)
        flows;
      match !best with
      | None -> None
      | Some f ->
          let s = Queue.pop f.queue in
          decr pkts;
          bytes := !bytes - s.pkt.Pkt.Packet.size;
          Some { Scheduler.pkt = s.pkt;
                 cls = string_of_int s.pkt.Pkt.Packet.flow; criterion = "vc" }
    end
  in
  {
    Scheduler.name = "virtual-clock";
    enqueue;
    dequeue;
    dequeue_many = None;
    next_ready =
      (fun ~now ->
        Scheduler.work_conserving_next_ready ~backlog:(fun () -> !pkts) ~now);
    backlog_pkts = (fun () -> !pkts);
    backlog_bytes = (fun () -> !bytes);
    deferred_drops = None;
  }
