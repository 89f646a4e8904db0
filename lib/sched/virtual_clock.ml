type stamped = { stamp : float; order : int; pkt : Pkt.Packet.t }

module H = Ds.Binary_heap.Make (struct
  type t = stamped

  let compare a b =
    let c = Float.compare a.stamp b.stamp in
    if c <> 0 then c else Int.compare a.order b.order
end)

let create ?(qlimit = 100_000) ~rates () =
  let rate_tbl = Hashtbl.create 16 in
  List.iter
    (fun (flow, r) ->
      if not (Float.is_finite r && r > 0.) then
        invalid_arg "Virtual_clock.create: rate must be finite and > 0";
      Hashtbl.replace rate_tbl flow r)
    rates;
  let vc = Hashtbl.create 16 in
  let heap = H.create () in
  let order = ref 0 in
  let bytes = ref 0 in
  let enqueue ~now p =
    match Hashtbl.find_opt rate_tbl p.Pkt.Packet.flow with
    | None -> false
    | Some r ->
        if H.length heap >= qlimit then false
        else begin
          let prev =
            match Hashtbl.find_opt vc p.Pkt.Packet.flow with
            | Some v -> v
            | None -> 0.
          in
          let stamp =
            Float.max now prev +. (float_of_int p.Pkt.Packet.size /. r)
          in
          Hashtbl.replace vc p.Pkt.Packet.flow stamp;
          incr order;
          H.add heap { stamp; order = !order; pkt = p };
          bytes := !bytes + p.Pkt.Packet.size;
          true
        end
  in
  let dequeue ~now:_ =
    match H.pop_min heap with
    | None -> None
    | Some s ->
        bytes := !bytes - s.pkt.Pkt.Packet.size;
        Some { Scheduler.pkt = s.pkt;
               cls = string_of_int s.pkt.Pkt.Packet.flow; criterion = "vc" }
  in
  {
    Scheduler.name = "virtual-clock";
    enqueue;
    dequeue;
    dequeue_many = None;
    next_ready =
      (fun ~now ->
        Scheduler.work_conserving_next_ready
          ~backlog:(fun () -> H.length heap)
          ~now);
    backlog_pkts = (fun () -> H.length heap);
    backlog_bytes = (fun () -> !bytes);
    deferred_drops = None;
  }
