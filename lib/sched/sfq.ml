type stamped = { start : float; order : int; pkt : Pkt.Packet.t }

module H = Ds.Binary_heap.Make (struct
  type t = stamped

  let compare a b =
    let c = Float.compare a.start b.start in
    if c <> 0 then c else Int.compare a.order b.order
end)

let create ?(qlimit = 100_000) ~weights () =
  let w_tbl = Hashtbl.create 16 in
  List.iter
    (fun (flow, w) ->
      if w <= 0. then invalid_arg "Sfq.create: weight must be > 0";
      Hashtbl.replace w_tbl flow w)
    weights;
  let finish = Hashtbl.create 16 in
  let heap = H.create () in
  let v = ref 0. in
  let order = ref 0 in
  let bytes = ref 0 in
  let enqueue ~now:_ p =
    match Hashtbl.find_opt w_tbl p.Pkt.Packet.flow with
    | None -> false
    | Some w ->
        if H.length heap >= qlimit then false
        else begin
          let f_prev =
            match Hashtbl.find_opt finish p.Pkt.Packet.flow with
            | Some f -> f
            | None -> 0.
          in
          let start = Float.max !v f_prev in
          Hashtbl.replace finish p.Pkt.Packet.flow
            (start +. (float_of_int p.Pkt.Packet.size /. w));
          incr order;
          H.add heap { start; order = !order; pkt = p };
          bytes := !bytes + p.Pkt.Packet.size;
          true
        end
  in
  let dequeue ~now:_ =
    match H.pop_min heap with
    | None -> None
    | Some s ->
        v := s.start;
        bytes := !bytes - s.pkt.Pkt.Packet.size;
        Some { Scheduler.pkt = s.pkt;
               cls = string_of_int s.pkt.Pkt.Packet.flow; criterion = "sfq" }
  in
  {
    Scheduler.name = "sfq";
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
