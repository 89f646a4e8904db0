let create ?qlimit () =
  let q = Ds.Fifo_queue.create ?limit_pkts:qlimit () in
  {
    Scheduler.name = "fifo";
    enqueue = (fun ~now:_ p -> Ds.Fifo_queue.push q p);
    dequeue =
      (fun ~now:_ ->
        if Ds.Fifo_queue.is_empty q then None
        else
          let pkt = Ds.Fifo_queue.take q in
          Some { Scheduler.pkt; cls = string_of_int pkt.Pkt.Packet.flow;
                 criterion = "fifo" });
    dequeue_many = None;
    next_ready =
      (fun ~now ->
        Scheduler.work_conserving_next_ready
          ~backlog:(fun () -> Ds.Fifo_queue.length q)
          ~now);
    backlog_pkts = (fun () -> Ds.Fifo_queue.length q);
    backlog_bytes = (fun () -> Ds.Fifo_queue.bytes q);
    deferred_drops = None;
  }
