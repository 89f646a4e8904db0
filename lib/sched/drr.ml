type flow = {
  quantum : int;
  queue : Ds.Fifo_queue.t;
  mutable deficit : int;
  mutable active : bool;
}

let create ?(qlimit = 10_000) ~quanta () =
  let flows = Hashtbl.create 16 in
  List.iter
    (fun (id, q) ->
      if q <= 0 then invalid_arg "Drr.create: quantum must be > 0";
      Hashtbl.replace flows id
        { quantum = q; queue = Ds.Fifo_queue.create ~limit_pkts:qlimit ();
          deficit = 0; active = false })
    quanta;
  let ring : int Queue.t = Queue.create () in
  let pkts = ref 0 in
  let bytes = ref 0 in
  let enqueue ~now:_ p =
    match Hashtbl.find_opt flows p.Pkt.Packet.flow with
    | None -> false
    | Some f ->
        if Ds.Fifo_queue.push f.queue p then begin
          incr pkts;
          bytes := !bytes + p.Pkt.Packet.size;
          if not f.active then begin
            f.active <- true;
            f.deficit <- f.quantum;
            Queue.push p.Pkt.Packet.flow ring
          end;
          true
        end
        else false
  in
  let rec dequeue ~now =
    if Queue.is_empty ring then None
    else begin
      let id = Queue.peek ring in
      let f = Hashtbl.find flows id in
      match Ds.Fifo_queue.peek f.queue with
      | None ->
          (* emptied by a previous visit *)
          ignore (Queue.pop ring);
          f.active <- false;
          f.deficit <- 0;
          dequeue ~now
      | Some head ->
          if head.Pkt.Packet.size <= f.deficit then begin
            let p =
              match Ds.Fifo_queue.pop f.queue with
              | Some p -> p
              | None -> assert false
            in
            f.deficit <- f.deficit - p.Pkt.Packet.size;
            decr pkts;
            bytes := !bytes - p.Pkt.Packet.size;
            if Ds.Fifo_queue.is_empty f.queue then begin
              ignore (Queue.pop ring);
              f.active <- false;
              f.deficit <- 0
            end;
            Some { Scheduler.pkt = p; cls = string_of_int id; criterion = "drr" }
          end
          else begin
            (* deficit exhausted: next round for this flow *)
            ignore (Queue.pop ring);
            Queue.push id ring;
            f.deficit <- f.deficit + f.quantum;
            dequeue ~now
          end
    end
  in
  {
    Scheduler.name = "drr";
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
