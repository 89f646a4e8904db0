type session = {
  rate : float;
  queue : Ds.Fifo_queue.t; (* packets, FIFO *)
  tags : float Queue.t; (* finish tag of each queued packet, same order *)
  mutable f_last : float; (* finish tag of the last queued packet *)
}

let create ?(qlimit = 100_000) ~link_rate ~rates () =
  if not (Float.is_finite link_rate && link_rate > 0.) then
    invalid_arg "Wfq.create: link_rate must be finite and > 0";
  let sessions = Hashtbl.create 16 in
  List.iter
    (fun (id, r) ->
      if not (Float.is_finite r && r > 0.) then
        invalid_arg "Wfq.create: rate must be finite and > 0";
      Hashtbl.replace sessions id
        { rate = r; queue = Ds.Fifo_queue.create ~limit_pkts:qlimit ();
          tags = Queue.create (); f_last = 0. })
    rates;
  let v = ref 0. in
  let t_last = ref 0. in
  let pkts = ref 0 in
  let bytes = ref 0 in
  (* Track the GPS fluid system exactly: between real instants the
     virtual time grows at R / (sum of weights of GPS-backlogged
     sessions); a session leaves the fluid system when V reaches its
     last finish tag, changing the rate — handled departure by
     departure. *)
  let advance now =
    let continue_ = ref (now > !t_last) in
    while !continue_ do
      let sum_w, f_min =
        Hashtbl.fold
          (fun _ s (sw, fm) ->
            if s.f_last > !v then (sw +. s.rate, Float.min fm s.f_last)
            else (sw, fm))
          sessions (0., infinity)
      in
      if sum_w = 0. then begin
        t_last := now;
        continue_ := false
      end
      else begin
        let dt_to_departure = (f_min -. !v) *. sum_w /. link_rate in
        if !t_last +. dt_to_departure <= now then begin
          v := f_min;
          t_last := !t_last +. dt_to_departure
        end
        else begin
          v := !v +. ((now -. !t_last) *. link_rate /. sum_w);
          t_last := now;
          continue_ := false
        end
      end
    done
  in
  let enqueue ~now p =
    match Hashtbl.find_opt sessions p.Pkt.Packet.flow with
    | None -> false
    | Some s ->
        if Ds.Fifo_queue.push s.queue p then begin
          advance now;
          incr pkts;
          bytes := !bytes + p.Pkt.Packet.size;
          let start = Float.max !v s.f_last in
          let fin = start +. (float_of_int p.Pkt.Packet.size /. s.rate) in
          s.f_last <- fin;
          Queue.push fin s.tags;
          true
        end
        else false
  in
  let dequeue ~now =
    if !pkts = 0 then None
    else begin
      advance now;
      (* smallest head finish tag — pure PGPS, no eligibility test *)
      let best = ref None in
      Hashtbl.iter
        (fun id s ->
          if not (Ds.Fifo_queue.is_empty s.queue) then begin
            let f = Queue.peek s.tags in
            match !best with
            | None -> best := Some (id, s, f)
            | Some (bid, _, bf) ->
                if f < bf || (f = bf && id < bid) then best := Some (id, s, f)
          end)
        sessions;
      match !best with
      | None -> None
      | Some (id, s, _) ->
          let p = Ds.Fifo_queue.take s.queue in
          ignore (Queue.pop s.tags);
          decr pkts;
          bytes := !bytes - p.Pkt.Packet.size;
          Some { Scheduler.pkt = p; cls = string_of_int id; criterion = "wfq" }
    end
  in
  {
    Scheduler.name = "wfq";
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
