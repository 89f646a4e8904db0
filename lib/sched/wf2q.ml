type session = {
  rate : float;
  queue : Ds.Fifo_queue.t;
  mutable s : float; (* start tag of the head packet *)
  mutable f : float; (* finish tag of the head packet *)
}

let create ?(qlimit = 100_000) ~link_rate ~rates () =
  if not (Float.is_finite link_rate && link_rate > 0.) then
    invalid_arg "Wf2q.create: link_rate must be finite and > 0";
  let sessions = Hashtbl.create 16 in
  List.iter
    (fun (id, r) ->
      if not (Float.is_finite r && r > 0.) then
        invalid_arg "Wf2q.create: rate must be finite and > 0";
      Hashtbl.replace sessions id
        { rate = r; queue = Ds.Fifo_queue.create ~limit_pkts:qlimit ();
          s = 0.; f = 0. })
    rates;
  let v = ref 0. in
  let served_bytes = ref 0. in (* bytes sent since v was last recomputed *)
  let pkts = ref 0 in
  let bytes = ref 0 in
  let min_start () =
    Hashtbl.fold
      (fun _ s acc ->
        if Ds.Fifo_queue.is_empty s.queue then acc else Float.min acc s.s)
      sessions infinity
  in
  (* V(t2) = max (V(t1) + W(t1,t2)/R, min_{i in B} S_i) — the WF2Q+
     virtual time. The work term is folded in whenever V is consulted. *)
  let sync_v () =
    v := !v +. (!served_bytes /. link_rate);
    served_bytes := 0.;
    let ms = min_start () in
    if Float.is_finite ms && ms > !v then v := ms
  in
  let enqueue ~now:_ p =
    match Hashtbl.find_opt sessions p.Pkt.Packet.flow with
    | None -> false
    | Some s ->
        let was_empty = Ds.Fifo_queue.is_empty s.queue in
        if Ds.Fifo_queue.push s.queue p then begin
          incr pkts;
          bytes := !bytes + p.Pkt.Packet.size;
          if was_empty then begin
            sync_v ();
            (* S = max(V, F_prev); F = S + L/r *)
            s.s <- Float.max !v s.f;
            s.f <- s.s +. (float_of_int p.Pkt.Packet.size /. s.rate)
          end;
          true
        end
        else false
  in
  let dequeue ~now:_ =
    if !pkts = 0 then None
    else begin
      sync_v ();
      (* SEFF: smallest finish tag among sessions with S <= V *)
      let best = ref None in
      Hashtbl.iter
        (fun id s ->
          if (not (Ds.Fifo_queue.is_empty s.queue)) && s.s <= !v then
            match !best with
            | None -> best := Some (id, s)
            | Some (bid, bs) ->
                if s.f < bs.f || (s.f = bs.f && id < bid) then
                  best := Some (id, s))
        sessions;
      match !best with
      | None -> None (* cannot happen: sync_v floors V at min start *)
      | Some (id, s) ->
          let p = Ds.Fifo_queue.take s.queue in
          decr pkts;
          bytes := !bytes - p.Pkt.Packet.size;
          served_bytes := !served_bytes +. float_of_int p.Pkt.Packet.size;
          if not (Ds.Fifo_queue.is_empty s.queue) then begin
            let next = Ds.Fifo_queue.head s.queue in
            s.s <- s.f;
            s.f <- s.s +. (float_of_int next.Pkt.Packet.size /. s.rate)
          end;
          Some { Scheduler.pkt = p; cls = string_of_int id;
                 criterion = "wf2q+" }
    end
  in
  {
    Scheduler.name = "wf2q+";
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
