module Sc = Curve.Service_curve
module Rc = Curve.Runtime_curve

type session = {
  sc : Sc.t;
  queue : Ds.Fifo_queue.t;
  mutable deadline_c : Rc.t;
  mutable cumul : float; (* total bytes served *)
  mutable d : float; (* head-packet deadline *)
}

let create ?(qlimit = 100_000) ~curves () =
  let sessions = Hashtbl.create 16 in
  List.iter
    (fun (id, sc) ->
      Hashtbl.replace sessions id
        { sc; queue = Ds.Fifo_queue.create ~limit_pkts:qlimit ();
          deadline_c = Rc.of_service_curve sc ~x:0. ~y:0.; cumul = 0.;
          d = 0. })
    curves;
  let pkts = ref 0 in
  let bytes = ref 0 in
  let set_head_deadline s =
    if not (Ds.Fifo_queue.is_empty s.queue) then
      let p = Ds.Fifo_queue.head s.queue in
      s.d <-
        Rc.inverse s.deadline_c (s.cumul +. float_of_int p.Pkt.Packet.size)
  in
  let enqueue ~now p =
    match Hashtbl.find_opt sessions p.Pkt.Packet.flow with
    | None -> false
    | Some s ->
        let was_empty = Ds.Fifo_queue.is_empty s.queue in
        if Ds.Fifo_queue.push s.queue p then begin
          incr pkts;
          bytes := !bytes + p.Pkt.Packet.size;
          if was_empty then begin
            (* eq. (3): D <- min(D, cumul + S(. - now)) *)
            s.deadline_c <- Rc.min_with s.deadline_c s.sc ~x:now ~y:s.cumul;
            set_head_deadline s
          end;
          true
        end
        else false
  in
  let dequeue ~now:_ =
    if !pkts = 0 then None
    else begin
      let best = ref None in
      Hashtbl.iter
        (fun id s ->
          if not (Ds.Fifo_queue.is_empty s.queue) then
            match !best with
            | None -> best := Some (id, s)
            | Some (bid, bs) ->
                if s.d < bs.d || (s.d = bs.d && id < bid) then
                  best := Some (id, s))
        sessions;
      match !best with
      | None -> None
      | Some (id, s) ->
          let p = Ds.Fifo_queue.take s.queue in
          decr pkts;
          bytes := !bytes - p.Pkt.Packet.size;
          s.cumul <- s.cumul +. float_of_int p.Pkt.Packet.size;
          set_head_deadline s;
          Some { Scheduler.pkt = p; cls = string_of_int id; criterion = "sced" }
    end
  in
  {
    Scheduler.name = "sced";
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
