(* Events are ints, [(index lsl 2) lor kind], as in {!Sim}: the source
   index of an arrival, the hop index of a transmit completion or a
   poll. *)
let arrival = 0
let tx_complete = 1
let poll = 2
let[@inline] event kind index = (index lsl 2) lor kind

type hop = {
  rate : float;
  sched : Sched.Scheduler.t;
  mutable on_wire : Sched.Scheduler.served option; (* one packet at a time *)
  mutable poll_at : float;
}

type t = {
  hops : hop array;
  q : Event_queue.t;
  mutable now : float;
  mutable sources : (Source.t * int) array; (* source, hop it feeds *)
  mutable n_sources : int;
  seqs : (int, int) Hashtbl.t;
  (* original arrival times of in-flight packets, keyed by (flow, seq):
     per-hop schedulers restamp nothing, so the key identifies the
     packet across hops *)
  entered : (int * int, float) Hashtbl.t;
  delays : (int, Stats.Delay.t) Hashtbl.t;
  mutable callbacks : (hop:int -> now:float -> Sched.Scheduler.served -> unit) list;
  mutable out_bytes : float;
  mutable drop_count : int;
}

let create ~hops () =
  if hops = [] then invalid_arg "Tandem.create: no hops";
  List.iter
    (fun (r, _) -> if r <= 0. then invalid_arg "Tandem.create: bad rate")
    hops;
  {
    hops =
      Array.of_list
        (List.map
           (fun (rate, sched) ->
             { rate; sched; on_wire = None; poll_at = infinity })
           hops);
    q = Event_queue.create ();
    now = 0.;
    sources = [||];
    n_sources = 0;
    seqs = Hashtbl.create 16;
    entered = Hashtbl.create 256;
    delays = Hashtbl.create 16;
    callbacks = [];
    out_bytes = 0.;
    drop_count = 0;
  }

let schedule_arrival t k =
  let src, _ = t.sources.(k) in
  if Source.pull src then
    Event_queue.add t.q (Source.time src) (event arrival k)

let register t hop src =
  let k = t.n_sources in
  if k = Array.length t.sources then begin
    let a = Array.make (max 8 (2 * k)) (src, hop) in
    Array.blit t.sources 0 a 0 k;
    t.sources <- a
  end;
  t.sources.(k) <- (src, hop);
  t.n_sources <- k + 1;
  schedule_arrival t k

let add_source t src = register t 0 src

let add_source_at t ~hop src =
  if hop < 0 || hop >= Array.length t.hops then
    invalid_arg "Tandem.add_source_at: hop out of range";
  register t hop src
let on_hop_departure t f = t.callbacks <- f :: t.callbacks

let try_start t i =
  let h = t.hops.(i) in
  match h.on_wire with
  | Some _ -> ()
  | None -> (
      match h.sched.Sched.Scheduler.dequeue ~now:t.now with
      | Some served as s ->
          h.on_wire <- s;
          let tx =
            float_of_int served.Sched.Scheduler.pkt.Pkt.Packet.size /. h.rate
          in
          Event_queue.add t.q (t.now +. tx) (event tx_complete i)
      | None -> (
          match h.sched.Sched.Scheduler.next_ready ~now:t.now with
          | Some ts when ts > t.now ->
              if ts < h.poll_at then begin
                h.poll_at <- ts;
                Event_queue.add t.q ts (event poll i)
              end
          | _ -> ()))

let feed t i pkt =
  if not (t.hops.(i).sched.Sched.Scheduler.enqueue ~now:t.now pkt) then begin
    t.drop_count <- t.drop_count + 1;
    Hashtbl.remove t.entered
      (pkt.Pkt.Packet.flow, pkt.Pkt.Packet.seq)
  end;
  try_start t i

let arrive t k =
  let src, hop = t.sources.(k) in
  let flow = Source.flow src in
  let seq =
    match Hashtbl.find_opt t.seqs flow with Some s -> s | None -> 0
  in
  Hashtbl.replace t.seqs flow (seq + 1);
  if hop = 0 then Hashtbl.replace t.entered (flow, seq) t.now;
  let pkt =
    Pkt.Packet.make ~flow ~size:(Source.size src) ~seq ~arrival:t.now
  in
  schedule_arrival t k;
  feed t hop pkt

let complete t i =
  let h = t.hops.(i) in
  let served = Option.get h.on_wire in
  h.on_wire <- None;
  let pkt = served.Sched.Scheduler.pkt in
  List.iter (fun f -> f ~hop:i ~now:t.now served) t.callbacks;
  if i + 1 < Array.length t.hops then begin
    (* restamp arrival for the next hop's local bookkeeping *)
    let pkt' =
      Pkt.Packet.make ~flow:pkt.Pkt.Packet.flow ~size:pkt.Pkt.Packet.size
        ~seq:pkt.Pkt.Packet.seq ~arrival:t.now
    in
    feed t (i + 1) pkt'
  end
  else begin
    t.out_bytes <- t.out_bytes +. float_of_int pkt.Pkt.Packet.size;
    let key = (pkt.Pkt.Packet.flow, pkt.Pkt.Packet.seq) in
    match Hashtbl.find_opt t.entered key with
    | Some t0 ->
        Hashtbl.remove t.entered key;
        let d =
          match Hashtbl.find_opt t.delays pkt.Pkt.Packet.flow with
          | Some d -> d
          | None ->
              let d = Stats.Delay.create () in
              Hashtbl.replace t.delays pkt.Pkt.Packet.flow d;
              d
        in
        Stats.Delay.add d (t.now -. t0)
    | None -> ()
  end;
  try_start t i

let handle t ev =
  let k = ev lsr 2 in
  match ev land 3 with
  | 0 (* arrival *) -> arrive t k
  | 1 (* tx_complete *) -> complete t k
  | _ (* poll *) ->
      t.hops.(k).poll_at <- infinity;
      try_start t k

(* Process every event due by [until]; [t.now] ends at the last one's
   time. *)
let drain t ~until =
  let q = t.q in
  let continue_ = ref true in
  while !continue_ do
    let next = Event_queue.next_time q in
    if next <= until && not (Event_queue.is_empty q) then begin
      let ev = Event_queue.take q in
      if next > t.now then t.now <- next;
      handle t ev
    end
    else continue_ := false
  done

let run t ~until =
  drain t ~until;
  if until > t.now then t.now <- until

let run_until_idle t ~max_time = drain t ~until:max_time
let now t = t.now
let end_to_end_delay t flow = Hashtbl.find_opt t.delays flow
let delivered_bytes t = t.out_bytes
let drops t =
  Array.fold_left
    (fun acc h ->
      match h.sched.Sched.Scheduler.deferred_drops with
      | Some f -> acc + f ()
      | None -> acc)
    t.drop_count t.hops
