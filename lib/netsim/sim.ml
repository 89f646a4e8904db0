(* An event is an int, [(index lsl 2) lor kind]: the source index of an
   arrival, the link index of a poll, the callback-table slot of a
   callback. A transmit completion is no event: it waits in its link's
   state (see [link_state]). *)
let arrival = 0
let poll = 1
let callback = 2
let[@inline] event kind index = (index lsl 2) lor kind

(* A link's float state. All-float, hence a flat record: updating it
   never boxes. *)
type wire = {
  mutable rate : float;
  mutable poll_at : float; (* earliest pending poll; infinity if none *)
  mutable tx_at : float; (* while busy: when the packet on the wire is sent *)
  mutable busy_time : float; (* whole transmit times of started packets *)
  mutable tx_bytes : float;
}

(* Everything one output link owns: its scheduler, its wire state and
   its share of the accounting. Index in [t.links] is the link id. A
   link transmits one packet at a time: while [busy], [on_wire] is the
   packet on the wire, and its completion is due at [w.tx_at] with the
   event-queue stamp [tx_stamp], drawn when the packet started. *)
type link_state = {
  lname : string;
  lsched : Sched.Scheduler.t;
  w : wire;
  mutable on_wire : Sched.Scheduler.served;
  mutable tx_stamp : int;
  mutable busy : bool;
  mutable up : bool; (* link outages park this link's dequeue loop *)
}

type t = {
  links : link_state array;
  route : Pkt.Packet.t -> int option;
  q : Event_queue.t;
  (* the busy link whose completion is first in (tx_at, tx_stamp)
     order; -1 when every link is idle *)
  mutable next_tx : int;
  mutable now : float;
  mutable sources : Source.t array;
  (* each source's flow's seq counter, resolved when the source is
     added: sources of one flow share one counter, so the flow's seqs
     stay one gap-free stream *)
  mutable seq_of : int ref array;
  mutable n_sources : int;
  mutable callbacks : (now:float -> unit) array;
  mutable n_callbacks : int;
  seqs : int ref Ds.Int_table.t; (* flow -> its seq counter *)
  mutable on_departure :
    (link:int -> now:float -> Sched.Scheduler.served -> unit) list;
  mutable drops : int;
}

(* [on_wire] of a link that has sent nothing yet *)
let empty_slot =
  {
    Sched.Scheduler.pkt = Pkt.Packet.make ~flow:0 ~size:1 ~seq:0 ~arrival:0.;
    cls = "";
    criterion = "";
  }

(* replaces a callback once it has run, so its closure can be freed *)
let fired ~now:_ = ()

let create_multi ~links ~route () =
  if links = [] then invalid_arg "Sim.create_multi: need at least one link";
  let mk (lname, rate, lsched) =
    if (not (Float.is_finite rate)) || rate <= 0. then
      invalid_arg "Sim.create_multi: link rate must be finite and positive";
    {
      lname;
      lsched;
      w =
        {
          rate;
          poll_at = infinity;
          tx_at = infinity;
          busy_time = 0.;
          tx_bytes = 0.;
        };
      on_wire = empty_slot;
      tx_stamp = max_int;
      busy = false;
      up = true;
    }
  in
  {
    links = Array.of_list (List.map mk links);
    route;
    q = Event_queue.create ();
    next_tx = -1;
    now = 0.;
    sources = [||];
    seq_of = [||];
    n_sources = 0;
    callbacks = [||];
    n_callbacks = 0;
    seqs = Ds.Int_table.create 16;
    on_departure = [];
    drops = 0;
  }

let create ~link_rate ~sched () =
  create_multi
    ~links:[ ("link0", link_rate, sched) ]
    ~route:(fun _ -> Some 0)
    ()

(* [a] with room for index [n]; new slots hold [x] *)
let ensure a n x =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 8 (2 * n)) x in
    Array.blit a 0 b 0 n;
    b
  end

let schedule_arrival t k =
  let src = t.sources.(k) in
  if Source.pull src then
    Event_queue.add t.q (Source.time src) (event arrival k)

let add_source t src =
  let k = t.n_sources in
  let flow = Source.flow src in
  let seq =
    match Ds.Int_table.find t.seqs flow with
    | r -> r
    | exception Not_found ->
        let r = ref 0 in
        Ds.Int_table.replace t.seqs flow r;
        r
  in
  t.sources <- ensure t.sources k src;
  t.sources.(k) <- src;
  t.seq_of <- ensure t.seq_of k seq;
  t.seq_of.(k) <- seq;
  t.n_sources <- k + 1;
  schedule_arrival t k

let on_link_departure t f = t.on_departure <- f :: t.on_departure

let on_departure t f =
  on_link_departure t (fun ~link:_ ~now served -> f ~now served)

let at t when_ f =
  if Float.is_nan when_ then invalid_arg "Sim.at: time is NaN";
  if when_ < t.now then invalid_arg "Sim.at: time is in the past";
  let k = t.n_callbacks in
  t.callbacks <- ensure t.callbacks k f;
  t.callbacks.(k) <- f;
  t.n_callbacks <- k + 1;
  Event_queue.add t.q when_ (event callback k)

(* Whether busy link [a]'s completion comes before busy link [b]'s *)
let[@inline] before a b =
  a.w.tx_at < b.w.tx_at || (a.w.tx_at = b.w.tx_at && a.tx_stamp < b.tx_stamp)

(* The busy link whose completion comes first; -1 if every link is idle *)
let earliest_tx t =
  let links = t.links in
  let best = ref (-1) in
  for i = 0 to Array.length links - 1 do
    let l = links.(i) in
    if l.busy && (!best < 0 || before l links.(!best)) then best := i
  done;
  !best

(* If link [i] is idle and up, pull its next packet and put it on the
   wire; if its scheduler is backlogged but rate-capped, arm a poll for
   its next-ready instant. An idle link's last completion is not after
   [t.now], so the packet starts now. *)
let try_start t i =
  let l = t.links.(i) in
  if (not l.busy) && l.up then
    match Sched.Scheduler.dequeue_burst l.lsched ~now:t.now ~max:1 with
    | served :: _ ->
        l.on_wire <- served;
        l.busy <- true;
        let w = l.w in
        let tx = float_of_int served.pkt.Pkt.Packet.size /. w.rate in
        w.busy_time <- w.busy_time +. tx;
        w.tx_at <- t.now +. tx;
        l.tx_stamp <- Event_queue.stamp t.q;
        (* the newest stamp: this completion goes first only if it is
           strictly earlier *)
        let j = t.next_tx in
        if j < 0 || w.tx_at < t.links.(j).w.tx_at then t.next_tx <- i
    | [] -> (
        match l.lsched.Sched.Scheduler.next_ready ~now:t.now with
        | Some ts when ts > t.now ->
            if ts < l.w.poll_at then begin
              l.w.poll_at <- ts;
              Event_queue.add t.q ts (event poll i)
            end
        | _ -> ())

let try_start_all t =
  for i = 0 to Array.length t.links - 1 do
    try_start t i
  done

let rec fire link now served = function
  | [] -> ()
  | f :: fs ->
      f ~link ~now served;
      fire link now served fs

(* Offer [pkt] to link [i]'s scheduler now; a refusal is a drop. *)
let offer t i pkt =
  let ok = t.links.(i).lsched.Sched.Scheduler.enqueue ~now:t.now pkt in
  if not ok then t.drops <- t.drops + 1;
  try_start t i;
  ok

let arrive t k =
  let src = t.sources.(k) in
  let flow = Source.flow src in
  let r = t.seq_of.(k) in
  let seq = !r in
  r := seq + 1;
  let pkt =
    Pkt.Packet.make ~flow ~size:(Source.size src) ~seq ~arrival:t.now
  in
  match t.route pkt with
  | Some i when i >= 0 && i < Array.length t.links ->
      (* the source's next arrival is stamped before the link's
         completion: equal-time events are handled in stamp order *)
      schedule_arrival t k;
      ignore (offer t i pkt)
  | _ ->
      (* unroutable: no link owns this flow *)
      t.drops <- t.drops + 1;
      schedule_arrival t k

let complete t i =
  let l = t.links.(i) in
  let served = l.on_wire in
  l.busy <- false;
  t.next_tx <- earliest_tx t;
  let pkt = served.Sched.Scheduler.pkt in
  l.w.tx_bytes <- l.w.tx_bytes +. float_of_int pkt.Pkt.Packet.size;
  fire i t.now served t.on_departure;
  try_start t i

let handle t ev =
  let k = ev lsr 2 in
  match ev land 3 with
  | 0 (* arrival *) -> arrive t k
  | 1 (* poll *) ->
      t.links.(k).w.poll_at <- infinity;
      try_start t k
  | _ (* callback *) ->
      let f = t.callbacks.(k) in
      t.callbacks.(k) <- fired;
      f ~now:t.now;
      (* the callback may have reconfigured any scheduler (classes
         added/removed, curves changed): re-poll them all *)
      try_start_all t

(* Process every event and completion due by [until], in (time,
   stamp) order; [t.now] ends at the last one's time. *)
let drain t ~until =
  let q = t.q in
  let continue_ = ref true in
  while !continue_ do
    (* the top's time read flat from the queue's time column: a call
       returning it would box it on every pass *)
    let empty = Event_queue.is_empty q in
    let next =
      if empty then infinity else Float.Array.unsafe_get (Event_queue.times q) 0
    in
    let i = t.next_tx in
    if
      i >= 0
      &&
      let l = t.links.(i) in
      l.w.tx_at < next
      || (l.w.tx_at = next && l.tx_stamp < Event_queue.next_stamp q)
    then begin
      let at = t.links.(i).w.tx_at in
      if at <= until then begin
        if at > t.now then t.now <- at;
        complete t i
      end
      else continue_ := false
    end
    else if next <= until && not empty then begin
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

let get_link name t i =
  if i < 0 || i >= Array.length t.links then
    invalid_arg (Printf.sprintf "Sim.%s: no link %d" name i);
  t.links.(i)

let enqueue t ~link pkt =
  ignore (get_link "enqueue" t link);
  offer t link pkt

let set_link_rate ?(link = 0) t r =
  if (not (Float.is_finite r)) || r <= 0. then
    invalid_arg "Sim.set_link_rate: rate must be finite and positive";
  (get_link "set_link_rate" t link).w.rate <- r

let set_link_up ?(link = 0) t up =
  let l = get_link "set_link_up" t link in
  let was = l.up in
  l.up <- up;
  if up && not was then try_start t link

let link_rate ?(link = 0) t = (get_link "link_rate" t link).w.rate
let link_up ?(link = 0) t = (get_link "link_up" t link).up
let n_links t = Array.length t.links

let link_index t name =
  let rec go i =
    if i >= Array.length t.links then None
    else if t.links.(i).lname = name then Some i
    else go (i + 1)
  in
  go 0

let link_name t i = (get_link "link_name" t i).lname

(* Time link [l] spent transmitting in [0, now]: a packet still on the
   wire was charged its whole transmit time when it started, so its
   unsent remainder comes off. *)
let busy_time t l =
  if l.busy then l.w.busy_time -. (l.w.tx_at -. t.now) else l.w.busy_time

let link_utilization t i =
  let l = get_link "link_utilization" t i in
  if t.now <= 0. then 0. else busy_time t l /. t.now

let link_transmitted_bytes t i =
  (get_link "link_transmitted_bytes" t i).w.tx_bytes

let now t = t.now

let transmitted_bytes t =
  Array.fold_left (fun acc l -> acc +. l.w.tx_bytes) 0. t.links

let enqueue_drops t =
  Array.fold_left
    (fun acc l ->
      match l.lsched.Sched.Scheduler.deferred_drops with
      | Some f -> acc + f ()
      | None -> acc)
    t.drops t.links

let utilization t =
  if t.now <= 0. then 0.
  else
    Array.fold_left (fun acc l -> acc +. busy_time t l) 0. t.links
    /. (t.now *. float_of_int (Array.length t.links))
