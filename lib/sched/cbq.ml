type node = {
  nname : string;
  rate : float;
  parent : node option;
  mutable children : node list;
  queue : Ds.Fifo_queue.t option; (* Some for leaves *)
  priority : int;
  borrow : bool;
  maxidle : float;
  quantum : float; (* WRR allotment per visit, proportional to rate *)
  mutable deficit : float;
  (* estimator state *)
  mutable last : float; (* decision time of this class's last packet *)
  mutable avgidle : float; (* EWMA of idle time, seconds *)
  mutable undertime : float; (* regulation ends here when overlimit *)
}

type t = {
  link_rate : float;
  troot : node;
  flows : (int, node) Hashtbl.t;
  mutable leaves : node list; (* in creation order *)
  mutable rr_cursor : int; (* rotates the round robin *)
  mutable credited : bool; (* quantum already granted at this position *)
  mutable pkts : int;
  mutable bytes : int;
}

let mk_node ~name ~rate ~parent ~queue ~priority ~borrow ~maxidle ~quantum =
  { nname = name; rate; parent; children = []; queue; priority; borrow;
    maxidle; quantum; deficit = 0.; last = 0.; avgidle = maxidle;
    undertime = 0. }

(* the estimator gain (the classic 1/16), and how many packets' worth
   of unused idle time a class may accumulate *)
let ewma_weight = 1. /. 16.
let max_burst_pkts = 16
let maxidle_of rate = float_of_int max_burst_pkts *. 1500. /. rate

let create ~link_rate () =
  if not (Float.is_finite link_rate && link_rate > 0.) then
    invalid_arg "Cbq.create: link_rate must be finite and > 0";
  {
    link_rate;
    troot =
      mk_node ~name:"root" ~rate:link_rate ~parent:None ~queue:None
        ~priority:0 ~borrow:false ~maxidle:(maxidle_of link_rate) ~quantum:0.;
    flows = Hashtbl.create 16;
    leaves = [];
    rr_cursor = 0;
    credited = false;
    pkts = 0;
    bytes = 0;
  }

let root t = t.troot

let check_interior parent =
  if parent.queue <> None then invalid_arg "Cbq: cannot add under a leaf"

let add_node _ ~parent ~name ~rate =
  check_interior parent;
  if not (Float.is_finite rate && rate > 0.) then
    invalid_arg "Cbq.add_node: rate must be finite and > 0";
  let n =
    mk_node ~name ~rate ~parent:(Some parent) ~queue:None ~priority:0
      ~borrow:true ~maxidle:(maxidle_of rate) ~quantum:0.
  in
  parent.children <- parent.children @ [ n ];
  n

let add_leaf t ~parent ~name ~rate ~flow ?(priority = 1) ?(borrow = true)
    ?(qlimit = 100_000) () =
  check_interior parent;
  if not (Float.is_finite rate && rate > 0.) then
    invalid_arg "Cbq.add_leaf: rate must be finite and > 0";
  if priority < 0 || priority > 7 then
    invalid_arg "Cbq.add_leaf: priority must be in 0..7";
  if Hashtbl.mem t.flows flow then invalid_arg "Cbq.add_leaf: duplicate flow";
  (* WRR allotment proportional to the class's rate; the 64 B floor
     only distorts ratios for classes below ~0.5%% of the link *)
  let quantum = Float.max 64. (12_000. *. rate /. t.link_rate) in
  let n =
    mk_node ~name ~rate ~parent:(Some parent)
      ~queue:(Some (Ds.Fifo_queue.create ~limit_pkts:qlimit ()))
      ~priority ~borrow ~maxidle:(maxidle_of rate) ~quantum
  in
  parent.children <- parent.children @ [ n ];
  Hashtbl.replace t.flows flow n;
  t.leaves <- t.leaves @ [ n ];
  n

let underlimit c ~now = c.avgidle >= 0. || now >= c.undertime

(* A leaf may send when its own estimator permits, or when borrowing is
   allowed and some ancestor has spare allotment. *)
let may_send leaf ~now =
  underlimit leaf ~now
  || leaf.borrow
     &&
     let rec up = function
       | None -> false
       | Some a -> underlimit a ~now || up a.parent
     in
     up leaf.parent

(* Charge a departed packet to the estimator of the leaf and of every
   ancestor (each class's estimator observes its whole subtree). *)
let update_estimators leaf len ~now =
  let flen = float_of_int len in
  let rec go = function
    | None -> ()
    | Some c ->
        let idle = now -. c.last -. (flen /. c.rate) in
        c.avgidle <- c.avgidle +. (ewma_weight *. (idle -. c.avgidle));
        if c.avgidle > c.maxidle then c.avgidle <- c.maxidle;
        c.last <- now;
        if c.avgidle < 0. then
          (* while the class idles, avgidle recovers by ~w per second of
             real idle: regulation until the estimator crosses zero *)
          c.undertime <- now +. (-.c.avgidle /. ewma_weight);
        go c.parent
  in
  go (Some leaf)

let backlogged c =
  match c.queue with Some q -> not (Ds.Fifo_queue.is_empty q) | None -> false

let enqueue t ~now:_ p =
  match Hashtbl.find_opt t.flows p.Pkt.Packet.flow with
  | None -> false
  | Some leaf -> (
      match leaf.queue with
      | None -> assert false
      | Some q ->
          if Ds.Fifo_queue.push q p then begin
            t.pkts <- t.pkts + 1;
            t.bytes <- t.bytes + p.Pkt.Packet.size;
            true
          end
          else false)

(* Weighted round robin (deficit style) over the sendable leaves of the
   highest-priority backlogged band: each visit adds the class's
   rate-proportional quantum; it sends while its deficit covers the
   head packet. *)
let head_len c =
  match c.queue with
  | Some q ->
      if Ds.Fifo_queue.is_empty q then max_int
      else (Ds.Fifo_queue.head q).Pkt.Packet.size
  | None -> max_int

let select t ~now =
  let leaves = Array.of_list t.leaves in
  let n = Array.length leaves in
  let sendable c = backlogged c && may_send c ~now in
  let band =
    Array.fold_left
      (fun acc c -> if sendable c then min acc c.priority else acc)
      max_int leaves
  in
  if band = max_int then None
  else begin
    let advance () =
      t.rr_cursor <- (t.rr_cursor + 1) mod n;
      t.credited <- false
    in
    let chosen = ref None in
    (* DRR sweep: serve the class under the pointer while its deficit
       covers the head packet; a pointer visit grants its quantum once.
       Every two full rotations grant every candidate a quantum, so the
       guard never binds with positive quanta. *)
    let guard = ref 0 in
    while !chosen = None && !guard < 4 * n * max_burst_pkts * 25 do
      incr guard;
      let c = leaves.(t.rr_cursor mod n) in
      if not (sendable c && c.priority = band) then advance ()
      else if c.deficit >= float_of_int (head_len c) then begin
        c.deficit <- c.deficit -. float_of_int (head_len c);
        chosen := Some c
      end
      else if not t.credited then begin
        c.deficit <- c.deficit +. c.quantum;
        t.credited <- true
      end
      else advance ()
    done;
    !chosen
  end

let dequeue t ~now =
  if t.pkts = 0 then None
  else
    match select t ~now with
    | None -> None (* every backlogged class is regulated *)
    | Some leaf ->
        let q = match leaf.queue with Some q -> q | None -> assert false in
        let p = Ds.Fifo_queue.take q in
        t.pkts <- t.pkts - 1;
        t.bytes <- t.bytes - p.Pkt.Packet.size;
        if Ds.Fifo_queue.is_empty q then leaf.deficit <- 0.;
        update_estimators leaf p.Pkt.Packet.size ~now;
        Some
          { Scheduler.pkt = p; cls = leaf.nname;
            criterion = (if underlimit leaf ~now then "under" else "borrow") }

let next_ready t ~now =
  if t.pkts = 0 then None
  else if
    (* existence check only — [select] mutates round-robin deficits, and
       a probe must not consume scheduling credit *)
    List.exists (fun c -> backlogged c && may_send c ~now) t.leaves
  then Some now
  else begin
    (* earliest instant any backlogged leaf becomes sendable: its own
       estimator recovery, or a borrowable ancestor's *)
    let earliest_for leaf =
      let own = leaf.undertime in
      if not leaf.borrow then own
      else
        let rec up acc = function
          | None -> acc
          | Some a -> up (Float.min acc a.undertime) a.parent
        in
        up own leaf.parent
    in
    let ts =
      List.fold_left
        (fun acc leaf ->
          if backlogged leaf then Float.min acc (earliest_for leaf) else acc)
        infinity t.leaves
    in
    if Float.is_finite ts then Some (Float.max now ts) else None
  end

let to_scheduler t =
  {
    Scheduler.name = "cbq";
    enqueue = (fun ~now p -> enqueue t ~now p);
    dequeue = (fun ~now -> dequeue t ~now);
    dequeue_many = None;
    next_ready = (fun ~now -> next_ready t ~now);
    backlog_pkts = (fun () -> t.pkts);
    backlog_bytes = (fun () -> t.bytes);
    deferred_drops = None;
  }
