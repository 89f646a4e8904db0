type node = {
  nname : string;
  rate : float;
  parent : node option;
  mutable children : node list;
  queue : Ds.Fifo_queue.t option; (* Some for leaves *)
  (* WF2Q+ state of this node's server over its children *)
  mutable v : float;
  mutable served_since : float; (* bytes since v last synced *)
  mutable child_rate_sum : float;
  (* this node's tags within its parent's server *)
  mutable s : float;
  mutable f : float;
  mutable backlogged : bool;
}

type t = {
  link_rate : float;
  troot : node;
  flows : (int, node) Hashtbl.t;
  mutable pkts : int;
  mutable bytes : int;
}

let mk_node ~name ~rate ~parent ~queue =
  { nname = name; rate; parent; children = []; queue; v = 0.;
    served_since = 0.; child_rate_sum = 0.; s = 0.; f = 0.;
    backlogged = false }

let create ~link_rate () =
  if not (Float.is_finite link_rate && link_rate > 0.) then
    invalid_arg "Hpfq.create: link_rate must be finite and > 0";
  { link_rate;
    troot = mk_node ~name:"root" ~rate:link_rate ~parent:None ~queue:None;
    flows = Hashtbl.create 16; pkts = 0; bytes = 0 }

let root t = t.troot

let check_interior parent =
  if parent.queue <> None then
    invalid_arg "Hpfq: cannot add children under a leaf"

let add_node _t ~parent ~name ~rate =
  check_interior parent;
  if not (Float.is_finite rate && rate > 0.) then
    invalid_arg "Hpfq.add_node: rate must be finite and > 0";
  let n = mk_node ~name ~rate ~parent:(Some parent) ~queue:None in
  parent.children <- parent.children @ [ n ];
  parent.child_rate_sum <- parent.child_rate_sum +. rate;
  n

let add_leaf t ~parent ~name ~rate ~flow ?(qlimit = 100_000) () =
  check_interior parent;
  if not (Float.is_finite rate && rate > 0.) then
    invalid_arg "Hpfq.add_leaf: rate must be finite and > 0";
  if Hashtbl.mem t.flows flow then
    invalid_arg "Hpfq.add_leaf: flow already attached";
  let n =
    mk_node ~name ~rate ~parent:(Some parent)
      ~queue:(Some (Ds.Fifo_queue.create ~limit_pkts:qlimit ()))
  in
  parent.children <- parent.children @ [ n ];
  parent.child_rate_sum <- parent.child_rate_sum +. rate;
  Hashtbl.replace t.flows flow n;
  n

let is_leaf n = n.queue <> None

(* WF2Q+ virtual time of node [n]'s server: fold in the work done since
   the last sync and floor at the smallest start tag of a backlogged
   child. *)
let sync_v n =
  if n.child_rate_sum > 0. then begin
    n.v <- n.v +. (n.served_since /. n.child_rate_sum);
    n.served_since <- 0.;
    let ms =
      List.fold_left
        (fun acc c -> if c.backlogged then Float.min acc c.s else acc)
        infinity n.children
    in
    if Float.is_finite ms && ms > n.v then n.v <- ms
  end

(* SEFF choice of node [n]: smallest finish tag among backlogged
   children whose start tag has been reached. *)
let seff_select n =
  sync_v n;
  List.fold_left
    (fun acc c ->
      if c.backlogged && c.s <= n.v then
        match acc with
        | None -> Some c
        | Some b -> if c.f < b.f then Some c else acc
      else acc)
    None n.children

(* Length of the packet node [n] would emit next: its head packet for a
   leaf, recursively the head of its SEFF choice for an interior node.
   This is what the finish tag of [n] inside its parent must cover. *)
let rec head_len n =
  match n.queue with
  | Some q ->
      if Ds.Fifo_queue.is_empty q then None
      else Some (Ds.Fifo_queue.head q).Pkt.Packet.size
  | None -> ( match seff_select n with Some c -> head_len c | None -> None)

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
            (* activate up the tree while the child was idle *)
            let rec activate c =
              if not c.backlogged then begin
                match c.parent with
                | None -> c.backlogged <- true (* root *)
                | Some par ->
                    sync_v par;
                    c.s <- Float.max par.v c.f;
                    (match head_len c with
                    | Some l -> c.f <- c.s +. (float_of_int l /. c.rate)
                    | None -> assert false);
                    c.backlogged <- true;
                    activate par
              end
            in
            activate leaf;
            true
          end
          else false)

let dequeue t ~now:_ =
  if t.pkts = 0 then None
  else begin
    (* top-down SEFF walk to a leaf *)
    let rec walk n path =
      if is_leaf n then (n, path)
      else
        match seff_select n with
        | Some c -> walk c (c :: path)
        | None ->
            (* sync_v floors v at the min backlogged start tag, so a
               backlogged interior node always has an eligible child *)
            assert false
    in
    let leaf, path = walk t.troot [] in
    let q = match leaf.queue with Some q -> q | None -> assert false in
    let p = Ds.Fifo_queue.take q in
    t.pkts <- t.pkts - 1;
    t.bytes <- t.bytes - p.Pkt.Packet.size;
    let len = float_of_int p.Pkt.Packet.size in
    (* bottom-up tag refresh: [path] is leaf-first *)
    List.iter
      (fun c ->
        match c.parent with
        | None -> ()
        | Some par ->
            par.served_since <- par.served_since +. len;
            let still =
              match c.queue with
              | Some q -> not (Ds.Fifo_queue.is_empty q)
              | None -> List.exists (fun ch -> ch.backlogged) c.children
            in
            if still then begin
              c.s <- c.f;
              match head_len c with
              | Some l -> c.f <- c.s +. (float_of_int l /. c.rate)
              | None -> assert false
            end
            else c.backlogged <- false)
      path;
    if t.pkts = 0 then t.troot.backlogged <- false;
    Some { Scheduler.pkt = p; cls = leaf.nname; criterion = "hpfq" }
  end

let to_scheduler t =
  {
    Scheduler.name = "hpfq-wf2q+";
    enqueue = (fun ~now p -> enqueue t ~now p);
    dequeue = (fun ~now -> dequeue t ~now);
    dequeue_many = None;
    next_ready =
      (fun ~now ->
        Scheduler.work_conserving_next_ready ~backlog:(fun () -> t.pkts) ~now);
    backlog_pkts = (fun () -> t.pkts);
    backlog_bytes = (fun () -> t.bytes);
    deferred_drops = None;
  }
