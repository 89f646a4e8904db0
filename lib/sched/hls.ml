(* Hierarchical surplus round-robin (after "A Round-Robin Packet
   Scheduler for Hierarchical Max-Min Fairness", arXiv:2108.09864): a
   class tree where every interior node runs deficit round-robin over
   an intrusive circular ring of its *active* children, and a dequeue
   walks the rotor chain root-to-leaf, serves the head packet, then
   charges its size up the path — serve-then-charge ("surplus" DRR),
   so no head-size peek is ever needed before choosing a child.

   Costs: O(depth) strict per dequeue with no tree reshuffling, no
   per-packet allocation and no arithmetic beyond integer adds — the
   price is giving up H-FSC's service-curve guarantees for plain
   quantum-proportional max-min shares. That trade is the point: this
   engine holds 10^6 classes where the H-FSC trees stop being cheap.

   Invariants (audited):
   - a class is in its parent's active ring iff its subtree holds at
     least one packet; [rotor] is nil iff the ring is empty;
   - [deficit] only changes by [+= quantum] when the rotor arrives at
     the class and [-= size] when a packet is served through it, and
     is reset to 0 on deactivation — so it stays in
     (-max_packet_size, quantum];
   - subtree packet/byte counters agree with the leaf queues below.

   Like [Hfsc], the structure is a single-domain mutable object: no
   internal synchronisation, one owner at a time. *)

module Fq = Ds.Fifo_queue
module Ct = Ds.Class_table

type drop_policy = Fq.drop_policy = Tail_drop | Drop_longest

type cls = {
  id : int; (* dense: 0 = root, then creation order; never reused *)
  cname : string;
  cparent : cls; (* physical self-loop marks the root *)
  mutable quantum : int; (* bytes granted per rotor visit *)
  mutable deficit : int; (* surplus counter while active *)
  mutable qsum : int; (* sum of children's quanta (admission view) *)
  (* intrusive ring of this node's active children *)
  mutable rotor : cls; (* currently served child; self-loop = none *)
  mutable anext : cls; (* ring links, valid while [active] *)
  mutable aprev : cls;
  mutable active : bool; (* member of the parent's ring *)
  mutable sub_pkts : int; (* backlog in this subtree *)
  mutable sub_bytes : int;
  mutable served : int; (* bytes ever served from this subtree *)
  queue : Fq.t; (* leaves only; interiors keep an empty one *)
}

type t = {
  troot : cls;
  (* ids, names, links, the aggregate backlog and its bounds, the drop
     policy and hook; the per-packet path reads its counters and bounds
     as fields *)
  tab : cls Ct.t;
  (* out-param of [dequeue_core], so [dequeue_into] allocates
     nothing (mirrors [Hfsc]) *)
  mutable deq_pkt : Pkt.Packet.t;
}

let default_quantum = 1500

let dummy_pkt = Pkt.Packet.make ~flow:0 ~size:1 ~seq:0 ~arrival:0.

let is_root c = c.cparent == c

(* Quanta are positive, so a class has children iff their quantum sum
   is: the per-packet path tells a leaf without asking the table. *)
let is_leaf c = c.qsum = 0

(* Tail drops never empty a queue (victims hold >= 2 packets), so the
   uncharge walk after an eviction adjusts counters without any ring
   surgery. *)
let rec uncharge_up c size =
  c.sub_pkts <- c.sub_pkts - 1;
  c.sub_bytes <- c.sub_bytes - size;
  if not (is_root c) then uncharge_up c.cparent size

let new_table () =
  Ct.create ~what:"Hls" ~id:(fun c -> c.id) ~name:(fun c -> c.cname)
    ~queue:(fun c -> c.queue) ~on_evict:uncharge_up ()

let rec nil =
  {
    id = -1;
    cname = "<nil>";
    cparent = nil;
    quantum = 0;
    deficit = 0;
    qsum = 0;
    rotor = nil;
    anext = nil;
    aprev = nil;
    active = false;
    sub_pkts = 0;
    sub_bytes = 0;
    served = 0;
    queue = Fq.create ();
  }

let mk_cls ~tab ~name ~parent ~quantum ?qlimit_pkts ?qlimit_bytes () =
  let rec c =
    {
      id = Ct.next_id tab;
      cname = name;
      cparent = (if parent == nil then c else parent);
      quantum;
      deficit = 0;
      qsum = 0;
      rotor = nil;
      anext = nil;
      aprev = nil;
      active = false;
      sub_pkts = 0;
      sub_bytes = 0;
      served = 0;
      queue = Fq.create ?limit_pkts:qlimit_pkts ?limit_bytes:qlimit_bytes ();
    }
  in
  c

let create () =
  let tab = new_table () in
  let troot = mk_cls ~tab ~name:"root" ~parent:nil ~quantum:0 () in
  Ct.add tab troot;
  { troot; tab; deq_pkt = dummy_pkt }

let root t = t.troot
let table t = t.tab

(* The admission bound the control plane checks against: the per-round
   service a node hands out is the sum of its children's quanta, and a
   newly backlogged class waits at most one full round. Capping that
   sum keeps the worst-case round (and the integer arithmetic) bounded
   even at 10^6 classes. *)
let max_quantum = 1 lsl 30
let max_round_bytes = 1 lsl 40

let quantum_sum_under parent = parent.qsum

let add_class t ~parent ~name ?(quantum = default_quantum) ?qlimit_pkts
    ?qlimit_bytes () =
  if Option.is_some (Ct.find t.tab name) then
    invalid_arg (Printf.sprintf "Hls.add_class: class %S already exists" name);
  if Fq.length parent.queue > 0 then
    invalid_arg "Hls.add_class: parent has queued packets";
  if is_leaf parent && (not (is_root parent)) && parent.served > 0 then
    invalid_arg "Hls.add_class: parent already served packets as a leaf";
  if quantum <= 0 then invalid_arg "Hls.add_class: quantum must be positive";
  if quantum > max_quantum then
    invalid_arg "Hls.add_class: quantum must be at most 2^30";
  let c =
    mk_cls ~tab:t.tab ~name ~parent ~quantum ?qlimit_pkts ?qlimit_bytes ()
  in
  Ct.add t.tab ~parent c;
  parent.qsum <- parent.qsum + quantum;
  c

let remove_class t cl =
  Ct.remove t.tab cl ~active:cl.active;
  let p = cl.cparent in
  p.qsum <- p.qsum - cl.quantum

let class_of_id t id = Ct.class_of_id t.tab id

(* Every check runs before the first store — the parent's [qsum]
   included — so a refused change leaves the class as it was. *)
let modify_class t cl ?quantum ?qlimit_pkts ?qlimit_bytes () =
  (match quantum with
  | Some q ->
      if is_root cl then
        invalid_arg "Hls.modify_class: the root has no quantum";
      if q <= 0 then invalid_arg "Hls.modify_class: quantum must be positive";
      if q > max_quantum then
        invalid_arg "Hls.modify_class: quantum must be at most 2^30"
  | None -> ());
  Ct.check_limits t.tab cl ?pkts:qlimit_pkts ?bytes:qlimit_bytes ();
  (match quantum with
  | Some q ->
      let p = cl.cparent in
      p.qsum <- p.qsum - cl.quantum + q;
      cl.quantum <- q
  | None -> ());
  Fq.set_limits ?pkts:qlimit_pkts ?bytes:qlimit_bytes cl.queue

let queue_limit_pkts c = Fq.limit_pkts c.queue
let queue_limit_bytes c = Fq.limit_bytes c.queue

let set_aggregate_limit t = Ct.set_aggregate_limit t.tab
let set_drop_policy t p = Ct.set_drop_policy t.tab p
let drop_policy t = Ct.drop_policy t.tab
let set_drop_hook t f = t.tab.on_drop <- f

(* --- the active-children ring --------------------------------------- *)

(* Insert [c] at the tail of the current round: just before the rotor,
   so it is served after every already-active sibling. When the ring
   was empty the arrival grant fires immediately — the rotor has
   "arrived" at the sole member. *)
let ring_insert p c =
  if p.rotor == nil then begin
    c.anext <- c;
    c.aprev <- c;
    p.rotor <- c;
    c.deficit <- c.deficit + c.quantum
  end
  else begin
    let head = p.rotor in
    let tail = head.aprev in
    tail.anext <- c;
    c.aprev <- tail;
    c.anext <- head;
    head.aprev <- c
  end;
  c.active <- true

(* Advance the rotor off [p.rotor]; the next member's round starts, so
   it collects its arrival grant. A single-member ring advances to
   itself — the grant then tops its (<= 0) leftover back up, keeping
   the deficit in (-max_pkt, quantum]. *)
let ring_advance p =
  let c = p.rotor.anext in
  p.rotor <- c;
  c.deficit <- c.deficit + c.quantum

let ring_remove p c =
  if c.anext == c then p.rotor <- nil
  else begin
    c.aprev.anext <- c.anext;
    c.anext.aprev <- c.aprev;
    if p.rotor == c then begin
      p.rotor <- c.anext;
      (* the removed member's round is over; its successor starts *)
      p.rotor.deficit <- p.rotor.deficit + p.rotor.quantum
    end
  end;
  c.anext <- nil;
  c.aprev <- nil;
  c.active <- false;
  c.deficit <- 0

(* --- enqueue --------------------------------------------------------- *)

(* Activation walk: charge the subtree counters up the path and link
   every newly backlogged node into its parent's ring. Top-level and
   tail-recursive so the hot path builds no closure. *)
let rec activate_up c size =
  let was_empty = c.sub_pkts = 0 in
  c.sub_pkts <- c.sub_pkts + 1;
  c.sub_bytes <- c.sub_bytes + size;
  if not (is_root c) then begin
    if was_empty then ring_insert c.cparent c;
    activate_up c.cparent size
  end

let enqueue t ~now cl pkt =
  if is_root cl || not (is_leaf cl) then
    invalid_arg "Hls.enqueue: class is not a leaf";
  let size = pkt.Pkt.Packet.size in
  let tab = t.tab in
  let admitted =
    Fq.can_accept cl.queue size
    && (tab.pkts < tab.max_pkts && tab.bytes + size <= tab.max_bytes
       || (tab.evicting && Ct.make_room tab ~now size))
  in
  if not admitted then begin
    Fq.count_drop cl.queue;
    tab.on_drop now cl pkt;
    false
  end
  else begin
    if not (Fq.push cl.queue pkt) then assert false;
    tab.pkts <- tab.pkts + 1;
    tab.bytes <- tab.bytes + size;
    if tab.evicting then Ct.rekey tab cl.id;
    activate_up cl size;
    true
  end

(* --- dequeue --------------------------------------------------------- *)

(* Descend the rotor chain: every backlogged interior has a non-nil
   rotor, so this terminates at a leaf with a non-empty queue. *)
let rec descend c = if is_leaf c then c else descend c.rotor

(* Serve-then-charge, bottom-up: [c] is the ring member the packet
   went through at its parent's level. Deactivate an emptied subtree
   (resetting its deficit), else rotate away once the deficit is
   spent. *)
let rec charge_up c size =
  c.sub_pkts <- c.sub_pkts - 1;
  c.sub_bytes <- c.sub_bytes - size;
  c.served <- c.served + size;
  if not (is_root c) then begin
    let p = c.cparent in
    c.deficit <- c.deficit - size;
    if c.sub_pkts = 0 then ring_remove p c
    else if c.deficit <= 0 then ring_advance p;
    charge_up p size
  end

let dequeue_core t =
  let tab = t.tab in
  if tab.pkts = 0 then nil
  else begin
    let leaf = descend t.troot in
    let pkt = Fq.take leaf.queue in
    tab.pkts <- tab.pkts - 1;
    tab.bytes <- tab.bytes - pkt.Pkt.Packet.size;
    if tab.evicting then Ct.rekey tab leaf.id;
    charge_up leaf pkt.Pkt.Packet.size;
    t.deq_pkt <- pkt;
    leaf
  end

let dequeue t ~now =
  ignore now;
  let leaf = dequeue_core t in
  if leaf == nil then None else Some (t.deq_pkt, leaf)

(* mirrors [Hfsc.dequeue_into]; round-robin serves everything as
   link-sharing *)
let dequeue_into t ~now (s : Pkt.Served.t) =
  ignore now;
  let leaf = dequeue_core t in
  leaf != nil
  && begin
       s.o_pkt <- t.deq_pkt;
       s.o_id <- leaf.id;
       s.o_rt <- false;
       true
     end

(* Work-conserving with no rate caps: backlogged means servable now. *)
let next_ready_time t ~now = if t.tab.pkts = 0 then None else Some now

let backlog_pkts t = t.tab.pkts
let backlog_bytes t = t.tab.bytes

(* --- introspection --------------------------------------------------- *)

let name c = c.cname
let id c = c.id
let parent c = if is_root c then None else Some c.cparent
let classes t = Ct.classes t.tab
let find_class t n = Ct.find t.tab n
let queue_length c = Fq.length c.queue
let queue_bytes c = Fq.bytes c.queue
let quantum c = c.quantum
let served_bytes c = float_of_int c.served
let drops c = Fq.drops c.queue

(* --- invariant auditor ----------------------------------------------- *)

let audit t =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let check c =
    let kids = Ct.children t.tab c in
    (* subtree counters agree with what is below *)
    let sp, sb =
      if is_leaf c then (Fq.length c.queue, Fq.bytes c.queue)
      else
        List.fold_left
          (fun (p, b) k -> (p + k.sub_pkts, b + k.sub_bytes))
          (0, 0) kids
    in
    if c.sub_pkts <> sp then
      err "class %S: sub_pkts %d but children/queue hold %d" c.cname
        c.sub_pkts sp;
    if c.sub_bytes <> sb then
      err "class %S: sub_bytes %d but children/queue hold %d" c.cname
        c.sub_bytes sb;
    if (not (is_leaf c)) && Fq.length c.queue > 0 then
      err "interior class %S holds queued packets" c.cname;
    (* quantum bookkeeping *)
    let qs = List.fold_left (fun a k -> a + k.quantum) 0 kids in
    if c.qsum <> qs then
      err "class %S: qsum %d but children sum to %d" c.cname c.qsum qs;
    (* ring membership: active iff backlogged below *)
    List.iter
      (fun k ->
        if k.active <> (k.sub_pkts > 0) then
          err "class %S: active=%b with subtree backlog %d" k.cname k.active
            k.sub_pkts;
        if (not k.active) && k.deficit <> 0 then
          err "inactive class %S carries deficit %d" k.cname k.deficit;
        if k.deficit > k.quantum then
          err "class %S: deficit %d exceeds quantum %d" k.cname k.deficit
            k.quantum)
      kids;
    let nactive = List.length (List.filter (fun k -> k.active) kids) in
    if c.rotor == nil then begin
      if nactive > 0 then
        err "class %S: nil rotor with %d active children" c.cname nactive
    end
    else begin
      (* walk the ring: every member active, parent right, count right *)
      let seen = ref 0 in
      let x = ref c.rotor in
      let ok = ref true in
      while !ok do
        incr seen;
        if !seen > nactive then begin
          err "class %S: active ring longer than its %d active children"
            c.cname nactive;
          ok := false
        end
        else begin
          if not !x.active then
            err "class %S: ring member %S is not active" c.cname !x.cname;
          if !x.cparent != c then
            err "class %S: ring member %S has another parent" c.cname
              !x.cname;
          if !x.anext.aprev != !x then
            err "class %S: ring links broken at %S" c.cname !x.cname;
          x := !x.anext;
          if !x == c.rotor then ok := false
        end
      done;
      if !seen < nactive then
        err "class %S: ring holds %d of %d active children" c.cname !seen
          nactive
    end
  in
  List.iter check (Ct.classes t.tab);
  List.rev_append !errs (Ct.audit t.tab)
