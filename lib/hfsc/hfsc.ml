module Sc = Curve.Service_curve
module Fp = Curve.Fixed_point
module Fq = Ds.Fifo_queue
module Ct = Ds.Class_table

module type S = Hfsc_intf.S

type criterion = Realtime | Linkshare
type vt_policy = Vt_mean | Vt_min | Vt_max
type eligible_policy = Eligible_paper | Eligible_deadline
type drop_policy = Fq.drop_policy = Tail_drop | Drop_longest

let ht_infinity = Fp.ht_infinity

(* Per-class state, one record per class. Every scheduling field is an
   integer — wall-clock and virtual times in 2^-30-second ticks,
   service in bytes (see Curve.Fixed_point) — so every store is an
   immediate write and every tree comparison a plain integer compare.

   Field names follow the paper and the kernel implementations derived
   from it: [cumul] is the service received under the real-time
   criterion (the c_i of eq. (7)); [total] the service under either
   criterion (the t_i of eq. (12)); [vtadj] the upward correction
   applied when a class was held at the sibling vt floor; [cvtmin] the
   floor itself (smallest vt served in the parent's current backlog
   period); [cvtoff] the high-water vt of children that went passive,
   from which the next backlog period restarts — virtual times within a
   parent only ever move forward, which is what makes reactivation
   punishment-free; [myf]/[f] the upper-limit fit times. [vt_agg] is
   the cached minimum fit time of this class's subtree *within its
   parent's active-children tree* (the augmented-tree aggregate of
   Section V).

   The eligible/deadline tree over the leaves and each interior class's
   active-children virtual-time tree are *intrusive* (the AVL trees
   below): their node fields — child links, cached height, cached
   aggregate — are embedded right here in the class record, and
   [actc_root] is the in-class root of this class's own active-children
   tree. Tree restructuring therefore allocates nothing and finding a
   class's tree costs a field load, not a Hashtbl probe per level of
   the init_vf/update_vf walks. *)
type cls = {
  (* Field order is deliberate: a tree descent step reads id, the five
     tree keys and the intrusive links, so those lead the record and
     land together in its first cache lines. e and d drive the
     eligible/deadline tree, vt orders the active-children trees, f and
     the subtree aggregate vt_agg drive the fit-time pruning. The cold
     configuration fields follow. *)
  id : int;
  mutable e : int;
  mutable d : int;
  mutable vt : int;
  mutable f : int;
  (* virtual-time tree aggregate: min fit over this node's vt-subtree *)
  mutable vt_agg : int;
  (* intrusive eligible/deadline-tree node state (leaves only) *)
  mutable ed_l : cls;
  mutable ed_r : cls;
  mutable ed_agg : cls;
  mutable ed_h : int;
  (* intrusive virtual-time-tree node state (this class as a member of
     its parent's active-children tree) *)
  mutable vt_l : cls;
  mutable vt_r : cls;
  mutable vt_h : int;
  (* root of this class's own active-children tree; [nil] when none *)
  mutable actc_root : cls;
  (* real-time state (leaves with an rsc) *)
  mutable cumul : int;
  (* link-sharing state *)
  mutable total : int;
  mutable vtadj : int;
  mutable cvtmin : int;
  mutable cvtoff : int;
  (* upper-limit state *)
  mutable myf : int;
  mutable myfadj : int;
  queue : Fq.t;
  cname : string;
  cparent : cls option;
  (* no children: a copy of the class table's answer, so the per-packet
     path reads it without a call *)
  mutable leaf : bool;
  mutable crsc : Sc.t option;
  mutable cfsc : Sc.t option;
  mutable cusc : Sc.t option;
  (* shifted-integer forms of the three curves, converted once per
     configuration change and read on every activation; meaningful
     only when the matching [c?sc] is [Some _] *)
  mutable risc : Fp.isc;
  mutable fisc : Fp.isc;
  mutable uisc : Fp.isc;
  mutable deadline_c : Fp.t;
  mutable eligible_c : Fp.t;
  mutable in_ed : bool;
  mutable virtual_c : Fp.t;
  mutable vtperiod : int;
  mutable parentperiod : int;
  mutable nactive : int;
  mutable in_actc : bool;
  mutable ulimit_c : Fp.t;
  tab : cls Ct.t; (* the scheduler's class table, for {!children} *)
}

let zero_isc = Fp.isc_of_sc Sc.zero
let zero_rc = Fp.of_isc zero_isc ~x:0 ~y:0

let new_table () =
  Ct.create ~what:"Hfsc" ~id:(fun c -> c.id) ~name:(fun c -> c.cname)
    ~queue:(fun c -> c.queue) ()

(* The "no node" sentinel of the intrusive trees. Never enqueued, never
   inserted, never written (every new class starts as a copy of it);
   recognized by physical equality only. *)
let nil =
  let rec c =
    {
      id = -1;
      cname = "<nil>";
      cparent = None;
      leaf = true;
      tab = new_table ();
      crsc = None;
      cfsc = None;
      cusc = None;
      risc = zero_isc;
      fisc = zero_isc;
      uisc = zero_isc;
      queue = Fq.create ();
      e = 0;
      d = 0;
      vt = 0;
      f = 0;
      vt_agg = ht_infinity;
      cumul = 0;
      total = 0;
      vtadj = 0;
      cvtmin = 0;
      cvtoff = 0;
      myf = 0;
      myfadj = 0;
      deadline_c = zero_rc;
      eligible_c = zero_rc;
      in_ed = false;
      virtual_c = zero_rc;
      vtperiod = 0;
      parentperiod = 0;
      nactive = 0;
      in_actc = false;
      ulimit_c = zero_rc;
      ed_l = c;
      ed_r = c;
      ed_h = 0;
      ed_agg = c;
      vt_l = c;
      vt_r = c;
      vt_h = 0;
      actc_root = c;
    }
  in
  c

(* --- specialized intrusive tree operations ------------------------- *)

(* The two augmented AVL trees of Section V, written directly over the
   [cls] fields rather than as a functor: without flambda a call
   through a functor argument is never inlined, so a generic tree
   costs about a dozen indirect calls per tree level on the per-packet
   path; the NetBSD implementation specializes its intrusive trees
   with macros for the same reason. Here every accessor is a direct
   field load and the small helpers inline within this unit.
   No test drives these trees directly: the scheduler differential
   (test_hfsc_diff, test_fuzz) compares every decision they make with
   Hfsc_ref's linear scans, with {!audit} checking order, balance and
   every cached aggregate after each operation. *)

(* Eligible/deadline tree over the leaves: an AVL tree keyed by
   (e, id), each node caching in [ed_agg] the subtree element of
   minimum (deadline, id). *)

let ed_cmp a b =
  let c = Int.compare a.e b.e in
  if c <> 0 then c else Int.compare a.id b.id

let better_deadline a b = a.d < b.d || (a.d = b.d && a.id < b.id)
let ed_height n = if n == nil then 0 else n.ed_h

let ed_fixup n =
  let hl = ed_height n.ed_l and hr = ed_height n.ed_r in
  n.ed_h <- (1 + if hl > hr then hl else hr);
  let best = n in
  let l = n.ed_l in
  let best =
    if l != nil && better_deadline l.ed_agg best then l.ed_agg else best
  in
  let r = n.ed_r in
  let best =
    if r != nil && better_deadline r.ed_agg best then r.ed_agg else best
  in
  n.ed_agg <- best

let ed_rot_right n =
  let l = n.ed_l in
  n.ed_l <- l.ed_r;
  l.ed_r <- n;
  ed_fixup n;
  ed_fixup l;
  l

let ed_rot_left n =
  let r = n.ed_r in
  n.ed_r <- r.ed_l;
  r.ed_l <- n;
  ed_fixup n;
  ed_fixup r;
  r

let ed_bal n =
  let hl = ed_height n.ed_l and hr = ed_height n.ed_r in
  if hl > hr + 1 then begin
    let l = n.ed_l in
    if ed_height l.ed_l >= ed_height l.ed_r then ed_rot_right n
    else begin
      n.ed_l <- ed_rot_left l;
      ed_rot_right n
    end
  end
  else if hr > hl + 1 then begin
    let r = n.ed_r in
    if ed_height r.ed_r >= ed_height r.ed_l then ed_rot_left n
    else begin
      n.ed_r <- ed_rot_right r;
      ed_rot_left n
    end
  end
  else begin
    ed_fixup n;
    n
  end

let rec ed_insert_node x root =
  if root == nil then begin
    x.ed_l <- nil;
    x.ed_r <- nil;
    x.ed_h <- 1;
    x.ed_agg <- x;
    x
  end
  else begin
    let c = ed_cmp x root in
    if c = 0 then invalid_arg "Hfsc: duplicate class in eligible tree";
    if c < 0 then root.ed_l <- ed_insert_node x root.ed_l
    else root.ed_r <- ed_insert_node x root.ed_r;
    ed_bal root
  end

let rec ed_min_node root =
  if root == nil then nil
  else begin
    let l = root.ed_l in
    if l == nil then root else ed_min_node l
  end

(* Successor extraction for removal is two left-spine descents: find
   the minimum ([ed_min_node]), then detach it. One combined descent
   would need either an allocated result pair or a shared out-param;
   the pair costs a heap word per removal on the per-packet path and a
   module-level ref is shared mutable state across every [t] — a data
   race once Runtime.Mc_router runs one scheduler per domain. *)
let rec ed_detach_min root =
  if root.ed_l == nil then root.ed_r
  else begin
    root.ed_l <- ed_detach_min root.ed_l;
    ed_bal root
  end

let rec ed_remove_node x root =
  if root == nil then nil
  else begin
    let c = ed_cmp x root in
    if c < 0 then begin
      root.ed_l <- ed_remove_node x root.ed_l;
      ed_bal root
    end
    else if c > 0 then begin
      root.ed_r <- ed_remove_node x root.ed_r;
      ed_bal root
    end
    else begin
      let l = root.ed_l and r = root.ed_r in
      root.ed_l <- nil;
      root.ed_r <- nil;
      root.ed_h <- 0;
      if r == nil then l
      else begin
        let s = ed_min_node r in
        let r' = ed_detach_min r in
        s.ed_l <- l;
        s.ed_r <- r';
        ed_bal s
      end
    end
  end

(* Minimum-(deadline, id) among nodes with e <= now: if a node is
   eligible its whole left subtree is too, so its left cache can be
   taken wholesale before continuing right; otherwise descend left. *)
let rec ed_go_mde now n best =
  if n == nil then best
  else if n.e <= now then begin
    let l = n.ed_l in
    let best =
      if l == nil then best
      else begin
        let a = l.ed_agg in
        if best == nil || better_deadline a best then a else best
      end
    in
    let best = if best == nil || better_deadline n best then n else best in
    ed_go_mde now n.ed_r best
  end
  else ed_go_mde now n.ed_l best

(* Virtual-time (active children) trees: AVL keyed by (vt, id), each
   node caching the minimum fit time of its subtree in [vt_agg]. *)

let vt_cmp a b =
  let c = Int.compare a.vt b.vt in
  if c <> 0 then c else Int.compare a.id b.id

let vt_height n = if n == nil then 0 else n.vt_h

let vt_fixup n =
  let hl = vt_height n.vt_l and hr = vt_height n.vt_r in
  n.vt_h <- (1 + if hl > hr then hl else hr);
  let m = n.f in
  let l = n.vt_l in
  let m = if l != nil && l.vt_agg < m then l.vt_agg else m in
  let r = n.vt_r in
  let m = if r != nil && r.vt_agg < m then r.vt_agg else m in
  n.vt_agg <- m

let vt_rot_right n =
  let l = n.vt_l in
  n.vt_l <- l.vt_r;
  l.vt_r <- n;
  vt_fixup n;
  vt_fixup l;
  l

let vt_rot_left n =
  let r = n.vt_r in
  n.vt_r <- r.vt_l;
  r.vt_l <- n;
  vt_fixup n;
  vt_fixup r;
  r

let vt_bal n =
  let hl = vt_height n.vt_l and hr = vt_height n.vt_r in
  if hl > hr + 1 then begin
    let l = n.vt_l in
    if vt_height l.vt_l >= vt_height l.vt_r then vt_rot_right n
    else begin
      n.vt_l <- vt_rot_left l;
      vt_rot_right n
    end
  end
  else if hr > hl + 1 then begin
    let r = n.vt_r in
    if vt_height r.vt_r >= vt_height r.vt_l then vt_rot_left n
    else begin
      n.vt_r <- vt_rot_right r;
      vt_rot_left n
    end
  end
  else begin
    vt_fixup n;
    n
  end

let rec vt_insert_node x root =
  if root == nil then begin
    x.vt_l <- nil;
    x.vt_r <- nil;
    x.vt_h <- 1;
    x.vt_agg <- x.f;
    x
  end
  else begin
    let c = vt_cmp x root in
    if c = 0 then invalid_arg "Hfsc: duplicate class in active-children tree";
    if c < 0 then root.vt_l <- vt_insert_node x root.vt_l
    else root.vt_r <- vt_insert_node x root.vt_r;
    vt_bal root
  end

let rec vt_min_node root =
  if root == nil then nil
  else begin
    let l = root.vt_l in
    if l == nil then root else vt_min_node l
  end

(* find-then-detach, for the same no-shared-state reason as
   [ed_detach_min] *)
let rec vt_detach_min root =
  if root.vt_l == nil then root.vt_r
  else begin
    root.vt_l <- vt_detach_min root.vt_l;
    vt_bal root
  end

let rec vt_remove_node x root =
  if root == nil then nil
  else begin
    let c = vt_cmp x root in
    if c < 0 then begin
      root.vt_l <- vt_remove_node x root.vt_l;
      vt_bal root
    end
    else if c > 0 then begin
      root.vt_r <- vt_remove_node x root.vt_r;
      vt_bal root
    end
    else begin
      let l = root.vt_l and r = root.vt_r in
      root.vt_l <- nil;
      root.vt_r <- nil;
      root.vt_h <- 0;
      if r == nil then l
      else begin
        let s = vt_min_node r in
        let r' = vt_detach_min r in
        s.vt_l <- l;
        s.vt_r <- r';
        vt_bal s
      end
    end
  end

let rec vt_max_node root =
  if root == nil then nil
  else begin
    let r = root.vt_r in
    if r == nil then root else vt_max_node r
  end

(* Leftmost (smallest (vt, id)) element with fit <= now, pruning on the
   cached subtree min-fit. *)
let rec vt_go_ff now n =
  if n == nil then nil
  else begin
    let l = n.vt_l in
    if l != nil && l.vt_agg <= now then vt_go_ff now l
    else if n.f <= now then n
    else begin
      let r = n.vt_r in
      if r != nil && r.vt_agg <= now then vt_go_ff now r else nil
    end
  end

let dummy_pkt = Pkt.Packet.make ~flow:0 ~size:1 ~seq:0 ~arrival:0.

type t = {
  link_rate : float;
  vt_policy : vt_policy;
  eligible_policy : eligible_policy;
  (* ids, names, links, the aggregate backlog and its bounds, the drop
     policy and hook; the per-packet path reads its counters and bounds
     as fields *)
  tab : cls Ct.t;
  troot : cls;
  mutable eligible : cls; (* intrusive ED-tree root; [nil] when empty *)
  (* out-parameters of [dequeue_core], valid when it returned a
     non-nil leaf: what was served and under which criterion. Fields
     of the instance rather than module-level refs so [dequeue_into]
     stays allocation-free without any state shared between
     schedulers — Runtime.Mc_router dequeues on several [t]s
     concurrently, one per worker domain. *)
  mutable deq_pkt : Pkt.Packet.t;
  mutable deq_crit : criterion;
}

let isc_opt = function Some s -> Fp.isc_of_sc s | None -> zero_isc

(* A new class is [nil]'s blank state (no service, zero times, in no
   tree, nil links) with its own identity, curves and queue. *)
let make_cls ~tab ~name ~parent ~rsc ~fsc ~usc ~qlimit ~qbytes =
  let risc = isc_opt rsc and fisc = isc_opt fsc and uisc = isc_opt usc in
  let curve sc isc =
    match sc with Some _ -> Fp.of_isc isc ~x:0 ~y:0 | None -> zero_rc
  in
  {
    nil with
    id = Ct.next_id tab;
    cname = name;
    cparent = parent;
    tab;
    crsc = rsc;
    cfsc = fsc;
    cusc = usc;
    risc;
    fisc;
    uisc;
    queue = Fq.create ?limit_pkts:qlimit ?limit_bytes:qbytes ();
    deadline_c = curve rsc risc;
    eligible_c = curve rsc risc;
    virtual_c = curve fsc fisc;
    ulimit_c = curve usc uisc;
  }

(* How much unused upper-limit allowance a rate-capped class may carry
   forward as a burst: 1 ms, in ticks. *)
let ulimit_slack = Fp.ticks_of_seconds 0.001

let create ?(vt_policy = Vt_mean) ?(eligible_policy = Eligible_paper)
    ~link_rate () =
  if
    (not (Float.is_finite link_rate))
    || link_rate < Fp.min_rate || link_rate > Fp.max_rate
  then
    invalid_arg "Hfsc.create: link_rate out of range (not in [0.5, 2^31] B/s)";
  let tab = new_table () in
  let troot =
    make_cls ~tab ~name:"root" ~parent:None ~rsc:None
      ~fsc:(Some (Sc.linear link_rate)) ~usc:None ~qlimit:None ~qbytes:None
  in
  Ct.add tab troot;
  {
    link_rate;
    vt_policy;
    eligible_policy;
    tab;
    troot;
    eligible = nil;
    deq_pkt = dummy_pkt;
    deq_crit = Realtime;
  }

let root t = t.troot
let table t = t.tab
let classes t = Ct.classes t.tab

(* Refuse curves the fixed-point arithmetic cannot represent, before
   anything is mutated. *)
let check_curves what ~rsc ~fsc ~usc =
  (match rsc with Some s -> Fp.check_sc what "rsc" s | None -> ());
  (match fsc with Some s -> Fp.check_sc what "fsc" s | None -> ());
  match usc with Some s -> Fp.check_breakpoint what "usc" s | None -> ()

let add_class t ~parent ~name ?rsc ?fsc ?usc ?qlimit ?qlimit_bytes () =
  if parent.crsc <> None then
    invalid_arg "Hfsc.add_class: parent has a real-time curve (leaf only)";
  if not (Fq.is_empty parent.queue) then
    invalid_arg "Hfsc.add_class: parent has queued packets";
  if parent.leaf && parent.total > 0 then
    invalid_arg "Hfsc.add_class: parent already served packets as a leaf";
  let fsc = match fsc with Some _ as f -> f | None -> rsc in
  if rsc = None && fsc = None then
    invalid_arg "Hfsc.add_class: a class needs an rsc or an fsc";
  check_curves "Hfsc.add_class" ~rsc ~fsc ~usc;
  let cl =
    make_cls ~tab:t.tab ~name ~parent:(Some parent) ~rsc ~fsc ~usc ~qlimit
      ~qbytes:qlimit_bytes
  in
  Ct.add t.tab ~parent cl;
  parent.leaf <- false;
  cl

let remove_class t cl =
  Ct.remove t.tab cl ~active:(cl.nactive > 0 || cl.in_ed || cl.in_actc);
  Option.iter (fun p -> p.leaf <- Ct.is_leaf t.tab p) cl.cparent

let class_of_id t id = Ct.class_of_id t.tab id

(* Every check runs before the first store, so a refused change leaves
   the class exactly as it was: the curves' checks, then the limits'. *)
let modify_class t cl ?rsc ?fsc ?usc ?qlimit ?qlimit_bytes () =
  if rsc <> None || fsc <> None || usc <> None then begin
    if not (Fq.is_empty cl.queue) || cl.nactive > 0 || cl.in_ed || cl.in_actc
    then invalid_arg "Hfsc.modify_class: class is active";
    if rsc <> None && not cl.leaf then
      invalid_arg "Hfsc.modify_class: rsc on an interior class";
    check_curves "Hfsc.modify_class" ~rsc ~fsc ~usc
  end;
  Ct.check_limits t.tab cl ?pkts:qlimit ?bytes:qlimit_bytes ();
  (* re-anchor the runtime curves at the accumulated service so the next
     activation's min-update treats the new curve as the whole history *)
  (match rsc with
  | Some s ->
      cl.crsc <- Some s;
      cl.risc <- Fp.isc_of_sc s;
      cl.deadline_c <- Fp.of_isc cl.risc ~x:0 ~y:cl.cumul;
      cl.eligible_c <- Fp.of_isc cl.risc ~x:0 ~y:cl.cumul
  | None -> ());
  (match fsc with
  | Some s ->
      cl.cfsc <- Some s;
      cl.fisc <- Fp.isc_of_sc s;
      cl.virtual_c <- Fp.of_isc cl.fisc ~x:0 ~y:cl.total
  | None -> ());
  (match usc with
  | Some s ->
      cl.cusc <- Some s;
      cl.uisc <- Fp.isc_of_sc s;
      cl.ulimit_c <- Fp.of_isc cl.uisc ~x:0 ~y:cl.total
  | None -> ());
  Fq.set_limits ?pkts:qlimit ?bytes:qlimit_bytes cl.queue

(* --- bounds and drop policy ----------------------------------------- *)

let queue_limit_pkts c = Fq.limit_pkts c.queue
let queue_limit_bytes c = Fq.limit_bytes c.queue

let set_aggregate_limit t = Ct.set_aggregate_limit t.tab
let aggregate_limit_pkts t = t.tab.max_pkts
let aggregate_limit_bytes t = t.tab.max_bytes
let set_drop_policy t p = Ct.set_drop_policy t.tab p
let drop_policy t = Ct.drop_policy t.tab
let set_drop_hook t f = t.tab.on_drop <- f

(* Same-unit copies of the Curve.Fixed_point hot functions. Dune's dev
   profile compiles interfaces with -opaque, which turns off
   cross-module inlining in classic (non-flambda) ocamlopt — so the
   curve inversions a dequeue performs would each pay a call. Integer
   arguments never box, but the call itself is the cost being shaved
   here; keep these in sync with Curve.Fixed_point (the scheduler
   differential suite pins both sides to the reference, which calls
   the module). Only the inverse direction is copied: the forward
   evaluation and min-updates run on the activation path and call the
   module. *)
let ism_shift = Fp.ism_shift
let ism_mask = (1 lsl ism_shift) - 1

let[@inline always] seg_y2x y ism =
  if ism >= ht_infinity then ht_infinity
  else ((y asr ism_shift) * ism) + (((y land ism_mask) * ism) asr ism_shift)

let[@inline always] rc_inverse (c : Fp.t) v =
  if v < c.y then c.x
  else if v <= c.y + c.dy then
    if c.dy = 0 then c.x + c.dx else c.x + seg_y2x (v - c.y) c.ism1
  else if c.sm2 > 0 then c.x + c.dx + seg_y2x (v - c.y - c.dy) c.ism2
  else ht_infinity (* flat tail: v > y + dy is never reached *)

let imax (a : int) (b : int) = if a > b then a else b
let imin (a : int) (b : int) = if a < b then a else b

(* --- eligible-tree bookkeeping ------------------------------------ *)

let ed_insert t cl =
  assert (not cl.in_ed);
  t.eligible <- ed_insert_node cl t.eligible;
  cl.in_ed <- true

let ed_remove t cl =
  if cl.in_ed then begin
    t.eligible <- ed_remove_node cl t.eligible;
    cl.in_ed <- false
  end

(* --- active-children (virtual time) trees ------------------------- *)

let actc_insert parent child =
  assert (not child.in_actc);
  parent.actc_root <- vt_insert_node child parent.actc_root;
  child.in_actc <- true

let actc_remove parent child =
  if child.in_actc then begin
    parent.actc_root <- vt_remove_node child parent.actc_root;
    child.in_actc <- false
  end

(* Fit-time lower bound over [cl]'s active children: 0 when there are
   none (an interior class with no active child is itself inactive and
   its f is never consulted). Reads the in-class cached aggregate — one
   field load, no scan over the children. *)
let cfmin cl =
  let r = cl.actc_root in
  if r == nil then 0 else r.vt_agg

(* --- real-time criterion state (Section IV-B) --------------------- *)

(* Update the deadline and eligible curves when leaf [cl] becomes
   active at [now] (eq. (7) and (11)), then compute e and d for the
   head packet and join the eligible set. [now] is in ticks;
   [next_len] in bytes. *)
let init_ed t cl now next_len =
  match cl.crsc with
  | None -> ()
  | Some _ ->
      let s = cl.risc in
      cl.deadline_c <- Fp.min_with cl.deadline_c s ~x:now ~y:cl.cumul;
      (match t.eligible_policy with
      | Eligible_deadline -> cl.eligible_c <- cl.deadline_c
      | Eligible_paper ->
          let ec = Fp.min_with cl.eligible_c s ~x:now ~y:cl.cumul in
          cl.eligible_c <- (if Fp.isc_concave s then ec else Fp.flatten ec));
      cl.e <- rc_inverse cl.eligible_c cl.cumul;
      cl.d <- rc_inverse cl.deadline_c (cl.cumul + next_len);
      ed_insert t cl

(* Recompute e and d after real-time service (cumul advanced). *)
let update_ed t cl next_len =
  ed_remove t cl;
  cl.e <- rc_inverse cl.eligible_c cl.cumul;
  cl.d <- rc_inverse cl.deadline_c (cl.cumul + next_len);
  ed_insert t cl

(* Recompute d only, after link-sharing service: cumul is untouched —
   this is the non-punishment property — but the head packet changed
   so the deadline must be refreshed for its length. *)
let update_d t cl next_len =
  ed_remove t cl;
  cl.d <- rc_inverse cl.deadline_c (cl.cumul + next_len);
  ed_insert t cl

(* --- link-sharing criterion state (Section IV-C) ------------------ *)

(* Recompute [cl.f] from its own upper limit and its children's fit
   times, repositioning it in [parent]'s tree if the value changed. *)
let refresh_f parent cl =
  let f = imax cl.myf (cfmin cl) in
  if f <> cl.f then
    if cl.in_actc then begin
      actc_remove parent cl;
      cl.f <- f;
      actc_insert parent cl
    end
    else cl.f <- f

(* Walk from a newly-active leaf towards the root, switching each
   newly-active ancestor's virtual time state into the current parent
   period (eq. (12) with the paper's (vmin+vmax)/2 initialization) and
   propagating fit-time changes the rest of the way up. Tail-recursive
   with the "did this level newly activate" flag as a plain argument
   (no refs: a ref cell would be a heap allocation per walk). *)
let rec init_vf t cl go_active now =
  match cl.cparent with
  | None ->
      (* the walk's parent-side bookkeeping never runs for the root
         (it has no iteration of its own), so close the books here:
         count its newly-active child and open a fresh root backlog
         period when the first one arrives *)
      if go_active then begin
        let was = cl.nactive in
        cl.nactive <- was + 1;
        if was = 0 then cl.vtperiod <- cl.vtperiod + 1
      end
  | Some parent ->
      let newly =
        if go_active then begin
          let was = cl.nactive in
          cl.nactive <- was + 1;
          was = 0
        end
        else false
      in
      if newly then begin
        let vmax_cl = vt_max_node parent.actc_root in
        if vmax_cl != nil then begin
          let vmax = vmax_cl.vt in
          let vt0 =
            match t.vt_policy with
            | Vt_mean ->
                if parent.cvtmin <> 0 then (parent.cvtmin + vmax) / 2
                else vmax
            | Vt_min ->
                if parent.cvtmin <> 0 then parent.cvtmin else vmax
            | Vt_max -> vmax
          in
          (* joining an ongoing period never decreases vt; a fresh
             parent period may place the class anywhere *)
          if parent.vtperiod <> cl.parentperiod || vt0 > cl.vt then
            cl.vt <- vt0
        end
        else begin
          (* First child of a fresh parent backlog period: restart
             at the highest vt any sibling reached before going
             passive, so virtual time never flows backwards. *)
          cl.vt <- parent.cvtoff;
          parent.cvtmin <- 0
        end;
        (match cl.cfsc with
        | Some _ ->
            cl.virtual_c <-
              Fp.min_with cl.virtual_c cl.fisc ~x:cl.vt ~y:cl.total
        | None -> ());
        cl.vtadj <- 0;
        cl.vtperiod <- cl.vtperiod + 1;
        cl.parentperiod <-
          (parent.vtperiod + if parent.nactive = 0 then 1 else 0);
        cl.f <- 0;
        (match cl.cusc with
        | Some _ ->
            cl.ulimit_c <- Fp.min_with cl.ulimit_c cl.uisc ~x:now ~y:cl.total;
            cl.myfadj <- 0;
            cl.myf <- rc_inverse cl.ulimit_c cl.total
        | None -> ());
        actc_insert parent cl
      end;
      refresh_f parent cl;
      init_vf t parent newly now

(* Walk from a just-served leaf towards the root, charging the packet
   to every class's total, advancing virtual times ([vt = V^-1(total)],
   eq. (12)) — including for classes that are just going passive, so a
   reactivation later resumes from the vt actually earned — and
   detaching classes whose subtree went idle. [now] is in ticks. *)
let rec update_vf cl go_passive len now =
  cl.total <- cl.total + len;
  match cl.cparent with
  | None ->
      (* root-side mirror of the nactive bookkeeping above *)
      if go_passive then cl.nactive <- cl.nactive - 1
  | Some parent ->
      let go_passive =
        match cl.cfsc with
        | Some _ when cl.nactive > 0 ->
            let passive_now =
              if go_passive then begin
                cl.nactive <- cl.nactive - 1;
                cl.nactive = 0
              end
              else false
            in
            actc_remove parent cl;
            cl.vt <- rc_inverse cl.virtual_c cl.total + cl.vtadj;
            (* a class held below the sibling floor (skipped for
               non-fit) is translated up and keeps the credit *)
            if cl.vt < parent.cvtmin then begin
              cl.vtadj <- cl.vtadj + (parent.cvtmin - cl.vt);
              cl.vt <- parent.cvtmin
            end;
            if passive_now then begin
              (* going passive: remember the high-water vt so the next
                 backlog period of the parent resumes above it *)
              if cl.vt > parent.cvtoff then
                parent.cvtoff <- cl.vt
            end
            else begin
              (match cl.cusc with
              | Some _ ->
                  cl.myf <- rc_inverse cl.ulimit_c cl.total + cl.myfadj;
                  (* a rate-capped class that under-used its allowance
                     forfeits it beyond [ulimit_slack] — no unbounded
                     catch-up bursts *)
                  if cl.myf < now - ulimit_slack then begin
                    cl.myfadj <- cl.myfadj + (now - cl.myf);
                    cl.myf <- now
                  end
              | None -> ());
              cl.f <- imax cl.myf (cfmin cl);
              actc_insert parent cl
            end;
            passive_now
        | _ -> go_passive
      in
      update_vf parent go_passive len now

(* --- the public datapath ------------------------------------------ *)

let enqueue t ~now cl pkt =
  if cl == t.troot || not cl.leaf then
    invalid_arg "Hfsc.enqueue: class is not a leaf";
  let size = pkt.Pkt.Packet.size in
  let tab = t.tab in
  (* a Drop_longest eviction takes a tail from a queue of two or more,
     so no ED/VT state needs repair: deadlines track the head packet and
     activity tracks emptiness, and neither changes *)
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
    let was_empty = Fq.is_empty cl.queue in
    if not (Fq.push cl.queue pkt) then assert false;
    tab.pkts <- tab.pkts + 1;
    tab.bytes <- tab.bytes + size;
    if tab.evicting then Ct.rekey tab cl.id;
    if was_empty then begin
      (* ticks are needed only on the activation path; the backlogged
         fast path stays conversion-free *)
      let nowt = Fp.ticks_of_seconds now in
      init_ed t cl nowt size;
      match cl.cfsc with
      | Some _ -> init_vf t cl true nowt
      | None -> if cl.crsc = None then assert false
    end;
    true
  end

(* link-sharing: descend by smallest virtual time that fits. Top-level
   so no closure is built per dequeue. *)
let rec descend_ls c now =
  if c.leaf then c
  else begin
    let child = vt_go_ff now c.actc_root in
    if child == nil then nil
    else begin
      if c.cvtmin < child.vt then c.cvtmin <- child.vt;
      descend_ls child now
    end
  end

(* One dequeue decision at tick [now]: returns the served leaf ([nil]
   for "nothing servable") and leaves the packet and criterion in the
   instance's [deq_pkt]/[deq_crit] out-params. Both [dequeue] and
   [dequeue_into] are thin wrappers, so the two serve bit-identical
   sequences by construction. *)
let dequeue_core t now =
  let tab = t.tab in
  if tab.pkts = 0 then nil
  else begin
    let rt = ed_go_mde now t.eligible nil in
    let leaf = if rt != nil then rt else descend_ls t.troot now in
    let crit = if rt != nil then Realtime else Linkshare in
    if leaf == nil then nil
    else begin
      let pkt = Fq.take leaf.queue in
      tab.pkts <- tab.pkts - 1;
      tab.bytes <- tab.bytes - pkt.Pkt.Packet.size;
      if tab.evicting then Ct.rekey tab leaf.id;
      update_vf leaf (Fq.is_empty leaf.queue) pkt.Pkt.Packet.size now;
      (match crit with
      | Realtime -> leaf.cumul <- leaf.cumul + pkt.Pkt.Packet.size
      | Linkshare -> ());
      if Fq.is_empty leaf.queue then ed_remove t leaf
      else begin
        match leaf.crsc with
        | Some _ -> (
            let next = (Fq.head leaf.queue).Pkt.Packet.size in
            match crit with
            | Realtime -> update_ed t leaf next
            | Linkshare -> update_d t leaf next)
        | None -> ()
      end;
      t.deq_pkt <- pkt;
      t.deq_crit <- crit;
      leaf
    end
  end

let dequeue t ~now =
  let leaf = dequeue_core t (Fp.ticks_of_seconds now) in
  if leaf == nil then None else Some (t.deq_pkt, leaf, t.deq_crit)

(* The served triple goes straight into the caller's [Pkt.Served] —
   the leaf's dense id, not the class value — so a served packet costs
   zero words of allocation ([dequeue] pays 6 for its
   [Some (pkt, cls, crit)]). *)
let dequeue_into t ~now (s : Pkt.Served.t) =
  let leaf = dequeue_core t (Fp.ticks_of_seconds now) in
  leaf != nil
  && begin
       s.o_pkt <- t.deq_pkt;
       s.o_id <- leaf.id;
       s.o_rt <- (match t.deq_crit with Realtime -> true | Linkshare -> false);
       true
     end

let next_ready_time t ~now =
  if t.tab.pkts = 0 then None
  else begin
    let nowt = Fp.ticks_of_seconds now in
    let ls_root = t.troot.actc_root in
    let rt_now = ed_go_mde nowt t.eligible nil != nil in
    let ls_now = ls_root != nil && ls_root.vt_agg <= nowt in
    if rt_now || ls_now then Some now
    else begin
      let cand = ht_infinity in
      let cand =
        let m = ed_min_node t.eligible in
        if m == nil then cand else imin cand m.e
      in
      let cand =
        if ls_root == nil then cand else imin cand ls_root.vt_agg
      in
      (* a tick value converts to an exact float, so a caller polling at
         the returned instant converts back to the same tick and the
         candidate really is servable then *)
      Some (Float.max now (Fp.seconds_of_ticks cand))
    end
  end

let backlog_pkts t = t.tab.pkts
let backlog_bytes t = t.tab.bytes

(* --- introspection ------------------------------------------------- *)

let name c = c.cname
let id c = c.id
let is_leaf c = c.leaf
let parent c = c.cparent
let children (c : cls) = Ct.children c.tab c
let find_class t n = Ct.find t.tab n
let queue_length c = Fq.length c.queue
let queue_bytes c = Fq.bytes c.queue

(* Service counters are integers (bytes) internally; the float views
   below are exact — every reachable value sits far below 2^53. *)
let total_bytes c = float_of_int c.total
let realtime_bytes c = float_of_int c.cumul
let drops c = Fq.drops c.queue
let virtual_time c = Fp.seconds_of_ticks c.vt
let rsc c = c.crsc
let fsc c = c.cfsc
let usc c = c.cusc

let debug_state c =
  Format.asprintf
    "%s vt=%d vtadj=%d total=%d V=%a e=%d d=%d cvtmin=%d cvtoff=%d per=%d \
     pper=%d nact=%d act=%b"
    c.cname c.vt c.vtadj c.total Fp.pp c.virtual_c c.e c.d
    c.cvtmin c.cvtoff c.vtperiod c.parentperiod c.nactive c.in_actc

(* --- invariant auditor --------------------------------------------- *)

(* Tolerance for the eligible-before-deadline check: the eligible and
   deadline values of a convex-rsc leaf come from independently
   quantized curves (the eligible one flattened), so they can disagree
   by a few ticks where the exact values would tie; one microsecond of
   slack mirrors the float auditor's 1e-6. *)
let e_d_slack = Fp.ticks_of_seconds 1e-6 + 1

(* Validates every structural invariant the zero-allocation datapath
   depends on. Called between operations (never mid-update), so every
   cached aggregate and membership flag must be exact: integer
   aggregates are compared with [=] — fixup only ever copies one of
   its inputs, so a correct cache is identical, not merely close.
   Negative time or service values can only come from arithmetic
   overflow (all inputs are nonnegative), so they are flagged the way
   the float auditor flagged NaNs. *)
let audit t =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let neg x = x < 0 in
  (* eligible/deadline tree *)
  let ed_members = Hashtbl.create 16 in
  let rec chk_ed n =
    if n == nil then (0, nil)
    else begin
      if Hashtbl.mem ed_members n.id then
        err "ED: class %s (id %d) appears twice" n.cname n.id
      else Hashtbl.add ed_members n.id n;
      if n.ed_l != nil && ed_cmp n.ed_l n >= 0 then
        err "ED: order violated at %s (left child %s)" n.cname n.ed_l.cname;
      if n.ed_r != nil && ed_cmp n n.ed_r >= 0 then
        err "ED: order violated at %s (right child %s)" n.cname n.ed_r.cname;
      let hl, bl = chk_ed n.ed_l in
      let hr, br = chk_ed n.ed_r in
      if abs (hl - hr) > 1 then
        err "ED: AVL balance violated at %s (%d vs %d)" n.cname hl hr;
      let h = 1 + if hl > hr then hl else hr in
      if n.ed_h <> h then
        err "ED: cached height at %s is %d, expected %d" n.cname n.ed_h h;
      let best = n in
      let best = if bl != nil && better_deadline bl best then bl else best in
      let best = if br != nil && better_deadline br best then br else best in
      if n.ed_agg != best then
        err "ED: cached min-deadline at %s is %s, expected %s" n.cname
          n.ed_agg.cname best.cname;
      (h, best)
    end
  in
  ignore (chk_ed t.eligible);
  (* per-class checks, leaves and interior alike *)
  let check_cls c =
    let leaf = c.leaf in
    let kids = Ct.children t.tab c in
    if leaf <> (kids = []) then
      err "class %s: leaf flag %b with %d children" c.cname leaf
        (List.length kids);
    if
      neg c.e || neg c.d || neg c.vt || neg c.f || neg c.cumul
      || neg c.total || neg c.vtadj || neg c.cvtmin || neg c.cvtoff
      || neg c.myf || neg c.myfadj
    then err "class %s: negative (overflowed?) scheduling state" c.cname;
    if leaf && c != t.troot then begin
      let backlogged = not (Fq.is_empty c.queue) in
      let should_ed = backlogged && c.crsc <> None in
      if c.in_ed && not should_ed then
        err "ED: %s is in the eligible set but %s" c.cname
          (if backlogged then "has no rsc" else "is empty");
      if should_ed && not c.in_ed then
        err "ED: backlogged rt leaf %s missing from the eligible set" c.cname;
      if c.in_ed && not (Hashtbl.mem ed_members c.id) then
        err "ED: %s flagged in_ed but not reachable from the root" c.cname;
      if c.in_ed && c.e > c.d + e_d_slack then
        err "ED: %s eligible after deadline (e=%d > d=%d)" c.cname c.e c.d;
      if c.nactive <> (if backlogged then 1 else 0) then
        err "class %s: leaf nactive=%d with %s queue" c.cname c.nactive
          (if backlogged then "a nonempty" else "an empty")
    end
    else begin
      if not (Fq.is_empty c.queue) then
        err "class %s: interior class with queued packets" c.cname;
      let active_children =
        List.fold_left
          (fun acc ch -> if ch.nactive > 0 then acc + 1 else acc)
          0 kids
      in
      if c.nactive <> active_children then
        err "class %s: nactive=%d but %d children are active" c.cname
          c.nactive active_children
    end;
    if c != t.troot && c.in_actc <> (c.nactive > 0) then
      err "class %s: in_actc=%b with nactive=%d" c.cname c.in_actc c.nactive;
    if c == t.troot && c.in_actc then err "root flagged in_actc";
    if c.in_actc && c.f <> imax c.myf (cfmin c) then
      err "class %s: cached fit %d, expected max(myf=%d, cfmin=%d)" c.cname
        c.f c.myf (cfmin c);
    if c.total < c.cumul then
      err "class %s: total=%d below realtime cumul=%d" c.cname c.total
        c.cumul;
    (* this class's active-children tree *)
    let vt_members = Hashtbl.create 8 in
    let rec chk_vt n =
      if n == nil then (0, ht_infinity)
      else begin
        if Hashtbl.mem vt_members n.id then
          err "VT(%s): class %s appears twice" c.cname n.cname
        else Hashtbl.add vt_members n.id n;
        if n.vt_l != nil && vt_cmp n.vt_l n >= 0 then
          err "VT(%s): order violated at %s" c.cname n.cname;
        if n.vt_r != nil && vt_cmp n n.vt_r >= 0 then
          err "VT(%s): order violated at %s" c.cname n.cname;
        let hl, ml = chk_vt n.vt_l in
        let hr, mr = chk_vt n.vt_r in
        if abs (hl - hr) > 1 then
          err "VT(%s): AVL balance violated at %s" c.cname n.cname;
        let h = 1 + if hl > hr then hl else hr in
        if n.vt_h <> h then
          err "VT(%s): cached height at %s is %d, expected %d" c.cname
            n.cname n.vt_h h;
        let m = n.f in
        let m = if ml < m then ml else m in
        let m = if mr < m then mr else m in
        if n.vt_agg <> m then
          err "VT(%s): cached min-fit at %s is %d, expected %d" c.cname
            n.cname n.vt_agg m;
        (h, m)
      end
    in
    ignore (chk_vt c.actc_root);
    List.iter
      (fun ch ->
        if ch.in_actc && not (Hashtbl.mem vt_members ch.id) then
          err "VT(%s): active child %s missing from the tree" c.cname
            ch.cname;
        if (not ch.in_actc) && Hashtbl.mem vt_members ch.id then
          err "VT(%s): passive child %s still in the tree" c.cname ch.cname)
      kids;
    (* a child is a live class whose parent is [c]: O(1) a member *)
    Hashtbl.iter
      (fun _ n ->
        let live =
          match Ct.class_of_id t.tab n.id with
          | l -> l == n
          | exception Invalid_argument _ -> false
        in
        match n.cparent with
        | Some p when p == c && live -> ()
        | _ -> err "VT(%s): tree member %s is not a child" c.cname n.cname)
      vt_members
  in
  List.iter check_cls (classes t);
  (* every ED member must be a known in_ed leaf *)
  Hashtbl.iter
    (fun _ n ->
      if not n.in_ed then err "ED: tree member %s not flagged in_ed" n.cname;
      match Ct.class_of_id t.tab n.id with
      | c when c == n -> ()
      | _ | (exception Invalid_argument _) ->
          err "ED: tree member %s is not a class of this scheduler" n.cname)
    ed_members;
  List.rev_append !errs (Ct.audit t.tab)

let pp_hierarchy ppf t =
  let rec go indent c =
    Format.fprintf ppf "%s%s" indent c.cname;
    (match c.crsc with
    | Some s -> Format.fprintf ppf " rsc=%a" Sc.pp s
    | None -> ());
    (match c.cfsc with
    | Some s -> Format.fprintf ppf " fsc=%a" Sc.pp s
    | None -> ());
    (match c.cusc with
    | Some s -> Format.fprintf ppf " usc=%a" Sc.pp s
    | None -> ());
    Format.fprintf ppf " total=%dB rt=%dB q=%d vt=%.6f@\n" c.total
      c.cumul (Fq.length c.queue) (Fp.seconds_of_ticks c.vt);
    List.iter (go (indent ^ "  ")) (children c)
  in
  go "" t.troot
