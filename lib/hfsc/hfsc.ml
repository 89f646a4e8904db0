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

(* Per-class state. Every scheduling value is an integer — wall-clock
   and virtual times in 2^-30-second ticks, service in bytes (see
   Curve.Fixed_point) — so every comparison is a plain integer compare.

   Field names follow the paper and the kernel implementations derived
   from it: [cumul] is the service received under the real-time
   criterion (the c_i of eq. (7)); [total] the service under either
   criterion (the t_i of eq. (12)); [vtadj] the upward correction
   applied when a class was held at the sibling vt floor; [cvtmin] the
   floor itself (smallest vt served in the parent's current backlog
   period); [cvtoff] the high-water vt of children that went passive,
   from which the next backlog period restarts — virtual times within a
   parent only ever move forward, which is what makes reactivation
   punishment-free; [myf] the upper-limit fit time.

   The state the trees and the curves keep lives beside the record, in
   two [int array]s with one row per dense id of the class table
   ([rows] below). Both rows open with the same augmented AVL node —
   key, the aggregate's source, links, height, cached aggregate — so
   one tree implementation serves both: in [ed] the eligible/deadline
   tree's node (e, d, ..., min-deadline id) with the deadline and
   eligible curves' anchors, in [vn] the virtual-time tree's node (vt,
   f, ..., min-fit) with the root of the class's own active-children
   tree and the virtual and upper-limit curves' anchors. A tree link is
   an id, absence is -1, so restructuring a tree or updating a curve is
   a run of integer stores: none goes through the write barrier a
   pointer-field store pays, and activating a class allocates
   nothing. *)
type cls = {
  id : int;
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
  mutable in_ed : bool;
  mutable in_actc : bool;
  mutable nactive : int;
  mutable vtperiod : int;
  mutable parentperiod : int;
  (* no children: a copy of the class table's answer, so the per-packet
     path reads it without a call *)
  mutable leaf : bool;
  queue : Fq.t;
  cname : string;
  cparent : cls option;
  mutable crsc : Sc.t option;
  mutable cfsc : Sc.t option;
  mutable cusc : Sc.t option;
  (* shifted-integer forms of the three curves, converted once per
     configuration change: the slopes of the runtime curves, whose
     anchors are in [rows]; [zero_isc] when the matching [c?sc] is
     [None] *)
  mutable risc : Fp.isc;
  mutable fisc : Fp.isc;
  mutable uisc : Fp.isc;
  rows : rows; (* the scheduler's, for the readers given only a class *)
}

(* The scheduler's per-id rows: [stride] ints per id in [ed] and in
   [vn], at the offsets below. A row holds a tree node and the anchors
   (x, y, dx, dy) of the two runtime curves its tree's keys come from,
   whose slopes are the class's [risc]/[fisc]/[uisc]: one class's
   state for one tree is one 128-byte stretch, which a walk that
   touches many classes reads as one memory fetch, not one per array.
   Both grow with the class table's slots, which stay the one id ->
   class map. *)
and rows = {
  tab : cls Ct.t;
  mutable ed : int array;
  mutable vn : int array;
}

let stride = 16

(* The tree node, the same in both rows: in [ed] the eligible/deadline
   tree's, in [vn] this class as a member of its parent's
   active-children tree. *)
let n_key = 0 (* e; vt *)
let n_src = 1 (* what the aggregate is taken over: d; the fit time f,
                 max of myf and the children's min-fit *)
let n_l = 2
let n_r = 3
let n_h = 4
let n_agg = 5 (* id of the subtree's minimum (d, id); the subtree's min f *)
let vt_c = 6 (* [vn]: root of this class's own active-children tree *)
let ed_dc = 8 (* the deadline curve's anchor, over risc: x, y, dx, dy *)
let ed_ec = 12 (* the eligible curve's, over risc *)
let vt_vc = 8 (* the virtual curve's anchor, over fisc *)
let vt_uc = 12 (* the upper-limit curve's, over uisc *)

(* Field [f] of row [n], at [n * stride + f]. Unchecked: a row is
   always an id [register] sized the arrays for (tree links hold such
   ids or -1, and every link is tested for -1 before it is followed),
   and [f] is under [stride]. *)
let[@inline always] get (a : int array) n f = Array.unsafe_get a ((n * stride) + f)
let[@inline always] set (a : int array) n f v = Array.unsafe_set a ((n * stride) + f) v

let zero_isc = Fp.isc_of_sc Sc.zero

let new_rows () =
  {
    tab =
      Ct.create ~what:"Hfsc" ~id:(fun c -> c.id) ~name:(fun c -> c.cname)
        ~queue:(fun c -> c.queue) ();
    ed = [||];
    vn = [||];
  }

(* Doubling, with the class table: [n] is its new slot count. *)
let grow k n =
  let ext a =
    let b = Array.make (stride * n) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  k.ed <- ext k.ed;
  k.vn <- ext k.vn

(* The anchor at offset [c] of [id]'s row at (0, y), with its
   generator's first segment. *)
let set_anchor (a : int array) id c (s : Fp.isc) ~y =
  set a id c 0;
  set a id (c + 1) y;
  set a id (c + 2) s.dx;
  set a id (c + 3) s.dy

(* A node in no tree, with zero key and source *)
let blank_node (a : int array) id ~agg =
  set a id n_key 0;
  set a id n_src 0;
  set a id n_l (-1);
  set a id n_r (-1);
  set a id n_h 0;
  set a id n_agg agg

(* Enter a new class in the table and give its id blank rows: no
   service, zero times, in no tree, its curves anchored at the origin. *)
let register k ?parent cl =
  Ct.add k.tab ?parent cl;
  let n = Array.length k.tab.slots in
  if Array.length k.ed < stride * n then grow k n;
  let id = cl.id in
  blank_node k.ed id ~agg:(-1);
  blank_node k.vn id ~agg:ht_infinity;
  set k.vn id vt_c (-1);
  set_anchor k.ed id ed_dc cl.risc ~y:0;
  set_anchor k.ed id ed_ec cl.risc ~y:0;
  set_anchor k.vn id vt_vc cl.fisc ~y:0;
  set_anchor k.vn id vt_uc cl.uisc ~y:0

(* --- the Section V trees ------------------------------------------- *)

(* Both augmented AVL trees of Section V — the eligible/deadline tree
   over the leaves and one virtual-time tree of active children per
   interior class — are one implementation over the per-id rows, keyed
   by (key, id). Every operation takes the row array and [ed], which
   chooses the cached aggregate: [true] for the ED tree, whose [n_agg]
   is the id of the subtree's minimum (d, id), [false] for a VT tree,
   whose [n_agg] is the subtree's minimum f. The flag is a plain
   argument, not a functor or closure: without flambda a call through
   a functor argument or closure is never inlined, so a generic tree
   costs about a dozen indirect calls per tree level on the per-packet
   path; the NetBSD implementation specializes its intrusive trees
   with macros for the same reason. Here every accessor is an array
   load and the small helpers inline within this unit. Nodes are ids,
   -1 is the empty tree.
   No test drives these trees directly: the scheduler differential
   (test_hfsc_diff, test_fuzz) compares every decision they make with
   Hfsc_ref's linear scans, with {!audit} checking order, balance and
   every cached aggregate after each operation. *)

let t_cmp a x y =
  let c = Int.compare (get a x n_key) (get a y n_key) in
  if c <> 0 then c else Int.compare x y

let better_deadline ed x y =
  let dx = get ed x n_src and dy = get ed y n_src in
  dx < dy || (dx = dy && x < y)

let t_height a n = if n < 0 then 0 else get a n n_h

let t_fixup a ed n =
  let l = get a n n_l and r = get a n n_r in
  let hl = t_height a l and hr = t_height a r in
  set a n n_h (1 + if hl > hr then hl else hr);
  if ed then begin
    let best = n in
    let best =
      if l >= 0 && better_deadline a (get a l n_agg) best then get a l n_agg
      else best
    in
    let best =
      if r >= 0 && better_deadline a (get a r n_agg) best then get a r n_agg
      else best
    in
    set a n n_agg best
  end
  else begin
    let m = get a n n_src in
    let m = if l >= 0 && get a l n_agg < m then get a l n_agg else m in
    let m = if r >= 0 && get a r n_agg < m then get a r n_agg else m in
    set a n n_agg m
  end

let t_rot_right a ed n =
  let l = get a n n_l in
  set a n n_l (get a l n_r);
  set a l n_r n;
  t_fixup a ed n;
  t_fixup a ed l;
  l

let t_rot_left a ed n =
  let r = get a n n_r in
  set a n n_r (get a r n_l);
  set a r n_l n;
  t_fixup a ed n;
  t_fixup a ed r;
  r

let t_bal a ed n =
  let l = get a n n_l and r = get a n n_r in
  let hl = t_height a l and hr = t_height a r in
  if hl > hr + 1 then begin
    if t_height a (get a l n_l) >= t_height a (get a l n_r) then
      t_rot_right a ed n
    else begin
      set a n n_l (t_rot_left a ed l);
      t_rot_right a ed n
    end
  end
  else if hr > hl + 1 then begin
    if t_height a (get a r n_r) >= t_height a (get a r n_l) then
      t_rot_left a ed n
    else begin
      set a n n_r (t_rot_right a ed r);
      t_rot_left a ed n
    end
  end
  else begin
    t_fixup a ed n;
    n
  end

let rec t_insert a ed x root =
  if root < 0 then begin
    set a x n_l (-1);
    set a x n_r (-1);
    set a x n_h 1;
    set a x n_agg (if ed then x else get a x n_src);
    x
  end
  else begin
    let c = t_cmp a x root in
    if c = 0 then
      invalid_arg
        (if ed then "Hfsc: duplicate class in eligible tree"
         else "Hfsc: duplicate class in active-children tree");
    if c < 0 then set a root n_l (t_insert a ed x (get a root n_l))
    else set a root n_r (t_insert a ed x (get a root n_r));
    t_bal a ed root
  end

let rec t_min a root =
  if root < 0 then -1
  else begin
    let l = get a root n_l in
    if l < 0 then root else t_min a l
  end

(* Successor extraction for removal is two left-spine descents: find
   the minimum ([t_min]), then detach it. One combined descent would
   need either an allocated result pair or a shared out-param; the
   pair costs a heap word per removal on the per-packet path and a
   module-level ref is shared mutable state across every [t] — a data
   race once Runtime.Mc_router runs one scheduler per domain. *)
let rec t_detach_min a ed root =
  let l = get a root n_l in
  if l < 0 then get a root n_r
  else begin
    set a root n_l (t_detach_min a ed l);
    t_bal a ed root
  end

let rec t_remove a ed x root =
  if root < 0 then -1
  else begin
    let c = t_cmp a x root in
    if c < 0 then begin
      set a root n_l (t_remove a ed x (get a root n_l));
      t_bal a ed root
    end
    else if c > 0 then begin
      set a root n_r (t_remove a ed x (get a root n_r));
      t_bal a ed root
    end
    else begin
      let l = get a root n_l and r = get a root n_r in
      set a root n_l (-1);
      set a root n_r (-1);
      set a root n_h 0;
      if r < 0 then l
      else begin
        let s = t_min a r in
        let r' = t_detach_min a ed r in
        set a s n_l l;
        set a s n_r r';
        t_bal a ed s
      end
    end
  end

(* ED tree: minimum-(deadline, id) among nodes with e <= now. If a node
   is eligible its whole left subtree is too, so its left cache can be
   taken wholesale before continuing right; otherwise descend left. *)
let rec ed_go_mde ed now n best =
  if n < 0 then best
  else if get ed n n_key <= now then begin
    let l = get ed n n_l in
    let best =
      if l < 0 then best
      else begin
        let a = get ed l n_agg in
        if best < 0 || better_deadline ed a best then a else best
      end
    in
    let best = if best < 0 || better_deadline ed n best then n else best in
    ed_go_mde ed now (get ed n n_r) best
  end
  else ed_go_mde ed now (get ed n n_l) best

let rec vt_max_node vn root =
  if root < 0 then -1
  else begin
    let r = get vn root n_r in
    if r < 0 then root else vt_max_node vn r
  end

(* VT tree: leftmost (smallest (vt, id)) element with fit <= now,
   pruning on the cached subtree min-fit. *)
let rec vt_go_ff vn now n =
  if n < 0 then -1
  else begin
    let l = get vn n n_l in
    if l >= 0 && get vn l n_agg <= now then vt_go_ff vn now l
    else if get vn n n_src <= now then n
    else begin
      let r = get vn n n_r in
      if r >= 0 && get vn r n_agg <= now then vt_go_ff vn now r else -1
    end
  end

type t = {
  link_rate : float;
  vt_policy : vt_policy;
  eligible_policy : eligible_policy;
  (* ids, names, links, the aggregate backlog and its bounds, the drop
     policy and hook; the per-packet path reads its counters, bounds
     and slots as fields *)
  tab : cls Ct.t;
  rows : rows;
  troot : cls;
  mutable eligible : int; (* ED-tree root id; -1 when empty *)
  (* [dequeue]'s served record, filled as [dequeue_into] fills the
     caller's: a field of the instance rather than a module-level value,
     so no state is shared between schedulers — Runtime.Mc_router
     dequeues on several [t]s concurrently, one per worker domain. *)
  out : Pkt.Served.t;
}

let isc_opt = function Some s -> Fp.isc_of_sc s | None -> zero_isc

(* A new class: its identity, curves and queue; [register] gives it
   its blank rows. *)
let make_cls ~(rows : rows) ~name ~parent ~rsc ~fsc ~usc ~qlimit ~qbytes =
  {
    id = Ct.next_id rows.tab;
    cumul = 0;
    total = 0;
    vtadj = 0;
    cvtmin = 0;
    cvtoff = 0;
    myf = 0;
    myfadj = 0;
    in_ed = false;
    in_actc = false;
    nactive = 0;
    vtperiod = 0;
    parentperiod = 0;
    leaf = true;
    queue = Fq.create ?limit_pkts:qlimit ?limit_bytes:qbytes ();
    cname = name;
    cparent = parent;
    crsc = rsc;
    cfsc = fsc;
    cusc = usc;
    risc = isc_opt rsc;
    fisc = isc_opt fsc;
    uisc = isc_opt usc;
    rows;
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
  let rows = new_rows () in
  let troot =
    make_cls ~rows ~name:"root" ~parent:None ~rsc:None
      ~fsc:(Some (Sc.linear link_rate)) ~usc:None ~qlimit:None ~qbytes:None
  in
  register rows troot;
  {
    link_rate;
    vt_policy;
    eligible_policy;
    tab = rows.tab;
    rows;
    troot;
    eligible = -1;
    out = Pkt.Served.create ();
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
    make_cls ~rows:t.rows ~name ~parent:(Some parent) ~rsc ~fsc ~usc ~qlimit
      ~qbytes:qlimit_bytes
  in
  register t.rows ~parent cl;
  parent.leaf <- false;
  cl

let remove_class t cl =
  Ct.remove t.tab cl ~active:(cl.nactive > 0 || cl.in_ed || cl.in_actc);
  Option.iter (fun p -> p.leaf <- Ct.is_leaf t.tab p) cl.cparent

let class_of_id t id = Ct.class_of_id t.tab id

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
  let k = cl.rows in
  (match rsc with
  | Some s ->
      cl.crsc <- Some s;
      cl.risc <- Fp.isc_of_sc s;
      set_anchor k.ed cl.id ed_dc cl.risc ~y:cl.cumul;
      set_anchor k.ed cl.id ed_ec cl.risc ~y:cl.cumul
  | None -> ());
  (match fsc with
  | Some s ->
      cl.cfsc <- Some s;
      cl.fisc <- Fp.isc_of_sc s;
      set_anchor k.vn cl.id vt_vc cl.fisc ~y:cl.total
  | None -> ());
  (match usc with
  | Some s ->
      cl.cusc <- Some s;
      cl.uisc <- Fp.isc_of_sc s;
      set_anchor k.vn cl.id vt_uc cl.uisc ~y:cl.total
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
   the module). Only the inverse direction is copied: the min-updates
   run on the activation path and call the module. *)
let ism_shift = Fp.ism_shift
let ism_mask = (1 lsl ism_shift) - 1

let[@inline always] seg_y2x y ism =
  if ism >= ht_infinity then ht_infinity
  else ((y asr ism_shift) * ism) + (((y land ism_mask) * ism) asr ism_shift)

(* [Fp.y2x] of the runtime curve anchored at offset [c] of [id]'s row,
   over the slopes of its generator [s] *)
let[@inline always] rc_inverse (a : int array) id c (s : Fp.isc) v =
  let x = get a id c and y = get a id (c + 1) in
  if v < y then x
  else begin
    let dy = get a id (c + 3) in
    if v <= y + dy then
      if dy = 0 then x + get a id (c + 2) else x + seg_y2x (v - y) s.ism1
    else if s.sm2 > 0 then x + get a id (c + 2) + seg_y2x (v - y - dy) s.ism2
    else ht_infinity (* flat tail: v > y + dy is never reached *)
  end

let imax (a : int) (b : int) = if a > b then a else b
let imin (a : int) (b : int) = if a < b then a else b

(* --- eligible-tree bookkeeping ------------------------------------ *)

let ed_insert t cl =
  assert (not cl.in_ed);
  t.eligible <- t_insert t.rows.ed true cl.id t.eligible;
  cl.in_ed <- true

let ed_remove t cl =
  if cl.in_ed then begin
    t.eligible <- t_remove t.rows.ed true cl.id t.eligible;
    cl.in_ed <- false
  end

(* --- active-children (virtual time) trees ------------------------- *)

let actc_insert vn parent child =
  assert (not child.in_actc);
  set vn parent.id vt_c (t_insert vn false child.id (get vn parent.id vt_c));
  child.in_actc <- true

let actc_remove vn parent child =
  if child.in_actc then begin
    set vn parent.id vt_c (t_remove vn false child.id (get vn parent.id vt_c));
    child.in_actc <- false
  end

(* Fit-time lower bound over [cl]'s active children: 0 when there are
   none (an interior class with no active child is itself inactive and
   its f is never consulted). Reads the root's cached aggregate — two
   loads, no scan over the children. *)
let cfmin vn cl =
  let r = get vn cl.id vt_c in
  if r < 0 then 0 else get vn r n_agg

(* --- real-time criterion state (Section IV-B) --------------------- *)

(* Update the deadline and eligible curves when leaf [cl] becomes
   active at [now] (eq. (7) and (11)), then compute e and d for the
   head packet and join the eligible set. [now] is in ticks;
   [next_len] in bytes. *)
let init_ed t cl now next_len =
  match cl.crsc with
  | None -> ()
  | Some _ ->
      let k = t.rows and s = cl.risc and id = cl.id in
      let ed = k.ed in
      Fp.min_into ed ((id * stride) + ed_dc) s ~x:now ~y:cl.cumul;
      (match t.eligible_policy with
      | Eligible_deadline ->
          for j = 0 to 3 do
            set ed id (ed_ec + j) (get ed id (ed_dc + j))
          done
      | Eligible_paper ->
          Fp.min_into ed ((id * stride) + ed_ec) s ~x:now ~y:cl.cumul;
          (* a convex curve's eligible curve is its m2 envelope: the
             first segment flattened away *)
          if not (Fp.isc_concave s) then begin
            set ed id (ed_ec + 2) 0;
            set ed id (ed_ec + 3) 0
          end);
      set ed id n_key (rc_inverse ed id ed_ec s cl.cumul);
      set ed id n_src (rc_inverse ed id ed_dc s (cl.cumul + next_len));
      ed_insert t cl

(* Recompute e and d after real-time service (cumul advanced). *)
let update_ed t cl next_len =
  ed_remove t cl;
  let k = t.rows in
  set k.ed cl.id n_key (rc_inverse k.ed cl.id ed_ec cl.risc cl.cumul);
  set k.ed cl.id n_src
    (rc_inverse k.ed cl.id ed_dc cl.risc (cl.cumul + next_len));
  ed_insert t cl

(* Recompute d only, after link-sharing service: cumul is untouched —
   this is the non-punishment property — but the head packet changed
   so the deadline must be refreshed for its length. *)
let update_d t cl next_len =
  ed_remove t cl;
  let k = t.rows in
  set k.ed cl.id n_src
    (rc_inverse k.ed cl.id ed_dc cl.risc (cl.cumul + next_len));
  ed_insert t cl

(* --- link-sharing criterion state (Section IV-C) ------------------ *)

(* Recompute [cl]'s f from its own upper limit and its children's fit
   times, repositioning it in [parent]'s tree if the value changed. *)
let refresh_f vn parent cl =
  let f = imax cl.myf (cfmin vn cl) in
  if f <> get vn cl.id n_src then
    if cl.in_actc then begin
      actc_remove vn parent cl;
      set vn cl.id n_src f;
      actc_insert vn parent cl
    end
    else set vn cl.id n_src f

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
      let k = t.rows in
      let vn = k.vn and id = cl.id in
      let newly =
        if go_active then begin
          let was = cl.nactive in
          cl.nactive <- was + 1;
          was = 0
        end
        else false
      in
      if newly then begin
        let vmax_cl = vt_max_node vn (get vn parent.id vt_c) in
        if vmax_cl >= 0 then begin
          let vmax = get vn vmax_cl n_key in
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
          if parent.vtperiod <> cl.parentperiod || vt0 > get vn id n_key then
            set vn id n_key vt0
        end
        else begin
          (* First child of a fresh parent backlog period: restart
             at the highest vt any sibling reached before going
             passive, so virtual time never flows backwards. *)
          set vn id n_key parent.cvtoff;
          parent.cvtmin <- 0
        end;
        (match cl.cfsc with
        | Some _ ->
            Fp.min_into vn ((id * stride) + vt_vc) cl.fisc ~x:(get vn id n_key)
              ~y:cl.total
        | None -> ());
        cl.vtadj <- 0;
        cl.vtperiod <- cl.vtperiod + 1;
        cl.parentperiod <-
          (parent.vtperiod + if parent.nactive = 0 then 1 else 0);
        set vn id n_src 0;
        (match cl.cusc with
        | Some _ ->
            Fp.min_into vn ((id * stride) + vt_uc) cl.uisc ~x:now ~y:cl.total;
            cl.myfadj <- 0;
            cl.myf <- rc_inverse vn id vt_uc cl.uisc cl.total
        | None -> ());
        actc_insert vn parent cl
      end;
      refresh_f vn parent cl;
      init_vf t parent newly now

(* Walk from a just-served leaf towards the root, charging the packet
   to every class's total, advancing virtual times ([vt = V^-1(total)],
   eq. (12)) — including for classes that are just going passive, so a
   reactivation later resumes from the vt actually earned — and
   detaching classes whose subtree went idle. [now] is in ticks. *)
let rec update_vf k cl go_passive len now =
  cl.total <- cl.total + len;
  match cl.cparent with
  | None ->
      (* root-side mirror of the nactive bookkeeping above *)
      if go_passive then cl.nactive <- cl.nactive - 1
  | Some parent ->
      let go_passive =
        match cl.cfsc with
        | Some _ when cl.nactive > 0 ->
            let vn = k.vn and id = cl.id in
            let passive_now =
              if go_passive then begin
                cl.nactive <- cl.nactive - 1;
                cl.nactive = 0
              end
              else false
            in
            actc_remove vn parent cl;
            let vt = rc_inverse vn id vt_vc cl.fisc cl.total + cl.vtadj in
            (* a class held below the sibling floor (skipped for
               non-fit) is translated up and keeps the credit *)
            let vt =
              if vt < parent.cvtmin then begin
                cl.vtadj <- cl.vtadj + (parent.cvtmin - vt);
                parent.cvtmin
              end
              else vt
            in
            set vn id n_key vt;
            if passive_now then begin
              (* going passive: remember the high-water vt so the next
                 backlog period of the parent resumes above it *)
              if vt > parent.cvtoff then parent.cvtoff <- vt
            end
            else begin
              (match cl.cusc with
              | Some _ ->
                  cl.myf <- rc_inverse vn id vt_uc cl.uisc cl.total + cl.myfadj;
                  (* a rate-capped class that under-used its allowance
                     forfeits it beyond [ulimit_slack] — no unbounded
                     catch-up bursts *)
                  if cl.myf < now - ulimit_slack then begin
                    cl.myfadj <- cl.myfadj + (now - cl.myf);
                    cl.myf <- now
                  end
              | None -> ());
              set vn id n_src (imax cl.myf (cfmin vn cl));
              actc_insert vn parent cl
            end;
            passive_now
        | _ -> go_passive
      in
      update_vf k parent go_passive len now

(* --- the public datapath ------------------------------------------ *)

let enqueue t ~now cl pkt =
  if cl == t.troot || (not cl.leaf) || cl.rows != t.rows then
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

(* link-sharing: descend by smallest virtual time that fits; the served
   leaf's id, or -1. Top-level so no closure is built per dequeue. *)
let rec descend_ls slots vn c now =
  if c.leaf then c.id
  else begin
    let child = vt_go_ff vn now (get vn c.id vt_c) in
    if child < 0 then -1
    else begin
      let vt = get vn child n_key in
      if c.cvtmin < vt then c.cvtmin <- vt;
      descend_ls slots vn slots.(child) now
    end
  end

(* One dequeue decision at tick [now]: [false] when nothing is
   servable; otherwise the packet, its leaf's id and whether the
   real-time criterion served it go into [s]. [dequeue] and
   [dequeue_into] both call it, so the two serve bit-identical
   sequences by construction. *)
let dequeue_core t now (s : Pkt.Served.t) =
  let tab = t.tab in
  tab.pkts > 0
  &&
  let k = t.rows in
  let rt = ed_go_mde k.ed now t.eligible (-1) in
  let id = if rt >= 0 then rt else descend_ls tab.slots k.vn t.troot now in
  id >= 0
  && begin
       let leaf = tab.slots.(id) in
       let pkt = Fq.take leaf.queue in
       let size = pkt.Pkt.Packet.size in
       tab.pkts <- tab.pkts - 1;
       tab.bytes <- tab.bytes - size;
       if tab.evicting then Ct.rekey tab id;
       update_vf k leaf (Fq.is_empty leaf.queue) size now;
       if rt >= 0 then leaf.cumul <- leaf.cumul + size;
       if Fq.is_empty leaf.queue then ed_remove t leaf
       else begin
         match leaf.crsc with
         | Some _ ->
             let next = (Fq.head leaf.queue).Pkt.Packet.size in
             if rt >= 0 then update_ed t leaf next else update_d t leaf next
         | None -> ()
       end;
       s.o_pkt <- pkt;
       s.o_id <- id;
       s.o_rt <- rt >= 0;
       true
     end

let dequeue t ~now =
  let s = t.out in
  if dequeue_core t (Fp.ticks_of_seconds now) s then
    Some
      ( s.o_pkt,
        t.tab.slots.(s.o_id),
        if s.o_rt then Realtime else Linkshare )
  else None

(* The served triple goes straight into the caller's [Pkt.Served] —
   the leaf's dense id, not the class value — so a served packet costs
   zero words of allocation ([dequeue] pays 6 for its
   [Some (pkt, cls, crit)]). *)
let dequeue_into t ~now s = dequeue_core t (Fp.ticks_of_seconds now) s

let next_ready_time t ~now =
  if t.tab.pkts = 0 then None
  else begin
    let nowt = Fp.ticks_of_seconds now in
    let ed = t.rows.ed and vn = t.rows.vn in
    let ls_root = get vn t.troot.id vt_c in
    let rt_now = ed_go_mde ed nowt t.eligible (-1) >= 0 in
    let ls_now = ls_root >= 0 && get vn ls_root n_agg <= nowt in
    if rt_now || ls_now then Some now
    else begin
      let cand = ht_infinity in
      let cand =
        let m = t_min ed t.eligible in
        if m < 0 then cand else imin cand (get ed m n_key)
      in
      let cand =
        if ls_root < 0 then cand else imin cand (get vn ls_root n_agg)
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
let children (c : cls) = Ct.children c.rows.tab c
let find_class t n = Ct.find t.tab n
let queue_length c = Fq.length c.queue
let queue_bytes c = Fq.bytes c.queue

(* Service counters are integers (bytes) internally; the float views
   below are exact — every reachable value sits far below 2^53. *)
let total_bytes c = float_of_int c.total
let realtime_bytes c = float_of_int c.cumul
let drops c = Fq.drops c.queue
let virtual_time (c : cls) = Fp.seconds_of_ticks (get c.rows.vn c.id n_key)
let rsc c = c.crsc
let fsc c = c.cfsc
let usc c = c.cusc

let debug_state (c : cls) =
  let k = c.rows in
  let anchor j = get k.vn c.id (vt_vc + j) in
  let v =
    { (Fp.of_isc c.fisc ~x:(anchor 0) ~y:(anchor 1)) with
      dx = anchor 2;
      dy = anchor 3;
    }
  in
  Format.asprintf
    "%s vt=%d vtadj=%d total=%d V=%a e=%d d=%d cvtmin=%d cvtoff=%d per=%d \
     pper=%d nact=%d act=%b"
    c.cname (get k.vn c.id n_key) c.vtadj c.total Fp.pp v (get k.ed c.id n_key)
    (get k.ed c.id n_src) c.cvtmin c.cvtoff c.vtperiod c.parentperiod
    c.nactive c.in_actc

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
  let slots = t.tab.slots and ed = t.rows.ed and vn = t.rows.vn in
  let n_ids = Array.length slots in
  let name n = if n < 0 || n >= n_ids then "<nil>" else slots.(n).cname in
  let live n =
    match Ct.class_of_id t.tab n with
    | _ -> true
    | exception Invalid_argument _ -> false
  in
  (* tree membership, one int per id: bit 0 set once the id is met in
     the ED tree, the bits above hold 1 + the id of the class whose VT
     tree last met it (0: none) *)
  let seen = Array.make n_ids 0 in
  let in_ed_tree n = seen.(n) land 1 = 1 in
  let vt_owner n = (seen.(n) asr 1) - 1 in
  (* eligible/deadline tree *)
  let rec chk_ed n =
    if n < 0 then (0, -1)
    else if n >= n_ids then begin
      err "ED: tree member %s is not a class of this scheduler" (name n);
      (0, -1)
    end
    else if in_ed_tree n then begin
      (* a cycle: stop here rather than follow it forever *)
      err "ED: class %s (id %d) appears twice" (name n) n;
      (0, -1)
    end
    else begin
      seen.(n) <- seen.(n) lor 1;
      let l = get ed n n_l and r = get ed n n_r in
      if l >= 0 && t_cmp ed l n >= 0 then
        err "ED: order violated at %s (left child %s)" (name n) (name l);
      if r >= 0 && t_cmp ed n r >= 0 then
        err "ED: order violated at %s (right child %s)" (name n) (name r);
      let hl, bl = chk_ed l in
      let hr, br = chk_ed r in
      if abs (hl - hr) > 1 then
        err "ED: AVL balance violated at %s (%d vs %d)" (name n) hl hr;
      let h = 1 + if hl > hr then hl else hr in
      if get ed n n_h <> h then
        err "ED: cached height at %s is %d, expected %d" (name n)
          (get ed n n_h) h;
      let best = n in
      let best = if bl >= 0 && better_deadline ed bl best then bl else best in
      let best = if br >= 0 && better_deadline ed br best then br else best in
      if get ed n n_agg <> best then
        err "ED: cached min-deadline at %s is %s, expected %s" (name n)
          (name (get ed n n_agg)) (name best);
      (h, best)
    end
  in
  ignore (chk_ed t.eligible);
  (* class [c]'s active-children tree *)
  let not_child c n =
    err "VT(%s): tree member %s is not a child" c.cname (name n)
  in
  let rec chk_vt c n =
    if n < 0 then (0, ht_infinity)
    else if n >= n_ids then begin
      not_child c n;
      (0, ht_infinity)
    end
    else if vt_owner n = c.id then begin
      err "VT(%s): class %s appears twice" c.cname (name n);
      (0, ht_infinity)
    end
    else begin
      seen.(n) <- (seen.(n) land 1) lor ((c.id + 1) lsl 1);
      (* a child is a live class whose parent is [c]: O(1) a member *)
      (match if live n then slots.(n).cparent else None with
      | Some p when p == c -> ()
      | _ -> not_child c n);
      let l = get vn n n_l and r = get vn n n_r in
      if l >= 0 && t_cmp vn l n >= 0 then
        err "VT(%s): order violated at %s" c.cname (name n);
      if r >= 0 && t_cmp vn n r >= 0 then
        err "VT(%s): order violated at %s" c.cname (name n);
      let hl, ml = chk_vt c l in
      let hr, mr = chk_vt c r in
      if abs (hl - hr) > 1 then
        err "VT(%s): AVL balance violated at %s" c.cname (name n);
      let h = 1 + if hl > hr then hl else hr in
      if get vn n n_h <> h then
        err "VT(%s): cached height at %s is %d, expected %d" c.cname
          (name n) (get vn n n_h) h;
      let m = get vn n n_src in
      let m = if ml < m then ml else m in
      let m = if mr < m then mr else m in
      if get vn n n_agg <> m then
        err "VT(%s): cached min-fit at %s is %d, expected %d" c.cname
          (name n) (get vn n n_agg) m;
      (h, m)
    end
  in
  (* per-class checks, leaves and interior alike *)
  let check_cls c =
    let leaf = c.leaf and id = c.id in
    let e = get ed id n_key and d = get ed id n_src in
    let f = get vn id n_src in
    let kids = Ct.children t.tab c in
    if leaf <> (kids = []) then
      err "class %s: leaf flag %b with %d children" c.cname leaf
        (List.length kids);
    if
      neg e || neg d || neg (get vn id n_key) || neg f || neg c.cumul
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
      if c.in_ed && not (in_ed_tree id) then
        err "ED: %s flagged in_ed but not reachable from the root" c.cname;
      if c.in_ed && e > d + e_d_slack then
        err "ED: %s eligible after deadline (e=%d > d=%d)" c.cname e d;
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
    if c.in_actc && f <> imax c.myf (cfmin vn c) then
      err "class %s: cached fit %d, expected max(myf=%d, cfmin=%d)" c.cname
        f c.myf (cfmin vn c);
    if c.total < c.cumul then
      err "class %s: total=%d below realtime cumul=%d" c.cname c.total
        c.cumul;
    ignore (chk_vt c (get vn id vt_c));
    List.iter
      (fun ch ->
        let member = vt_owner ch.id = id in
        if ch.in_actc && not member then
          err "VT(%s): active child %s missing from the tree" c.cname
            ch.cname;
        if (not ch.in_actc) && member then
          err "VT(%s): passive child %s still in the tree" c.cname ch.cname)
      kids
  in
  List.iter check_cls (classes t);
  (* every ED member must be a known in_ed leaf *)
  for n = 0 to n_ids - 1 do
    if in_ed_tree n then
      if not (live n) then
        err "ED: tree member %s is not a class of this scheduler" (name n)
      else if not slots.(n).in_ed then
        err "ED: tree member %s not flagged in_ed" (name n)
  done;
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
      c.cumul (Fq.length c.queue) (virtual_time c);
    List.iter (go (indent ^ "  ")) (children c)
  in
  go "" t.troot
