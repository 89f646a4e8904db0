(* Reference implementation of the H-FSC scheduler, kept so that the
   differential tests (test/test_hfsc_diff.ml, test/test_fuzz.ml) can
   drive it in lockstep with the production Hfsc and assert identical
   scheduling decisions.

   It shares no data structure with Hfsc. Every selection is a linear
   scan over the class lists, with the rule of the paper's Section IV
   and an explicit id tie-break written out:
   - real-time: among leaves in the eligible set with e <= now, the
     minimum (d, id);
   - link-sharing: at each level, among the active children with
     f <= now, the minimum (vt, id).
   A class's membership of the eligible set and of its parent's active
   children is a flag on the class ([in_ed], [in_actc]). Hfsc reaches
   the same answers in O(log n) through augmented AVL trees; this
   module pays O(n) per decision so it can be checked by reading.

   All time/service arithmetic goes through Curve.Fixed_point — the
   same shifted-integer functions the production scheduler uses (it
   carries in-unit copies of the hot ones) — which is what makes the
   two implementations bit-identical.

   Do not optimize this module; it is the semantic oracle. *)

module Sc = Curve.Service_curve
module Fp = Curve.Fixed_point
module Fq = Ds.Fifo_queue

type criterion = Realtime | Linkshare
type vt_policy = Vt_mean | Vt_min | Vt_max
type eligible_policy = Eligible_paper | Eligible_deadline
type drop_policy = Fq.drop_policy = Tail_drop | Drop_longest

let ht_infinity = Fp.ht_infinity

(* Per-class state. Field names follow the paper and the kernel
   implementations derived from it: [cumul] is the service received
   under the real-time criterion (the c_i of eq. (7)); [total] the
   service under either criterion (the t_i of eq. (12)); [vtadj] the
   upward correction applied when a class was held at the sibling vt
   floor; [cvtmin] the floor itself (smallest vt served in the parent's
   current backlog period); [cvtoff] the high-water vt of children that
   went passive, from which the next backlog period restarts — virtual
   times within a parent only ever move forward, which is what makes
   reactivation punishment-free; [myf]/[f] the upper-limit fit times.
   Times are in 2^-30-second ticks, service in bytes (integers). *)
type cls = {
  id : int;
  cname : string;
  cparent : cls option;
  mutable cchildren : cls list;
  mutable crsc : Sc.t option;
  mutable cfsc : Sc.t option;
  mutable cusc : Sc.t option;
  queue : Fq.t;
  (* real-time state (leaves with an rsc) *)
  mutable deadline_c : Fp.t;
  mutable eligible_c : Fp.t;
  mutable e : int;
  mutable d : int;
  mutable cumul : int;
  mutable in_ed : bool;
  (* link-sharing state *)
  mutable virtual_c : Fp.t;
  mutable vt : int;
  mutable total : int;
  mutable vtadj : int;
  mutable cvtmin : int;
  mutable cvtoff : int;
  mutable vtperiod : int;
  mutable parentperiod : int;
  mutable nactive : int;
  mutable in_actc : bool;
  (* upper-limit state *)
  mutable ulimit_c : Fp.t;
  mutable myf : int;
  mutable myfadj : int;
  mutable f : int;
}

type t = {
  link_rate : float;
  vt_policy : vt_policy;
  eligible_policy : eligible_policy;
  mutable next_id : int;
  mutable all_rev : cls list;
  troot : cls;
  mutable bl_pkts : int;
  mutable bl_bytes : int;
  mutable agg_pkts : int;
  mutable agg_bytes : int;
  mutable policy : drop_policy;
  mutable on_drop : float -> cls -> Pkt.Packet.t -> unit;
}

let zero_rc = Fp.of_isc (Fp.isc_of_sc Sc.zero) ~x:0 ~y:0
let rc_of sc ~y = Fp.of_isc (Fp.isc_of_sc sc) ~x:0 ~y

let make_cls ~id ~name ~parent ~rsc ~fsc ~usc ~qlimit ~qbytes =
  {
    id;
    cname = name;
    cparent = parent;
    cchildren = [];
    crsc = rsc;
    cfsc = fsc;
    cusc = usc;
    queue = Fq.create ?limit_pkts:qlimit ?limit_bytes:qbytes ();
    deadline_c = (match rsc with Some s -> rc_of s ~y:0 | None -> zero_rc);
    eligible_c = (match rsc with Some s -> rc_of s ~y:0 | None -> zero_rc);
    e = 0;
    d = 0;
    cumul = 0;
    in_ed = false;
    virtual_c = (match fsc with Some s -> rc_of s ~y:0 | None -> zero_rc);
    vt = 0;
    total = 0;
    vtadj = 0;
    cvtmin = 0;
    cvtoff = 0;
    vtperiod = 0;
    parentperiod = 0;
    nactive = 0;
    in_actc = false;
    ulimit_c = (match usc with Some s -> rc_of s ~y:0 | None -> zero_rc);
    myf = 0;
    myfadj = 0;
    f = 0;
  }

(* 1 ms of carried-forward upper-limit allowance, in ticks (as Hfsc) *)
let ulimit_slack = Fp.ticks_of_seconds 0.001

let create ?(vt_policy = Vt_mean) ?(eligible_policy = Eligible_paper)
    ~link_rate () =
  if
    (not (Float.is_finite link_rate))
    || link_rate < Fp.min_rate || link_rate > Fp.max_rate
  then
    invalid_arg "Hfsc.create: link_rate out of range (not in [0.5, 2^31] B/s)";
  let troot =
    make_cls ~id:0 ~name:"root" ~parent:None ~rsc:None
      ~fsc:(Some (Sc.linear link_rate)) ~usc:None ~qlimit:None ~qbytes:None
  in
  {
    link_rate;
    vt_policy;
    eligible_policy;
    next_id = 1;
    all_rev = [ troot ];
    troot;
    bl_pkts = 0;
    bl_bytes = 0;
    agg_pkts = max_int;
    agg_bytes = max_int;
    policy = Tail_drop;
    on_drop = (fun _ _ _ -> ());
  }

let root t = t.troot

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
  if parent.cchildren = [] && parent.total > 0 then
    invalid_arg "Hfsc.add_class: parent already served packets as a leaf";
  let fsc = match fsc with Some _ as f -> f | None -> rsc in
  if rsc = None && fsc = None then
    invalid_arg "Hfsc.add_class: a class needs an rsc or an fsc";
  check_curves "Hfsc.add_class" ~rsc ~fsc ~usc;
  let cl =
    make_cls ~id:t.next_id ~name ~parent:(Some parent) ~rsc ~fsc ~usc ~qlimit
      ~qbytes:qlimit_bytes
  in
  t.next_id <- t.next_id + 1;
  parent.cchildren <- parent.cchildren @ [ cl ];
  t.all_rev <- cl :: t.all_rev;
  cl

let remove_class t cl =
  match cl.cparent with
  | None -> invalid_arg "Hfsc.remove_class: cannot remove the root"
  | Some parent ->
      if cl.cchildren <> [] then
        invalid_arg "Hfsc.remove_class: class still has children";
      if not (Fq.is_empty cl.queue) then
        invalid_arg "Hfsc.remove_class: class has queued packets";
      if cl.nactive > 0 || cl.in_ed || cl.in_actc then
        invalid_arg "Hfsc.remove_class: class is active";
      parent.cchildren <- List.filter (fun c -> c != cl) parent.cchildren;
      t.all_rev <- List.filter (fun c -> c != cl) t.all_rev

(* Every check runs before the first store, as in Hfsc. *)
let modify_class t cl ?rsc ?fsc ?usc ?qlimit ?qlimit_bytes () =
  if rsc <> None || fsc <> None || usc <> None then begin
    if not (Fq.is_empty cl.queue) || cl.nactive > 0 || cl.in_ed || cl.in_actc
    then invalid_arg "Hfsc.modify_class: class is active";
    if rsc <> None && cl.cchildren <> [] then
      invalid_arg "Hfsc.modify_class: rsc on an interior class";
    check_curves "Hfsc.modify_class" ~rsc ~fsc ~usc
  end;
  if qlimit <> None || qlimit_bytes <> None then begin
    if cl == t.troot || cl.cchildren <> [] then
      invalid_arg "Hfsc.modify_class: class is not a leaf";
    (match qlimit with
    | Some n when n <= 0 ->
        invalid_arg "Hfsc.modify_class: limit must be positive"
    | _ -> ());
    match qlimit_bytes with
    | Some n when n <= 0 ->
        invalid_arg "Hfsc.modify_class: byte limit must be positive"
    | _ -> ()
  end;
  (* re-anchor the runtime curves at the accumulated service so the next
     activation's min-update treats the new curve as the whole history *)
  (match rsc with
  | Some s ->
      cl.crsc <- Some s;
      cl.deadline_c <- rc_of s ~y:cl.cumul;
      cl.eligible_c <- rc_of s ~y:cl.cumul
  | None -> ());
  (match fsc with
  | Some s ->
      cl.cfsc <- Some s;
      cl.virtual_c <- rc_of s ~y:cl.total
  | None -> ());
  (match usc with
  | Some s ->
      cl.cusc <- Some s;
      cl.ulimit_c <- rc_of s ~y:cl.total
  | None -> ());
  Fq.set_limits ?pkts:qlimit ?bytes:qlimit_bytes cl.queue

(* --- bounds and drop policy ----------------------------------------- *)

let queue_limit_pkts c = Fq.limit_pkts c.queue
let queue_limit_bytes c = Fq.limit_bytes c.queue

let set_aggregate_limit t ?pkts ?bytes () =
  (match pkts with
  | Some n ->
      if n <= 0 then
        invalid_arg "Hfsc.set_aggregate_limit: limit must be positive";
      t.agg_pkts <- n
  | None -> ());
  match bytes with
  | Some n ->
      if n <= 0 then
        invalid_arg "Hfsc.set_aggregate_limit: byte limit must be positive";
      t.agg_bytes <- n
  | None -> ()

let aggregate_limit_pkts t = t.agg_pkts
let aggregate_limit_bytes t = t.agg_bytes
let set_drop_policy t p = t.policy <- p
let drop_policy t = t.policy
let set_drop_hook t f = t.on_drop <- f

(* --- selection scans ------------------------------------------------ *)

(* Real-time criterion: among the leaves in the eligible set whose
   eligible time has arrived, the smallest (deadline, id). *)
let rt_pick t now =
  List.fold_left
    (fun best c ->
      if c.in_ed && c.e <= now then
        match best with
        | Some b when b.d < c.d || (b.d = c.d && b.id < c.id) -> best
        | _ -> Some c
      else best)
    None t.all_rev

let active_children p = List.filter (fun c -> c.in_actc) p.cchildren

(* Link-sharing criterion at one level: among [p]'s active children
   whose fit time has arrived, the smallest (virtual time, id). *)
let ls_pick p now =
  List.fold_left
    (fun best c ->
      if c.f <= now then
        match best with
        | Some b when b.vt < c.vt || (b.vt = c.vt && b.id < c.id) -> best
        | _ -> Some c
      else best)
    None (active_children p)

let min_f cs = List.fold_left (fun m c -> Int.min m c.f) ht_infinity cs

(* Fit-time lower bound over [cl]'s active children: 0 when there are
   none (an interior class with no active child is itself inactive and
   its f is never consulted). *)
let cfmin cl = match active_children cl with [] -> 0 | cs -> min_f cs

(* --- real-time criterion state (Section IV-B) --------------------- *)

(* Update the deadline and eligible curves when leaf [cl] becomes
   active at [now] (eq. (7) and (11)), then compute e and d for the
   head packet and join the eligible set. [now] is in ticks. *)
let init_ed t cl now next_len =
  match cl.crsc with
  | None -> ()
  | Some s ->
      let isc = Fp.isc_of_sc s in
      cl.deadline_c <- Fp.min_with cl.deadline_c isc ~x:now ~y:cl.cumul;
      (match t.eligible_policy with
      | Eligible_deadline -> cl.eligible_c <- cl.deadline_c
      | Eligible_paper ->
          let ec = Fp.min_with cl.eligible_c isc ~x:now ~y:cl.cumul in
          cl.eligible_c <- (if Fp.isc_concave isc then ec else Fp.flatten ec));
      cl.e <- Fp.y2x cl.eligible_c cl.cumul;
      cl.d <- Fp.y2x cl.deadline_c (cl.cumul + next_len);
      cl.in_ed <- true

(* Recompute e and d after real-time service (cumul advanced). *)
let update_ed cl next_len =
  cl.e <- Fp.y2x cl.eligible_c cl.cumul;
  cl.d <- Fp.y2x cl.deadline_c (cl.cumul + next_len)

(* Recompute d only, after link-sharing service: cumul is untouched —
   this is the non-punishment property — but the head packet changed
   so the deadline must be refreshed for its length. *)
let update_d cl next_len = cl.d <- Fp.y2x cl.deadline_c (cl.cumul + next_len)

(* --- link-sharing criterion state (Section IV-C) ------------------ *)

(* Walk from a newly-active leaf towards the root, switching each
   newly-active ancestor's virtual time state into the current parent
   period (eq. (12) with the paper's (vmin+vmax)/2 initialization) and
   propagating fit-time changes the rest of the way up. [now] is in
   ticks. *)
let init_vf t cl0 now =
  let go_active = ref true in
  let cl = ref cl0 in
  let continue_walk = ref true in
  while !continue_walk do
    match (!cl).cparent with
    | None ->
        (* the walk's parent-side bookkeeping never runs for the root
           (it has no iteration of its own), so close the books here:
           count its newly-active child and open a fresh root backlog
           period when the first one arrives *)
        let r = !cl in
        if !go_active then begin
          let was = r.nactive in
          r.nactive <- was + 1;
          if was = 0 then r.vtperiod <- r.vtperiod + 1
        end;
        continue_walk := false
    | Some parent ->
        let c = !cl in
        let newly =
          if !go_active then begin
            let was = c.nactive in
            c.nactive <- was + 1;
            was = 0
          end
          else false
        in
        go_active := newly;
        if newly then begin
          (match active_children parent with
          | _ :: _ as siblings ->
              let vmax =
                List.fold_left (fun m s -> Int.max m s.vt) min_int siblings
              in
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
              if parent.vtperiod <> c.parentperiod || vt0 > c.vt then
                c.vt <- vt0
          | [] ->
              (* First child of a fresh parent backlog period: restart
                 at the highest vt any sibling reached before going
                 passive, so virtual time never flows backwards. *)
              c.vt <- parent.cvtoff;
              parent.cvtmin <- 0);
          (match c.cfsc with
          | Some s ->
              c.virtual_c <-
                Fp.min_with c.virtual_c (Fp.isc_of_sc s) ~x:c.vt ~y:c.total
          | None -> ());
          c.vtadj <- 0;
          c.vtperiod <- c.vtperiod + 1;
          c.parentperiod <-
            (parent.vtperiod + if parent.nactive = 0 then 1 else 0);
          (match c.cusc with
          | Some s ->
              c.ulimit_c <-
                Fp.min_with c.ulimit_c (Fp.isc_of_sc s) ~x:now ~y:c.total;
              c.myfadj <- 0;
              c.myf <- Fp.y2x c.ulimit_c c.total
          | None -> ());
          c.in_actc <- true
        end;
        c.f <- Int.max c.myf (cfmin c);
        cl := parent
  done

(* Walk from a just-served leaf towards the root, charging the packet
   to every class's total, advancing virtual times ([vt = V^-1(total)],
   eq. (12)) — including for classes that are just going passive, so a
   reactivation later resumes from the vt actually earned — and
   detaching classes whose subtree went idle. [now] is in ticks. *)
let update_vf cl0 len now =
  let go_passive = ref (Fq.is_empty cl0.queue) in
  let cl = ref cl0 in
  let continue_walk = ref true in
  while !continue_walk do
    let c = !cl in
    c.total <- c.total + len;
    match c.cparent with
    | None ->
        (* root-side mirror of the nactive bookkeeping above *)
        if !go_passive then c.nactive <- c.nactive - 1;
        continue_walk := false
    | Some parent ->
        (if c.cfsc <> None && c.nactive > 0 then begin
           let passive_now =
             if !go_passive then begin
               c.nactive <- c.nactive - 1;
               c.nactive = 0
             end
             else false
           in
           go_passive := passive_now;
           c.vt <- Fp.y2x c.virtual_c c.total + c.vtadj;
           (* a class held below the sibling floor (skipped for
              non-fit) is translated up and keeps the credit *)
           if c.vt < parent.cvtmin then begin
             c.vtadj <- c.vtadj + (parent.cvtmin - c.vt);
             c.vt <- parent.cvtmin
           end;
           if passive_now then begin
             (* going passive: remember the high-water vt so the next
                backlog period of the parent resumes above it *)
             c.in_actc <- false;
             if c.vt > parent.cvtoff then parent.cvtoff <- c.vt
           end
           else begin
             (match c.cusc with
             | Some _ ->
                 c.myf <- Fp.y2x c.ulimit_c c.total + c.myfadj;
                 (* a rate-capped class that under-used its allowance
                    forfeits it beyond [ulimit_slack] — no unbounded
                    catch-up bursts *)
                 if c.myf < now - ulimit_slack then begin
                   c.myfadj <- c.myfadj + (now - c.myf);
                   c.myf <- now
                 end
             | None -> ());
             c.f <- Int.max c.myf (cfmin c)
           end
         end);
        cl := parent
  done

(* --- the public datapath ------------------------------------------ *)

let is_leaf_cls c = c.cchildren = []

(* Drop-from-longest victim selection and eviction: must make the
   exact same decisions as the production Hfsc (largest queued bytes
   among >=2-packet leaves, ties to the smallest id). *)
let find_victim t =
  List.fold_left
    (fun best c ->
      if is_leaf_cls c && Fq.length c.queue >= 2 then
        match best with
        | None -> Some c
        | Some b ->
            let qb = Fq.bytes c.queue and bb = Fq.bytes b.queue in
            if qb > bb || (qb = bb && c.id < b.id) then Some c else best
      else best)
    None t.all_rev

let rec make_room t ~now size =
  if t.bl_pkts < t.agg_pkts && t.bl_bytes + size <= t.agg_bytes then true
  else
    match find_victim t with
    | None -> false
    | Some v ->
        let dropped = Fq.drop_tail v.queue in
        t.bl_pkts <- t.bl_pkts - 1;
        t.bl_bytes <- t.bl_bytes - dropped.Pkt.Packet.size;
        t.on_drop now v dropped;
        make_room t ~now size

let enqueue t ~now cl pkt =
  if cl == t.troot || not (is_leaf_cls cl) then
    invalid_arg "Hfsc.enqueue: class is not a leaf";
  let size = pkt.Pkt.Packet.size in
  let admitted =
    Fq.can_accept cl.queue size
    && (t.bl_pkts < t.agg_pkts && t.bl_bytes + size <= t.agg_bytes
       ||
       match t.policy with
       | Tail_drop -> false
       | Drop_longest -> make_room t ~now size)
  in
  if not admitted then begin
    Fq.count_drop cl.queue;
    t.on_drop now cl pkt;
    false
  end
  else begin
    let was_empty = Fq.is_empty cl.queue in
    if not (Fq.push cl.queue pkt) then assert false;
    t.bl_pkts <- t.bl_pkts + 1;
    t.bl_bytes <- t.bl_bytes + size;
    if was_empty then begin
      let nowt = Fp.ticks_of_seconds now in
      init_ed t cl nowt size;
      if cl.cfsc <> None then init_vf t cl nowt
      else if cl.crsc = None then assert false
    end;
    true
  end

let dequeue t ~now =
  if t.bl_pkts = 0 then None
  else begin
    let nowt = Fp.ticks_of_seconds now in
    let selected =
      match rt_pick t nowt with
      | Some leaf -> Some (leaf, Realtime)
      | None ->
          (* link-sharing: descend by smallest virtual time that fits *)
          let rec descend c =
            if is_leaf_cls c then Some c
            else
              match ls_pick c nowt with
              | None -> None
              | Some child ->
                  if c.cvtmin < child.vt then c.cvtmin <- child.vt;
                  descend child
          in
          Option.map (fun leaf -> (leaf, Linkshare)) (descend t.troot)
    in
    match selected with
    | None -> None
    | Some (leaf, crit) ->
        let pkt = Fq.take leaf.queue in
        t.bl_pkts <- t.bl_pkts - 1;
        t.bl_bytes <- t.bl_bytes - pkt.Pkt.Packet.size;
        update_vf leaf pkt.Pkt.Packet.size nowt;
        if crit = Realtime then
          leaf.cumul <- leaf.cumul + pkt.Pkt.Packet.size;
        if Fq.is_empty leaf.queue then leaf.in_ed <- false
        else if leaf.crsc <> None then begin
          let next_len = (Fq.head leaf.queue).Pkt.Packet.size in
          if crit = Realtime then update_ed leaf next_len
          else update_d leaf next_len
        end;
        Some (pkt, leaf, crit)
  end

(* [dequeue] copied into the record: the reference has no out-params
   of its own, and [include Hfsc.S] needs the entry. *)
let dequeue_into t ~now (s : Pkt.Served.t) =
  match dequeue t ~now with
  | None -> false
  | Some (pkt, cls, crit) ->
      s.o_pkt <- pkt;
      s.o_id <- cls.id;
      s.o_rt <- crit = Realtime;
      true

let next_ready_time t ~now =
  if t.bl_pkts = 0 then None
  else begin
    let nowt = Fp.ticks_of_seconds now in
    if Option.is_some (rt_pick t nowt) || Option.is_some (ls_pick t.troot nowt)
    then Some now
    else begin
      (* the earliest eligible time or root-level fit time, in ticks *)
      let min_e =
        List.fold_left
          (fun m c -> if c.in_ed then Int.min m c.e else m)
          ht_infinity t.all_rev
      in
      let cand = Int.min min_e (min_f (active_children t.troot)) in
      Some (Float.max now (Fp.seconds_of_ticks cand))
    end
  end

let backlog_pkts t = t.bl_pkts
let backlog_bytes t = t.bl_bytes

(* --- introspection ------------------------------------------------- *)

let name c = c.cname
let id c = c.id
let is_leaf c = is_leaf_cls c
let parent c = c.cparent
let children c = c.cchildren
let classes t = List.rev t.all_rev

let find_class t n =
  List.find_opt (fun c -> String.equal c.cname n) (classes t)

let class_of_id t i =
  match List.find_opt (fun c -> c.id = i) t.all_rev with
  | Some c -> c
  | None ->
      invalid_arg (Printf.sprintf "Hfsc.class_of_id: unknown class id %d" i)

let queue_length c = Fq.length c.queue
let queue_bytes c = Fq.bytes c.queue
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
    c.cname c.vt c.vtadj c.total Fp.pp c.virtual_c c.e c.d c.cvtmin c.cvtoff
    c.vtperiod c.parentperiod c.nactive c.in_actc

(* Tolerance for the eligible-before-deadline check, matching the
   production auditor: independently quantized eligible and deadline
   curves can disagree by a few ticks where the exact values would tie. *)
let e_d_slack = Fp.ticks_of_seconds 1e-6 + 1

(* Semantic-level auditor: with no trees to validate, the oracle checks
   the scheduler-level invariants only — membership flags against
   queue/activity state, counter sums, deadline ordering, and absence
   of negative (overflowed) time or service values. *)
let audit t =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let neg x = x < 0 in
  let sum_pkts = ref 0 and sum_bytes = ref 0 in
  let check_cls c =
    if
      neg c.e || neg c.d || neg c.vt || neg c.f || neg c.cumul || neg c.total
      || neg c.vtadj || neg c.cvtmin || neg c.cvtoff || neg c.myf
      || neg c.myfadj
    then err "class %s: negative (overflowed?) scheduling state" c.cname;
    if is_leaf_cls c && c != t.troot then begin
      sum_pkts := !sum_pkts + Fq.length c.queue;
      sum_bytes := !sum_bytes + Fq.bytes c.queue;
      let backlogged = not (Fq.is_empty c.queue) in
      let should_ed = backlogged && c.crsc <> None in
      if c.in_ed <> should_ed then
        err "ED: %s in_ed=%b, expected %b" c.cname c.in_ed should_ed;
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
          0 c.cchildren
      in
      if c.nactive <> active_children then
        err "class %s: nactive=%d but %d children are active" c.cname
          c.nactive active_children
    end;
    if c != t.troot && c.in_actc <> (c.nactive > 0) then
      err "class %s: in_actc=%b with nactive=%d" c.cname c.in_actc c.nactive;
    if c == t.troot && c.in_actc then err "root flagged in_actc";
    if c.total < c.cumul then
      err "class %s: total=%d below realtime cumul=%d" c.cname c.total c.cumul
  in
  List.iter check_cls t.all_rev;
  if t.bl_pkts <> !sum_pkts then
    err "backlog: bl_pkts=%d but leaf queues hold %d" t.bl_pkts !sum_pkts;
  if t.bl_bytes <> !sum_bytes then
    err "backlog: bl_bytes=%d but leaf queues hold %d" t.bl_bytes !sum_bytes;
  List.rev !errs

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
    Format.fprintf ppf " total=%dB rt=%dB q=%d vt=%.6f@\n" c.total c.cumul
      (Fq.length c.queue) (Fp.seconds_of_ticks c.vt);
    List.iter (go (indent ^ "  ")) c.cchildren
  in
  go "" t.troot
