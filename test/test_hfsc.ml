(* Tests for the H-FSC scheduler: construction rules, both scheduling
   criteria, the fairness/guarantee properties of Sections III-VI, the
   upper-limit extension, regression tests for churn scenarios, and
   the record dequeue's zero-allocation promise. *)

module Sc = Curve.Service_curve

let qt ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let pkt ~flow ~size ~seq ~arrival = Pkt.Packet.make ~flow ~size ~seq ~arrival

let sim_sched ~link_rate t flow_map =
  Runtime.Engine.adapter (Runtime.Engine.create ~link_rate t ~flow_map ())

(* Drain a scheduler at link speed from [start]; returns the served
   (time, name, size, criterion) list. *)
let drain ?(start = 0.) t ~link_rate =
  let now = ref start in
  let out = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match Hfsc.dequeue t ~now:!now with
    | None -> continue_ := false
    | Some (p, cls, crit) ->
        now := !now +. (float_of_int p.Pkt.Packet.size /. link_rate);
        out := (!now, Hfsc.name cls, p.Pkt.Packet.size, crit) :: !out
  done;
  List.rev !out

(* --- construction rules --------------------------------------------- *)

let raises_invalid f = try f (); false with Invalid_argument _ -> true

let test_construction_errors () =
  Alcotest.(check bool) "bad link rate" true
    (raises_invalid (fun () -> ignore (Hfsc.create ~link_rate:0. ())));
  let t = Hfsc.create ~link_rate:1e6 () in
  let leaf =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"leaf"
      ~rsc:(Sc.linear 1000.) ()
  in
  Alcotest.(check bool) "child under rsc class" true
    (raises_invalid (fun () ->
         ignore (Hfsc.add_class t ~parent:leaf ~name:"x" ~fsc:(Sc.linear 1.) ())));
  Alcotest.(check bool) "class without curves" true
    (raises_invalid (fun () ->
         ignore (Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"none" ())));
  Alcotest.(check bool) "enqueue at root" true
    (raises_invalid (fun () ->
         ignore
           (Hfsc.enqueue t ~now:0. (Hfsc.root t)
              (pkt ~flow:0 ~size:1 ~seq:0 ~arrival:0.))));
  (* a used leaf cannot become interior *)
  let plain =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"plain" ~fsc:(Sc.linear 1e5) ()
  in
  ignore (Hfsc.enqueue t ~now:0. plain (pkt ~flow:0 ~size:100 ~seq:0 ~arrival:0.));
  ignore (Hfsc.dequeue t ~now:0.);
  Alcotest.(check bool) "leaf that served packets" true
    (raises_invalid (fun () ->
         ignore (Hfsc.add_class t ~parent:plain ~name:"y" ~fsc:(Sc.linear 1.) ())))

(* Curves the fixed-point arithmetic cannot represent are refused
   before anything is built. A long-run rate under 0.5 B/s quantizes
   to a zero slope: such a class beside a busy one drove the scheduling
   state negative ("negative (overflowed?) scheduling state" from
   [audit]). A breakpoint of 2^32 s or more overflows its tick count:
   [m1 100KBps d 1e10s m2 300KBps] against a [300KBps] sibling was
   served 1:1 instead of 1:3. A slope of 2^32 B/s or more overflows
   [seg_x2y]'s low-bits product: an rsc of 50 Gbit/s on a 100 Gbit/s
   link got a deadline in the past. Each repro also runs at a
   representable value, which must schedule correctly. *)
let test_unrepresentable_curves_refused () =
  let refused what f =
    match f () with
    | exception Invalid_argument msg ->
        let has sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) (what ^ ": says out of range") true
          (has "out of range")
    | () -> Alcotest.failf "%s: accepted" what
  in
  (* x and y (5 Mbit/s) fed by interleaved arrivals, one dequeue an
     arrival slot, audited after every dequeue *)
  let audit_repro ?(link_rate = 1.25e6) ?rsc ?usc ~fsc () =
    let t = Hfsc.create ~link_rate () in
    let root = Hfsc.root t in
    let x = Hfsc.add_class t ~parent:root ~name:"x" ?rsc ?usc ~fsc () in
    let y =
      Hfsc.add_class t ~parent:root ~name:"y" ~fsc:(Sc.linear 625_000.) ()
    in
    let now = ref 0. in
    for s = 1 to 400 do
      let arrive cls flow =
        ignore
          (Hfsc.enqueue t ~now:!now cls
             (pkt ~flow ~size:1000 ~seq:s ~arrival:!now))
      in
      if s mod 3 = 0 then arrive x 1;
      if s mod 2 = 0 then arrive y 2;
      (match Hfsc.dequeue t ~now:!now with
      | Some (p, _, _) ->
          now := !now +. (float_of_int p.Pkt.Packet.size /. link_rate)
      | None -> now := !now +. 0.001);
      Alcotest.(check (list string)) "audit clean" [] (Hfsc.audit t)
    done
  in
  List.iter
    (fun rate ->
      let sc = Sc.linear rate in
      refused (Printf.sprintf "fsc %g B/s" rate) (audit_repro ~fsc:sc);
      refused (Printf.sprintf "rsc %g B/s" rate)
        (audit_repro ~rsc:sc ~fsc:(Sc.linear 1e5)))
    [ 0.; 0.125; 0.49 ];
  audit_repro ~fsc:(Sc.linear 0.5) ();
  audit_repro ~rsc:(Sc.linear 0.5) ~fsc:(Sc.linear 1e5) ();
  (* the high side: over 2^31 B/s, as a long-run rate, a first slope
     or an upper limit, and as the link rate *)
  let over = 4.4e9 and top = ldexp 1. 31 in
  List.iter
    (fun (what, sc) ->
      refused ("fsc " ^ what) (audit_repro ~fsc:sc);
      refused ("rsc " ^ what) (audit_repro ~rsc:sc ~fsc:(Sc.linear 1e5));
      refused ("usc " ^ what) (audit_repro ~usc:sc ~fsc:(Sc.linear 1e5)))
    [
      ("4.4e9 B/s", Sc.linear over);
      ("m1 4.4e9 B/s", Sc.make ~m1:over ~d:0.001 ~m2:1e5);
      ("2^31+1 B/s", Sc.linear (top +. 1.));
    ];
  refused "link 4.4e9 B/s" (fun () ->
      ignore (Hfsc.create ~link_rate:over ()));
  audit_repro ~fsc:(Sc.linear top) ();
  audit_repro ~rsc:(Sc.linear top) ~fsc:(Sc.linear 1e5) ();
  audit_repro ~link_rate:top ~rsc:(Sc.linear (top /. 2.)) ~fsc:(Sc.linear 1e5)
    ();
  (* x's fsc at m1 = 100KBps for [d] seconds beside y at 300KBps, both
     backlogged: x takes a quarter of the first 400 packets *)
  let share_repro d () =
    let link_rate = 400_000. in
    let t = Hfsc.create ~link_rate () in
    let root = Hfsc.root t in
    let x =
      Hfsc.add_class t ~parent:root ~name:"x"
        ~fsc:(Sc.make ~m1:100_000. ~d ~m2:300_000.) ()
    in
    let y = Hfsc.add_class t ~parent:root ~name:"y" ~fsc:(Sc.linear 300_000.) () in
    for s = 0 to 499 do
      ignore (Hfsc.enqueue t ~now:0. x (pkt ~flow:1 ~size:1000 ~seq:s ~arrival:0.));
      ignore (Hfsc.enqueue t ~now:0. y (pkt ~flow:2 ~size:1000 ~seq:s ~arrival:0.))
    done;
    let first = List.filteri (fun i _ -> i < 400) (drain t ~link_rate) in
    let xs = List.length (List.filter (fun (_, n, _, _) -> n = "x") first) in
    Alcotest.(check bool)
      (Printf.sprintf "d=%gs: x served %d of 400, about 100" d xs)
      true
      (abs (xs - 100) <= 5)
  in
  refused "fsc breakpoint d=1e10s" (share_repro 1e10);
  refused "fsc breakpoint d=2^31s" (share_repro (ldexp 1. 31));
  share_repro 1e8 ()

let test_fsc_defaults_to_rsc () =
  let t = Hfsc.create ~link_rate:1e6 () in
  let c =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"c" ~rsc:(Sc.linear 500.) ()
  in
  match Hfsc.fsc c with
  | Some s -> Alcotest.(check (float 0.)) "fsc = rsc" 500. (Sc.rate s)
  | None -> Alcotest.fail "expected default fsc"

let test_introspection () =
  let t = Hfsc.create ~link_rate:1e6 () in
  let a = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"a" ~fsc:(Sc.linear 1.) () in
  let b = Hfsc.add_class t ~parent:a ~name:"b" ~fsc:(Sc.linear 1.) () in
  Alcotest.(check int) "classes incl. root" 3 (List.length (Hfsc.classes t));
  Alcotest.(check bool) "find" true
    (match Hfsc.find_class t "b" with Some c -> c == b | None -> false);
  Alcotest.(check bool) "parent" true
    (match Hfsc.parent b with Some c -> c == a | None -> false);
  Alcotest.(check bool) "root has no parent" true
    (Hfsc.parent (Hfsc.root t) = None);
  Alcotest.(check bool) "leaf" true (Hfsc.is_leaf b);
  Alcotest.(check bool) "interior" false (Hfsc.is_leaf a);
  Alcotest.(check (list string)) "children" [ "b" ]
    (List.map Hfsc.name (Hfsc.children a));
  Alcotest.(check int) "backlog" 0 (Hfsc.backlog_pkts t)

(* --- basic service --------------------------------------------------- *)

let test_single_class_full_rate () =
  let t = Hfsc.create ~link_rate:1e6 () in
  let c = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"c" ~fsc:(Sc.linear 1e5) () in
  for i = 0 to 99 do
    assert (Hfsc.enqueue t ~now:0. c (pkt ~flow:1 ~size:1000 ~seq:i ~arrival:0.))
  done;
  let served = drain t ~link_rate:1e6 in
  Alcotest.(check int) "all served" 100 (List.length served);
  (* work conserving: a lone class gets the full link, 0.1s for 100kB *)
  let last_t, _, _, _ = List.nth served 99 in
  Alcotest.(check (float 1e-9)) "full link rate" 0.1 last_t

let test_fifo_within_class () =
  let t = Hfsc.create ~link_rate:1e6 () in
  let c = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"c" ~fsc:(Sc.linear 1e5) () in
  let sizes = [ 100; 1500; 40; 900; 700 ] in
  List.iteri
    (fun i sz ->
      ignore (Hfsc.enqueue t ~now:0. c (pkt ~flow:1 ~size:sz ~seq:i ~arrival:0.)))
    sizes;
  let served = drain t ~link_rate:1e6 in
  Alcotest.(check (list int)) "FIFO order" sizes
    (List.map (fun (_, _, sz, _) -> sz) served)

let test_linkshare_split () =
  let t = Hfsc.create ~link_rate:1e6 () in
  let a = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"a" ~fsc:(Sc.linear 7.5e5) () in
  let b = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"b" ~fsc:(Sc.linear 2.5e5) () in
  for i = 0 to 399 do
    ignore (Hfsc.enqueue t ~now:0. a (pkt ~flow:1 ~size:1000 ~seq:i ~arrival:0.));
    ignore (Hfsc.enqueue t ~now:0. b (pkt ~flow:2 ~size:1000 ~seq:i ~arrival:0.))
  done;
  let served = drain t ~link_rate:1e6 in
  (* while both backlogged (first 400 pkts at least), split is 3:1 *)
  let first = List.filteri (fun i _ -> i < 400) served in
  let a_count = List.length (List.filter (fun (_, n, _, _) -> n = "a") first) in
  Alcotest.(check bool)
    (Printf.sprintf "3:1 split (a got %d/400)" a_count)
    true
    (abs (a_count - 300) <= 2);
  Alcotest.(check int) "everything served" 800 (List.length served)

let test_byte_conservation () =
  let t = Hfsc.create ~link_rate:1e6 () in
  let a = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"a" ~fsc:(Sc.linear 5e5) () in
  let b = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"b" ~fsc:(Sc.linear 5e5) () in
  let enq = ref 0 in
  for i = 0 to 49 do
    let sz = 100 + (i * 7 mod 900) in
    if Hfsc.enqueue t ~now:0. a (pkt ~flow:1 ~size:sz ~seq:i ~arrival:0.) then
      enq := !enq + sz;
    if Hfsc.enqueue t ~now:0. b (pkt ~flow:2 ~size:sz ~seq:i ~arrival:0.) then
      enq := !enq + sz
  done;
  Alcotest.(check int) "backlog bytes" !enq (Hfsc.backlog_bytes t);
  let served = drain t ~link_rate:1e6 in
  let out = List.fold_left (fun acc (_, _, sz, _) -> acc + sz) 0 served in
  Alcotest.(check int) "conserved" !enq out;
  Alcotest.(check int) "no backlog left" 0 (Hfsc.backlog_bytes t);
  Alcotest.(check (float 1e-6)) "totals add up"
    (float_of_int !enq)
    (Hfsc.total_bytes a +. Hfsc.total_bytes b)

let test_qlimit_drops () =
  let t = Hfsc.create ~link_rate:1e6 () in
  let c =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"c" ~fsc:(Sc.linear 1e5)
      ~qlimit:5 ()
  in
  let accepted = ref 0 in
  for i = 0 to 9 do
    if Hfsc.enqueue t ~now:0. c (pkt ~flow:1 ~size:100 ~seq:i ~arrival:0.) then
      incr accepted
  done;
  Alcotest.(check int) "accepted" 5 !accepted;
  Alcotest.(check int) "drops" 5 (Hfsc.drops c);
  Alcotest.(check int) "backlog" 5 (Hfsc.backlog_pkts t)

(* --- real-time guarantees -------------------------------------------- *)

(* CBR flow with concave rsc against a greedy competitor: every packet
   delay within dmax + Lmax/R (Theorem 2). *)
let run_rt_guarantee ~link_rate ~umax ~dmax ~rate ~pkt_size ~competitor_size =
  let t = Hfsc.create ~link_rate () in
  let rsc = Sc.of_requirements ~umax ~dmax ~rate in
  let rt =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"rt" ~rsc
      ~fsc:(Sc.linear rate) ()
  in
  let be =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"be"
      ~fsc:(Sc.linear (link_rate -. rate)) ()
  in
  let sched = sim_sched ~link_rate t [ (1, rt); (2, be) ] in
  let sim = Netsim.Sim.create ~link_rate ~sched () in
  let delays = Netsim.Stats.Flow_delay.attach sim in
  Netsim.Sim.add_source sim
    (Netsim.Source.cbr ~flow:1 ~rate ~pkt_size ~stop:5. ());
  Netsim.Sim.add_source sim
    (Netsim.Source.saturating ~flow:2 ~rate:link_rate
       ~pkt_size:competitor_size ~stop:5. ());
  Netsim.Sim.run sim ~until:6.;
  match Netsim.Stats.Flow_delay.find delays 1 with
  | Some d -> Netsim.Stats.Delay.max d
  | None -> Alcotest.fail "no rt packets served"

let test_rt_guarantee_small () =
  let max_delay =
    run_rt_guarantee ~link_rate:1e6 ~umax:160. ~dmax:0.005 ~rate:8000.
      ~pkt_size:160 ~competitor_size:1500
  in
  Alcotest.(check bool)
    (Printf.sprintf "max %.6f <= bound" max_delay)
    true
    (max_delay <= 0.005 +. (1500. /. 1e6) +. 1e-9)

let test_rt_guarantee_video () =
  let max_delay =
    run_rt_guarantee ~link_rate:5.625e6 ~umax:8000. ~dmax:0.01 ~rate:250000.
      ~pkt_size:1000 ~competitor_size:1000
  in
  Alcotest.(check bool)
    (Printf.sprintf "max %.6f <= bound" max_delay)
    true
    (max_delay <= 0.01 +. (1000. /. 5.625e6) +. 1e-9)

(* qcheck version: random admissible concave curves and competitors. *)
let rt_guarantee_prop =
  qt ~count:25 "random concave rsc: delays within Theorem-2 bound"
    QCheck2.Gen.(
      let* dmax = float_range 0.002 0.05 in
      let* rate = float_range 5_000. 100_000. in
      let* pkt_size = int_range 64 1500 in
      let* competitor_size = int_range 64 1500 in
      return (dmax, rate, pkt_size, competitor_size))
    (fun (dmax, rate, pkt_size, competitor_size) ->
      let link_rate = 1e6 in
      QCheck2.assume (rate <= 0.4 *. link_rate);
      let umax = float_of_int pkt_size in
      let max_delay =
        run_rt_guarantee ~link_rate ~umax ~dmax ~rate ~pkt_size
          ~competitor_size
      in
      max_delay <= dmax +. (float_of_int competitor_size /. link_rate) +. 1e-9)

(* Deep hierarchies do not inflate the real-time bound (Section IV-A:
   the real-time criterion considers only leaves). *)
let test_depth_independent_delay () =
  let link_rate = 1e6 in
  let delay_at_depth depth =
    let t = Hfsc.create ~link_rate () in
    let parent = ref (Hfsc.root t) in
    for i = 1 to depth do
      parent :=
        Hfsc.add_class t ~parent:!parent
          ~name:(Printf.sprintf "i%d" i)
          ~fsc:(Sc.linear (link_rate /. 2.)) ()
    done;
    let rsc = Sc.of_requirements ~umax:160. ~dmax:0.005 ~rate:8000. in
    let rt =
      Hfsc.add_class t ~parent:!parent ~name:"rt" ~rsc ~fsc:(Sc.linear 8000.)
        ()
    in
    let be =
      Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"be"
        ~fsc:(Sc.linear (link_rate /. 2.)) ()
    in
    let sched = sim_sched ~link_rate t [ (1, rt); (2, be) ] in
    let sim = Netsim.Sim.create ~link_rate ~sched () in
    let delays = Netsim.Stats.Flow_delay.attach sim in
    Netsim.Sim.add_source sim
      (Netsim.Source.cbr ~flow:1 ~rate:8000. ~pkt_size:160 ~stop:3. ());
    Netsim.Sim.add_source sim
      (Netsim.Source.saturating ~flow:2 ~rate:link_rate ~pkt_size:1500
         ~stop:3. ());
    Netsim.Sim.run sim ~until:4.;
    match Netsim.Stats.Flow_delay.find delays 1 with
    | Some d -> Netsim.Stats.Delay.max d
    | None -> Alcotest.fail "no packets"
  in
  let d1 = delay_at_depth 1 and d5 = delay_at_depth 5 in
  let bound = 0.005 +. (1500. /. link_rate) +. 1e-9 in
  Alcotest.(check bool) "depth 1 within bound" true (d1 <= bound);
  Alcotest.(check bool) "depth 5 within bound" true (d5 <= bound)

(* --- fairness / non-punishment --------------------------------------- *)

let test_non_punishment () =
  (* Fig. 2 in miniature: session 1 (convex) hogs the idle link; when
     session 2 (concave) wakes, session 1 keeps receiving service. *)
  let link = 1e6 in
  let t = Hfsc.create ~link_rate:link () in
  let s1 = Sc.make ~m1:(0.3 *. link) ~d:1. ~m2:(0.9 *. link) in
  let s2 = Sc.make ~m1:(0.7 *. link) ~d:1. ~m2:(0.1 *. link) in
  let c1 = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"s1" ~rsc:s1 ~fsc:s1 () in
  let c2 = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"s2" ~rsc:s2 ~fsc:s2 () in
  (* session 1 alone for 2 simulated seconds *)
  let now = ref 0. in
  let seq1 = ref 0 in
  let tx = 500. /. link in
  while !now < 2. do
    if Hfsc.queue_length c1 = 0 then begin
      ignore
        (Hfsc.enqueue t ~now:!now c1
           (pkt ~flow:1 ~size:500 ~seq:!seq1 ~arrival:!now));
      incr seq1
    end;
    ignore (Hfsc.dequeue t ~now:!now);
    now := !now +. tx
  done;
  (* both backlogged from t=2 *)
  for i = 0 to 999 do
    ignore
      (Hfsc.enqueue t ~now:!now c1
         (pkt ~flow:1 ~size:500 ~seq:(!seq1 + i) ~arrival:!now));
    ignore
      (Hfsc.enqueue t ~now:!now c2 (pkt ~flow:2 ~size:500 ~seq:i ~arrival:!now))
  done;
  let served = drain ~start:!now t ~link_rate:link in
  (* session 1 must receive service within the first 20 packets *)
  let early = List.filteri (fun i _ -> i < 20) served in
  Alcotest.(check bool) "s1 served promptly" true
    (List.exists (fun (_, n, _, _) -> n = "s1") early);
  (* and a solid share of the first 0.5s *)
  let window = List.filter (fun (ts, _, _, _) -> ts <= !now +. 0.5) served in
  let s1_window =
    List.fold_left
      (fun acc (_, n, sz, _) -> if n = "s1" then acc + sz else acc)
      0 window
  in
  Alcotest.(check bool)
    (Printf.sprintf "s1 got %dB in 0.5s" s1_window)
    true
    (float_of_int s1_window >= 0.25 *. 0.5 *. link)

let test_excess_to_siblings_not_cousins () =
  (* two agencies; one agency's idle class donates to its sibling *)
  let link = 1e6 in
  let t = Hfsc.create ~link_rate:link () in
  let a = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"A" ~fsc:(Sc.linear 5e5) () in
  let b = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"B" ~fsc:(Sc.linear 5e5) () in
  let a1 = Hfsc.add_class t ~parent:a ~name:"a1" ~fsc:(Sc.linear 2.5e5) () in
  let _a2 = Hfsc.add_class t ~parent:a ~name:"a2" ~fsc:(Sc.linear 2.5e5) () in
  let b1 = Hfsc.add_class t ~parent:b ~name:"b1" ~fsc:(Sc.linear 5e5) () in
  (* a2 idle; a1 and b1 greedy *)
  for i = 0 to 999 do
    ignore (Hfsc.enqueue t ~now:0. a1 (pkt ~flow:1 ~size:1000 ~seq:i ~arrival:0.));
    ignore (Hfsc.enqueue t ~now:0. b1 (pkt ~flow:2 ~size:1000 ~seq:i ~arrival:0.))
  done;
  let served = drain t ~link_rate:link in
  let first_n = List.filteri (fun i _ -> i < 1000) served in
  let a1_bytes =
    List.fold_left
      (fun acc (_, n, sz, _) -> if n = "a1" then acc + sz else acc)
      0 first_n
  in
  (* a1 should absorb all of A's 50%, not just its own 25% *)
  Alcotest.(check bool)
    (Printf.sprintf "a1 got %d of 1000000" a1_bytes)
    true
    (abs (a1_bytes - 500_000) < 20_000)

let test_churn_fairness_regression () =
  (* regression for the vt staleness bug: two per-packet churning
     classes must not starve a continuously backlogged sibling *)
  let link = 1e6 in
  let t = Hfsc.create ~link_rate:link () in
  let third = Sc.linear (link /. 3.) in
  let a = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"A" ~fsc:third () in
  let b = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"B" ~fsc:third () in
  let c = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"C" ~fsc:third () in
  let sched = sim_sched ~link_rate:link t [ (1, a); (2, b); (3, c) ] in
  let sim = Netsim.Sim.create ~link_rate:link ~sched () in
  (* A and B offered exactly their fair share (queues drain per packet,
     constant churn); C strictly backlogged *)
  Netsim.Sim.add_source sim
    (Netsim.Source.cbr ~flow:1 ~rate:(link /. 3.) ~pkt_size:1000 ~stop:10. ());
  Netsim.Sim.add_source sim
    (Netsim.Source.cbr ~flow:2 ~rate:(link /. 3.) ~pkt_size:1000 ~stop:10. ());
  Netsim.Sim.add_source sim
    (Netsim.Source.saturating ~flow:3 ~rate:(0.6 *. link) ~pkt_size:1000
       ~stop:10. ());
  Netsim.Sim.run sim ~until:10.;
  let share cls = Hfsc.total_bytes cls /. (10. *. link) in
  Alcotest.(check bool)
    (Printf.sprintf "C share %.3f >= 0.30" (share c))
    true
    (share c >= 0.30);
  Alcotest.(check bool) "A kept its share" true (share a >= 0.30);
  Alcotest.(check bool) "B kept its share" true (share b >= 0.30)

let vt_policies_no_starvation =
  qt ~count:3 "every vt policy serves a backlogged class its share"
    (QCheck2.Gen.oneofl [ Hfsc.Vt_mean; Hfsc.Vt_min; Hfsc.Vt_max ])
    (fun policy ->
      let link = 1e6 in
      let t = Hfsc.create ~vt_policy:policy ~link_rate:link () in
      let half = Sc.linear (link /. 2.) in
      let a = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"A" ~fsc:half () in
      let b = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"B" ~fsc:half () in
      let sched = sim_sched ~link_rate:link t [ (1, a); (2, b) ] in
      let sim = Netsim.Sim.create ~link_rate:link ~sched () in
      Netsim.Sim.add_source sim
        (Netsim.Source.cbr ~flow:1 ~rate:(link /. 2.) ~pkt_size:500 ~stop:5. ());
      Netsim.Sim.add_source sim
        (Netsim.Source.saturating ~flow:2 ~rate:link ~pkt_size:1000 ~stop:5. ());
      Netsim.Sim.run sim ~until:5.;
      Hfsc.total_bytes b /. (5. *. link) >= 0.45)

(* --- criteria accounting ---------------------------------------------- *)

let test_criterion_labels () =
  let link = 1e6 in
  let t = Hfsc.create ~link_rate:link () in
  let rsc = Sc.of_requirements ~umax:500. ~dmax:0.002 ~rate:1e5 in
  let rt =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"rt" ~rsc ~fsc:(Sc.linear 1e5)
      ()
  in
  let be = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"be" ~fsc:(Sc.linear 9e5) () in
  for i = 0 to 9 do
    ignore (Hfsc.enqueue t ~now:0. rt (pkt ~flow:1 ~size:500 ~seq:i ~arrival:0.));
    ignore (Hfsc.enqueue t ~now:0. be (pkt ~flow:2 ~size:500 ~seq:i ~arrival:0.))
  done;
  let served = drain t ~link_rate:link in
  let rt_crit =
    List.filter (fun (_, n, _, c) -> n = "rt" && c = Hfsc.Realtime) served
  in
  Alcotest.(check bool) "rt class served by realtime criterion" true
    (List.length rt_crit > 0);
  Alcotest.(check bool) "realtime_bytes tracks" true
    (Hfsc.realtime_bytes rt > 0.);
  Alcotest.(check (float 0.)) "be has no rt bytes" 0. (Hfsc.realtime_bytes be);
  Alcotest.(check bool) "rt <= total" true
    (Hfsc.realtime_bytes rt <= Hfsc.total_bytes rt +. 1e-9)

(* --- upper limit ------------------------------------------------------- *)

let test_ulimit_cap_alone () =
  let link = 1e6 in
  let t = Hfsc.create ~link_rate:link () in
  let c =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"capped" ~fsc:(Sc.linear 1e5)
      ~usc:(Sc.linear 1e5) ()
  in
  let sched = sim_sched ~link_rate:link t [ (1, c) ] in
  let sim = Netsim.Sim.create ~link_rate:link ~sched () in
  Netsim.Sim.add_source sim
    (Netsim.Source.saturating ~flow:1 ~rate:5e5 ~pkt_size:1000 ~stop:5. ());
  Netsim.Sim.run sim ~until:5.;
  let rate = Hfsc.total_bytes c /. 5. in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f ~ 1e5 cap" rate)
    true
    (Float.abs (rate -. 1e5) < 5e3);
  (* non-work-conserving: the link idled although backlogged *)
  Alcotest.(check bool) "still backlogged" true (Hfsc.backlog_pkts t > 0)

let test_ulimit_next_ready () =
  let link = 1e6 in
  let t = Hfsc.create ~link_rate:link () in
  let c =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"capped" ~fsc:(Sc.linear 1e5)
      ~usc:(Sc.linear 1e5) ()
  in
  Alcotest.(check bool) "idle" true (Hfsc.next_ready_time t ~now:0. = None);
  for i = 0 to 9 do
    ignore (Hfsc.enqueue t ~now:0. c (pkt ~flow:1 ~size:1000 ~seq:i ~arrival:0.))
  done;
  (* serve until the cap blocks *)
  let now = ref 0. in
  let blocked = ref false in
  while not !blocked do
    match Hfsc.dequeue t ~now:!now with
    | Some (p, _, _) -> now := !now +. (float_of_int p.Pkt.Packet.size /. link)
    | None -> blocked := true
  done;
  match Hfsc.next_ready_time t ~now:!now with
  | Some ts ->
      Alcotest.(check bool) "future ready time" true (ts > !now);
      (* at ts, dequeue must succeed *)
      Alcotest.(check bool) "ready at ts" true (Hfsc.dequeue t ~now:ts <> None)
  | None -> Alcotest.fail "expected a ready time while backlogged"

(* --- runtime reconfiguration ------------------------------------------- *)

let test_remove_class () =
  let t = Hfsc.create ~link_rate:1e6 () in
  let a = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"a" ~fsc:(Sc.linear 5e5) () in
  let b = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"b" ~fsc:(Sc.linear 5e5) () in
  (* cannot remove while backlogged *)
  ignore (Hfsc.enqueue t ~now:0. a (pkt ~flow:1 ~size:100 ~seq:0 ~arrival:0.));
  Alcotest.(check bool) "active rejected" true
    (raises_invalid (fun () -> Hfsc.remove_class t a));
  ignore (Hfsc.dequeue t ~now:0.);
  Hfsc.remove_class t a;
  Alcotest.(check int) "gone" 2 (List.length (Hfsc.classes t));
  Alcotest.(check bool) "not findable" true (Hfsc.find_class t "a" = None);
  Alcotest.(check bool) "root irremovable" true
    (raises_invalid (fun () -> Hfsc.remove_class t (Hfsc.root t)));
  (* b still schedules fine *)
  ignore (Hfsc.enqueue t ~now:1. b (pkt ~flow:2 ~size:100 ~seq:0 ~arrival:1.));
  Alcotest.(check bool) "b serves" true (Hfsc.dequeue t ~now:1. <> None)

(* find_class is backed by a name index updated in add/remove_class;
   check lookups across removals and duplicate names, and that
   [children]/[classes] keep creation order. *)
let test_find_class_index () =
  let t = Hfsc.create ~link_rate:1e6 () in
  let add name =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name ~fsc:(Sc.linear 1e5) ()
  in
  let a = add "a" in
  let b = add "b" in
  let b2 = add "b" in
  (* duplicate name *)
  let c = add "c" in
  Alcotest.(check bool) "finds a" true
    (match Hfsc.find_class t "a" with Some x -> x == a | None -> false);
  (* duplicate names resolve to the earliest in creation order *)
  Alcotest.(check bool) "duplicate -> earliest" true
    (match Hfsc.find_class t "b" with Some x -> x == b | None -> false);
  Hfsc.remove_class t b;
  (* after removing the earliest, the surviving duplicate is found *)
  Alcotest.(check bool) "duplicate survivor found" true
    (match Hfsc.find_class t "b" with Some x -> x == b2 | None -> false);
  Hfsc.remove_class t b2;
  Alcotest.(check bool) "b gone" true (Hfsc.find_class t "b" = None);
  Alcotest.(check bool) "others unaffected" true
    (match Hfsc.find_class t "c" with Some x -> x == c | None -> false);
  Alcotest.(check bool) "missing name" true (Hfsc.find_class t "zzz" = None);
  (* creation order is preserved by the child lists and classes *)
  let names l = List.map Hfsc.name l in
  Alcotest.(check (list string)) "children in creation order" [ "a"; "c" ]
    (names (Hfsc.children (Hfsc.root t)));
  Alcotest.(check (list string)) "classes in creation order"
    [ "root"; "a"; "c" ] (names (Hfsc.classes t))

let test_remove_class_parent_with_children () =
  let t = Hfsc.create ~link_rate:1e6 () in
  let a = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"a" ~fsc:(Sc.linear 5e5) () in
  let _b = Hfsc.add_class t ~parent:a ~name:"b" ~fsc:(Sc.linear 5e5) () in
  Alcotest.(check bool) "parent with children rejected" true
    (raises_invalid (fun () -> Hfsc.remove_class t a))

let test_set_curves () =
  let t = Hfsc.create ~link_rate:1e6 () in
  let a = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"a" ~fsc:(Sc.linear 7.5e5) () in
  let b = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"b" ~fsc:(Sc.linear 2.5e5) () in
  let run () =
    for i = 0 to 199 do
      ignore (Hfsc.enqueue t ~now:0. a (pkt ~flow:1 ~size:1000 ~seq:i ~arrival:0.));
      ignore (Hfsc.enqueue t ~now:0. b (pkt ~flow:2 ~size:1000 ~seq:i ~arrival:0.))
    done;
    let served = drain t ~link_rate:1e6 in
    let first = List.filteri (fun i _ -> i < 200) served in
    List.length (List.filter (fun (_, n, _, _) -> n = "a") first)
  in
  let before = run () in
  Alcotest.(check bool) "3:1 before" true (abs (before - 150) <= 2);
  (* flip the shares and rerun: now 1:3 *)
  Hfsc.modify_class t a ~fsc:(Sc.linear 2.5e5) ();
  Hfsc.modify_class t b ~fsc:(Sc.linear 7.5e5) ();
  let after = run () in
  Alcotest.(check bool)
    (Printf.sprintf "1:3 after (a got %d/200)" after)
    true
    (abs (after - 50) <= 4)

let test_set_curves_validation () =
  let t = Hfsc.create ~link_rate:1e6 () in
  let a = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"a" ~fsc:(Sc.linear 1e5) () in
  let _b = Hfsc.add_class t ~parent:a ~name:"b" ~fsc:(Sc.linear 1e5) () in
  Alcotest.(check bool) "rsc on interior" true
    (raises_invalid (fun () -> Hfsc.modify_class t a ~rsc:(Sc.linear 1.) ()));
  let c = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"c" ~fsc:(Sc.linear 1e5) () in
  ignore (Hfsc.enqueue t ~now:0. c (pkt ~flow:1 ~size:100 ~seq:0 ~arrival:0.));
  Alcotest.(check bool) "active class rejected" true
    (raises_invalid (fun () -> Hfsc.modify_class t c ~fsc:(Sc.linear 2e5) ()));
  (* a bad limit refuses the whole change: the valid new curve is not
     stored either *)
  let d = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"d" ~fsc:(Sc.linear 1e5) () in
  let fsc_before = Hfsc.fsc d and state_before = Hfsc.debug_state d in
  Alcotest.(check bool) "zero qlimit rejected" true
    (raises_invalid (fun () ->
         Hfsc.modify_class t d ~fsc:(Sc.linear 2e5) ~qlimit:0 ()));
  Alcotest.(check bool) "fsc unchanged" true (Hfsc.fsc d = fsc_before);
  Alcotest.(check string) "state unchanged" state_before (Hfsc.debug_state d)

(* --- eligible-policy knob ---------------------------------------------- *)

let test_eligible_policies_basic_equiv () =
  (* for concave curves the two policies coincide *)
  let run policy =
    let t = Hfsc.create ~eligible_policy:policy ~link_rate:1e6 () in
    let rsc = Sc.of_requirements ~umax:500. ~dmax:0.005 ~rate:1e5 in
    let c = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"c" ~rsc () in
    for i = 0 to 19 do
      ignore (Hfsc.enqueue t ~now:0. c (pkt ~flow:1 ~size:500 ~seq:i ~arrival:0.))
    done;
    List.map (fun (ts, _, _, _) -> ts) (drain t ~link_rate:1e6)
  in
  let a = run Hfsc.Eligible_paper and b = run Hfsc.Eligible_deadline in
  Alcotest.(check (list (float 1e-9))) "same schedule for concave" a b

(* --- the record path allocates nothing ------------------------------- *)

(* Serve up to [n] packets at [now], one [dequeue] (a held record
   fill) each; top-level so a drain builds no closure. *)
let rec drain_n dequeue ~now n i =
  if i < n && dequeue ~now then drain_n dequeue ~now n (i + 1) else i

(* Drains of 32 [dequeue_into] calls on one held [Pkt.Served] record,
   bare and through [Runtime.Backend.dequeue]: exactly zero minor words
   per packet, here on 1000 flat rsc+fsc leaves. The timed drains read
   an already-boxed clock so the caller's float boxing is not charged
   to the scheduler. *)
let test_dequeue_into_allocates_nothing () =
  let n = 1000 and burst = 32 and warm = 8 and k = 128 in
  let link_rate = 12_500_000. in
  let per = ((k + warm) * burst / n) + 2 in
  let build () =
    let t = Hfsc.create ~link_rate () in
    let sc = Sc.linear (link_rate /. float_of_int n) in
    for i = 0 to n - 1 do
      let leaf =
        Hfsc.add_class t ~parent:(Hfsc.root t) ~name:(Printf.sprintf "l%d" i)
          ~rsc:sc ~fsc:sc ~qlimit:1_000_000 ()
      in
      for s = 0 to per - 1 do
        ignore
          (Hfsc.enqueue t ~now:0. leaf (pkt ~flow:i ~size:1000 ~seq:s ~arrival:0.))
      done
    done;
    t
  in
  let words_per_packet ~what dequeue =
    let now = ref 0. in
    for _ = 1 to warm do
      now := !now +. (1000. *. float_of_int burst /. link_rate);
      ignore (drain_n dequeue ~now:!now burst 0)
    done;
    match Sys.opaque_identity [ !now ] with
    | [ boxed_now ] ->
        let served = ref 0 in
        let w0 = Gc.minor_words () in
        for _ = 1 to k do
          served := !served + drain_n dequeue ~now:boxed_now burst 0
        done;
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check int) (what ^ ": every drain was full") (k * burst)
          !served;
        Alcotest.(check (float 0.)) (what ^ ": minor words per packet") 0.
          (words /. float_of_int (k * burst))
    | _ -> assert false
  in
  (let t = build () and s = Pkt.Served.create () in
   words_per_packet ~what:"Hfsc.dequeue_into" (fun ~now ->
       Hfsc.dequeue_into t ~now s));
  let be = Runtime.Backend.of_hfsc ~link_rate (build ()) in
  words_per_packet ~what:"Backend.dequeue" be.Runtime.Backend.dequeue

(* Activation cycles: each enqueues one packet into an empty leaf with
   an rsc, an fsc and a usc, whose parent goes active with it, then
   dequeues until the scheduler is empty, so every cycle runs both
   curve min-updates, the eligible-curve flattening (the convex leaf),
   both levels of the activation walk and the passive walk. The drains
   above never activate a class; this gate does, under both eligible
   policies: exactly zero minor words per cycle. Each cycle's clock
   reading is boxed before the count, as above. *)
let test_activation_allocates_nothing () =
  let link_rate = 1_000_000. and warm = 16 and k = 256 in
  let run policy what =
    let t = Hfsc.create ~eligible_policy:policy ~link_rate () in
    let group =
      Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"g"
        ~fsc:(Sc.linear (0.5 *. link_rate)) ()
    in
    let leaf name rsc =
      Hfsc.add_class t ~parent:group ~name ~rsc ~fsc:(Sc.linear 100_000.)
        ~usc:(Sc.linear (0.5 *. link_rate)) ()
    in
    let leaves =
      [|
        leaf "concave" (Sc.make ~m1:200_000. ~d:0.005 ~m2:50_000.);
        leaf "convex" (Sc.make ~m1:0. ~d:0.005 ~m2:100_000.);
      |]
    in
    let pkts = Array.init 2 (fun f -> pkt ~flow:f ~size:500 ~seq:0 ~arrival:0.) in
    let s = Pkt.Served.create () in
    let served = ref 0 and cycles = ref 0 in
    let cycle now =
      let i = !cycles land 1 in
      incr cycles;
      if not (Hfsc.enqueue t ~now leaves.(i) pkts.(i)) then assert false;
      while Hfsc.dequeue_into t ~now s do
        incr served
      done
    in
    let nows a n = List.init n (fun i -> float_of_int (a + i) *. 0.01) in
    List.iter cycle (nows 0 warm);
    let timed = nows warm k in
    served := 0;
    let w0 = Gc.minor_words () in
    List.iter cycle timed;
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check int) (what ^ ": one packet served per cycle") k !served;
    Alcotest.(check (list string)) (what ^ ": audit") [] (Hfsc.audit t);
    Alcotest.(check (float 0.)) (what ^ ": minor words per cycle") 0.
      (words /. float_of_int k)
  in
  run Hfsc.Eligible_paper "Eligible_paper";
  run Hfsc.Eligible_deadline "Eligible_deadline"

let () =
  Alcotest.run "hfsc"
    [
      ( "construction",
        [
          Alcotest.test_case "errors" `Quick test_construction_errors;
          Alcotest.test_case "unrepresentable curves refused" `Quick
            test_unrepresentable_curves_refused;
          Alcotest.test_case "fsc defaults to rsc" `Quick
            test_fsc_defaults_to_rsc;
          Alcotest.test_case "introspection" `Quick test_introspection;
        ] );
      ( "service",
        [
          Alcotest.test_case "single class full rate" `Quick
            test_single_class_full_rate;
          Alcotest.test_case "fifo within class" `Quick test_fifo_within_class;
          Alcotest.test_case "3:1 link-share split" `Quick test_linkshare_split;
          Alcotest.test_case "byte conservation" `Quick test_byte_conservation;
          Alcotest.test_case "qlimit drops" `Quick test_qlimit_drops;
        ] );
      ( "realtime",
        [
          Alcotest.test_case "audio-like guarantee" `Quick
            test_rt_guarantee_small;
          Alcotest.test_case "video-like guarantee" `Quick
            test_rt_guarantee_video;
          Alcotest.test_case "depth-independent delay" `Slow
            test_depth_independent_delay;
          rt_guarantee_prop;
          Alcotest.test_case "criterion labels" `Quick test_criterion_labels;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "non-punishment (Fig. 2)" `Quick
            test_non_punishment;
          Alcotest.test_case "excess to siblings not cousins" `Quick
            test_excess_to_siblings_not_cousins;
          Alcotest.test_case "churn regression" `Quick
            test_churn_fairness_regression;
          vt_policies_no_starvation;
        ] );
      ( "ulimit",
        [
          Alcotest.test_case "cap honored when alone" `Quick
            test_ulimit_cap_alone;
          Alcotest.test_case "next_ready_time" `Quick test_ulimit_next_ready;
        ] );
      ( "reconfiguration",
        [
          Alcotest.test_case "remove_class" `Quick test_remove_class;
          Alcotest.test_case "find_class index" `Quick test_find_class_index;
          Alcotest.test_case "remove parent with children" `Quick
            test_remove_class_parent_with_children;
          Alcotest.test_case "set_curves reshapes sharing" `Quick
            test_set_curves;
          Alcotest.test_case "set_curves validation" `Quick
            test_set_curves_validation;
        ] );
      ( "eligible-policy",
        [
          Alcotest.test_case "concave equivalence" `Quick
            test_eligible_policies_basic_equiv;
        ] );
      ( "batch",
        [
          Alcotest.test_case "dequeue_into allocates nothing" `Quick
            test_dequeue_into_allocates_nothing;
          Alcotest.test_case "activation allocates nothing" `Quick
            test_activation_allocates_nothing;
        ] );
    ]
