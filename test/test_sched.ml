(* Tests for the baseline schedulers (lib/sched): the flat disciplines
   and the H-PFQ comparator. A shared generic harness checks byte
   conservation and work conservation across all of them; per-discipline
   tests check the properties each is known for. *)

module Sc = Curve.Service_curve
module S = Sched.Scheduler

let qt ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let pkt ~flow ~size ~seq ~arrival = Pkt.Packet.make ~flow ~size ~seq ~arrival

let drain ?(start = 0.) (s : S.t) ~link_rate =
  let now = ref start in
  let out = ref [] in
  let continue_ = ref true in
  while !continue_ do
    match s.S.dequeue ~now:!now with
    | None -> continue_ := false
    | Some served ->
        now :=
          !now +. (float_of_int served.S.pkt.Pkt.Packet.size /. link_rate);
        out := (!now, served) :: !out
  done;
  List.rev !out

(* All flat schedulers configured for flows 1..3 on a 1 MB/s link, with
   1:1:2 weights where applicable. *)
let all_flat () =
  let link = 1e6 in
  [
    Sched.Fifo.create ();
    Sched.Virtual_clock.create ~rates:[ (1, 2.5e5); (2, 2.5e5); (3, 5e5) ] ();
    Sched.Sced.create
      ~curves:[ (1, Sc.linear 2.5e5); (2, Sc.linear 2.5e5); (3, Sc.linear 5e5) ]
      ();
    Sched.Wfq.create ~link_rate:link
      ~rates:[ (1, 2.5e5); (2, 2.5e5); (3, 5e5) ] ();
    Sched.Wf2q.create ~link_rate:link
      ~rates:[ (1, 2.5e5); (2, 2.5e5); (3, 5e5) ] ();
  ]

let conservation_all =
  qt ~count:30 "all schedulers: bytes in = bytes out, FIFO per flow"
    QCheck2.Gen.(
      list_size (int_range 1 60) (pair (int_range 1 3) (int_range 40 1500)))
    (fun arrivals ->
      List.for_all
        (fun sched ->
          let seqs = Hashtbl.create 4 in
          let accepted = ref 0 in
          List.iter
            (fun (flow, size) ->
              let seq =
                match Hashtbl.find_opt seqs flow with Some s -> s | None -> 0
              in
              Hashtbl.replace seqs flow (seq + 1);
              if sched.S.enqueue ~now:0. (pkt ~flow ~size ~seq ~arrival:0.)
              then accepted := !accepted + size)
            arrivals;
          let served = drain sched ~link_rate:1e6 in
          let out =
            List.fold_left
              (fun acc (_, sv) -> acc + sv.S.pkt.Pkt.Packet.size)
              0 served
          in
          (* FIFO within each flow *)
          let last_seq = Hashtbl.create 4 in
          let fifo_ok =
            List.for_all
              (fun (_, sv) ->
                let p = sv.S.pkt in
                let prev =
                  match Hashtbl.find_opt last_seq p.Pkt.Packet.flow with
                  | Some s -> s
                  | None -> -1
                in
                Hashtbl.replace last_seq p.Pkt.Packet.flow p.Pkt.Packet.seq;
                p.Pkt.Packet.seq > prev)
              served
          in
          out = !accepted && sched.S.backlog_pkts () = 0 && fifo_ok)
        (all_flat ()))

let test_fifo_is_fifo () =
  let s = Sched.Fifo.create () in
  ignore (s.S.enqueue ~now:0. (pkt ~flow:2 ~size:100 ~seq:0 ~arrival:0.));
  ignore (s.S.enqueue ~now:0. (pkt ~flow:1 ~size:100 ~seq:0 ~arrival:0.));
  ignore (s.S.enqueue ~now:0. (pkt ~flow:2 ~size:100 ~seq:1 ~arrival:0.));
  let served = drain s ~link_rate:1e6 in
  Alcotest.(check (list int)) "global arrival order"
    [ 2; 1; 2 ]
    (List.map (fun (_, sv) -> sv.S.pkt.Pkt.Packet.flow) served)

(* Split check: two greedy flows with weights w1:w2 must share in ratio
   ~w1:w2 while both are backlogged. *)
let split_ratio sched ~n =
  for i = 0 to n - 1 do
    ignore (sched.S.enqueue ~now:0. (pkt ~flow:1 ~size:1000 ~seq:i ~arrival:0.));
    ignore (sched.S.enqueue ~now:0. (pkt ~flow:3 ~size:1000 ~seq:i ~arrival:0.))
  done;
  let served = drain sched ~link_rate:1e6 in
  let first = List.filteri (fun i _ -> i < n) served in
  let f3 =
    List.length
      (List.filter (fun (_, sv) -> sv.S.pkt.Pkt.Packet.flow = 3) first)
  in
  float_of_int f3 /. float_of_int n

let test_weighted_splits () =
  (* flow 3 has twice flow 1's weight -> 2/3 of the first n packets *)
  List.iter
    (fun sched ->
      let r = split_ratio sched ~n:300 in
      Alcotest.(check bool)
        (Printf.sprintf "%s split %.3f ~ 2/3" sched.S.name r)
        true
        (Float.abs (r -. (2. /. 3.)) < 0.05))
    (List.filter (fun s -> s.S.name <> "fifo") (all_flat ()))

(* --- Virtual Clock ---------------------------------------------------- *)

let test_vc_unknown_flow_dropped () =
  let s = Sched.Virtual_clock.create ~rates:[ (1, 1000.) ] () in
  Alcotest.(check bool) "unknown dropped" false
    (s.S.enqueue ~now:0. (pkt ~flow:9 ~size:100 ~seq:0 ~arrival:0.))

let test_vc_punishes () =
  (* flow 1 uses an idle link, building future stamps; when flow 2
     arrives, flow 1 is locked out — the unfairness Section III-B
     describes *)
  let link = 1e6 in
  let s = Sched.Virtual_clock.create ~rates:[ (1, 5e5); (2, 5e5) ] () in
  (* flow 1 alone: one second of full-link service *)
  let now = ref 0. in
  let seq1 = ref 0 in
  while !now < 1.0 do
    ignore
      (s.S.enqueue ~now:!now (pkt ~flow:1 ~size:1000 ~seq:!seq1 ~arrival:!now));
    incr seq1;
    (match s.S.dequeue ~now:!now with
    | Some _ -> ()
    | None -> Alcotest.fail "expected packet");
    now := !now +. (1000. /. link)
  done;
  (* both greedy from t=1 *)
  for i = 0 to 499 do
    ignore
      (s.S.enqueue ~now:!now
         (pkt ~flow:1 ~size:1000 ~seq:(!seq1 + i) ~arrival:!now));
    ignore (s.S.enqueue ~now:!now (pkt ~flow:2 ~size:1000 ~seq:i ~arrival:!now))
  done;
  let served = drain ~start:!now s ~link_rate:link in
  let early = List.filteri (fun i _ -> i < 400) served in
  let f1 =
    List.length
      (List.filter (fun (_, sv) -> sv.S.pkt.Pkt.Packet.flow = 1) early)
  in
  Alcotest.(check bool)
    (Printf.sprintf "flow 1 starved early on (got %d/400)" f1)
    true (f1 < 40)

(* --- SCED -------------------------------------------------------------- *)

let test_sced_meets_deadlines () =
  (* a CBR flow with a concave curve keeps its delay bound under SCED
     (guarantees hold; it is only fairness SCED lacks) *)
  let link = 1e6 in
  let sc = Sc.of_requirements ~umax:500. ~dmax:0.01 ~rate:5e4 in
  let s =
    Sched.Sced.create ~curves:[ (1, sc); (2, Sc.linear (link -. 5e4)) ] ()
  in
  let sim = Netsim.Sim.create ~link_rate:link ~sched:s () in
  Netsim.Sim.add_source sim
    (Netsim.Source.cbr ~flow:1 ~rate:5e4 ~pkt_size:500 ~stop:3. ());
  Netsim.Sim.add_source sim
    (Netsim.Source.saturating ~flow:2 ~rate:link ~pkt_size:1500 ~stop:3. ());
  Netsim.Sim.run sim ~until:4.;
  match Netsim.Sim.delay_of_flow sim 1 with
  | Some d ->
      Alcotest.(check bool)
        (Printf.sprintf "max %.4f <= bound" (Netsim.Stats.Delay.max d))
        true
        (Netsim.Stats.Delay.max d <= 0.01 +. (1500. /. link) +. 1e-9)
  | None -> Alcotest.fail "no packets"

(* --- WFQ --------------------------------------------------------------- *)

let test_wfq_cbr_delay () =
  (* CBR at the reserved rate through WFQ: delay ~ L/r + Lmax/R *)
  let link = 1e6 in
  let s = Sched.Wfq.create ~link_rate:link ~rates:[ (1, 5e4); (2, 9.5e5) ] () in
  let sim = Netsim.Sim.create ~link_rate:link ~sched:s () in
  Netsim.Sim.add_source sim
    (Netsim.Source.cbr ~flow:1 ~rate:5e4 ~pkt_size:500 ~stop:3. ());
  Netsim.Sim.add_source sim
    (Netsim.Source.saturating ~flow:2 ~rate:link ~pkt_size:1000 ~stop:3. ());
  Netsim.Sim.run sim ~until:4.;
  match Netsim.Sim.delay_of_flow sim 1 with
  | Some d ->
      let bound = (500. /. 5e4) +. (1000. /. link) +. 1e-9 in
      Alcotest.(check bool)
        (Printf.sprintf "max %.4f <= L/r + Lmax/R" (Netsim.Stats.Delay.max d))
        true
        (Netsim.Stats.Delay.max d <= bound)
  | None -> Alcotest.fail "no packets"

(* --- WF2Q+ -------------------------------------------------------------- *)

let test_wf2q_smoothness () =
  (* WF2Q+'s eligibility test prevents a high-rate flow from running
     far ahead: in any prefix, flow 3's lead over its fluid share is
     bounded by one packet *)
  let link = 1e6 in
  let s =
    Sched.Wf2q.create ~link_rate:link
      ~rates:[ (1, 2.5e5); (2, 2.5e5); (3, 5e5) ] ()
  in
  for i = 0 to 199 do
    ignore (s.S.enqueue ~now:0. (pkt ~flow:1 ~size:1000 ~seq:i ~arrival:0.));
    ignore (s.S.enqueue ~now:0. (pkt ~flow:2 ~size:1000 ~seq:i ~arrival:0.));
    ignore (s.S.enqueue ~now:0. (pkt ~flow:3 ~size:1000 ~seq:i ~arrival:0.))
  done;
  let served = drain s ~link_rate:link in
  let ok = ref true in
  let bytes3 = ref 0 in
  let total = ref 0 in
  List.iter
    (fun (_, sv) ->
      let sz = sv.S.pkt.Pkt.Packet.size in
      total := !total + sz;
      if sv.S.pkt.Pkt.Packet.flow = 3 then bytes3 := !bytes3 + sz;
      if !total <= 600 * 1000 then begin
        (* fluid share of flow 3 is half the served volume *)
        let lead = float_of_int !bytes3 -. (0.5 *. float_of_int !total) in
        if lead > 1000.5 then ok := false
      end)
    served;
  Alcotest.(check bool) "worst-case fair lead <= 1 pkt" true !ok

(* --- CBQ ----------------------------------------------------------------- *)

let test_cbq_weighted_split () =
  let link = 1e6 in
  let t = Sched.Cbq.create ~link_rate:link () in
  let _a = Sched.Cbq.add_leaf t ~parent:(Sched.Cbq.root t) ~name:"a" ~rate:7.5e5 ~flow:1 () in
  let _b = Sched.Cbq.add_leaf t ~parent:(Sched.Cbq.root t) ~name:"b" ~rate:2.5e5 ~flow:2 () in
  let s = Sched.Cbq.to_scheduler t in
  for i = 0 to 399 do
    ignore (s.S.enqueue ~now:0. (pkt ~flow:1 ~size:1000 ~seq:i ~arrival:0.));
    ignore (s.S.enqueue ~now:0. (pkt ~flow:2 ~size:1000 ~seq:i ~arrival:0.))
  done;
  let served = drain s ~link_rate:link in
  let first = List.filteri (fun i _ -> i < 400) served in
  let f1 =
    List.length
      (List.filter (fun (_, sv) -> sv.S.pkt.Pkt.Packet.flow = 1) first)
  in
  Alcotest.(check bool)
    (Printf.sprintf "3:1 split (a got %d/400)" f1)
    true
    (abs (f1 - 300) <= 15)

let test_cbq_regulation () =
  (* a non-borrowing class is held near its allotment even on an
     otherwise idle link — with CBQ's characteristic estimator slack *)
  let link = 1e6 in
  let t = Sched.Cbq.create ~link_rate:link () in
  let _c =
    Sched.Cbq.add_leaf t ~parent:(Sched.Cbq.root t) ~name:"c" ~rate:1e5
      ~flow:1 ~borrow:false ()
  in
  let s = Sched.Cbq.to_scheduler t in
  let sim = Netsim.Sim.create ~link_rate:link ~sched:s () in
  Netsim.Sim.add_source sim
    (Netsim.Source.saturating ~flow:1 ~rate:5e5 ~pkt_size:1000 ~stop:10. ());
  Netsim.Sim.run sim ~until:10.;
  let rate = Netsim.Sim.transmitted_bytes sim /. 10. in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f within 25%% of 1e5 allotment" rate)
    true
    (rate >= 0.9e5 && rate <= 1.25e5)

let test_cbq_priority_bands () =
  (* priority 0 traffic goes out before priority 2 when both sendable *)
  let link = 1e6 in
  let t = Sched.Cbq.create ~link_rate:link () in
  let _hi =
    Sched.Cbq.add_leaf t ~parent:(Sched.Cbq.root t) ~name:"hi" ~rate:5e5
      ~flow:1 ~priority:0 ()
  in
  let _lo =
    Sched.Cbq.add_leaf t ~parent:(Sched.Cbq.root t) ~name:"lo" ~rate:5e5
      ~flow:2 ~priority:2 ()
  in
  let s = Sched.Cbq.to_scheduler t in
  for i = 0 to 9 do
    ignore (s.S.enqueue ~now:0. (pkt ~flow:2 ~size:1000 ~seq:i ~arrival:0.));
    ignore (s.S.enqueue ~now:0. (pkt ~flow:1 ~size:1000 ~seq:i ~arrival:0.))
  done;
  let served = drain s ~link_rate:link in
  let first10 = List.filteri (fun i _ -> i < 10) served in
  Alcotest.(check bool) "high priority first" true
    (List.for_all (fun (_, sv) -> sv.S.pkt.Pkt.Packet.flow = 1) first10)

let test_cbq_borrowing () =
  (* an overlimit class with borrow=true absorbs idle capacity; the
     same class with borrow=false leaves the link idle *)
  let run borrow =
    let link = 1e6 in
    let t = Sched.Cbq.create ~link_rate:link () in
    let _c =
      Sched.Cbq.add_leaf t ~parent:(Sched.Cbq.root t) ~name:"c" ~rate:1e5
        ~flow:1 ~borrow ()
    in
    let s = Sched.Cbq.to_scheduler t in
    let sim = Netsim.Sim.create ~link_rate:link ~sched:s () in
    Netsim.Sim.add_source sim
      (Netsim.Source.saturating ~flow:1 ~rate:9e5 ~pkt_size:1000 ~stop:5. ());
    Netsim.Sim.run sim ~until:5.;
    Netsim.Sim.transmitted_bytes sim /. 5.
  in
  let with_borrow = run true and without = run false in
  Alcotest.(check bool)
    (Printf.sprintf "borrow %.0f >> no-borrow %.0f" with_borrow without)
    true
    (with_borrow > 5. *. without)

let test_cbq_next_ready_pure () =
  (* probing next_ready must not change which packet dequeues next or
     how the round-robin shares fall *)
  let mk () =
    let t = Sched.Cbq.create ~link_rate:1e6 () in
    let _ = Sched.Cbq.add_leaf t ~parent:(Sched.Cbq.root t) ~name:"a" ~rate:7.5e5 ~flow:1 () in
    let _ = Sched.Cbq.add_leaf t ~parent:(Sched.Cbq.root t) ~name:"b" ~rate:2.5e5 ~flow:2 () in
    let s = Sched.Cbq.to_scheduler t in
    for i = 0 to 99 do
      ignore (s.S.enqueue ~now:0. (pkt ~flow:1 ~size:1000 ~seq:i ~arrival:0.));
      ignore (s.S.enqueue ~now:0. (pkt ~flow:2 ~size:1000 ~seq:i ~arrival:0.))
    done;
    s
  in
  let run probes =
    let s = mk () in
    let out = ref [] in
    let now = ref 0. in
    for _ = 1 to 200 do
      if probes then ignore (s.S.next_ready ~now:!now);
      (match s.S.dequeue ~now:!now with
      | Some sv -> out := sv.S.pkt.Pkt.Packet.flow :: !out
      | None -> ());
      now := !now +. 0.001
    done;
    List.rev !out
  in
  Alcotest.(check (list int)) "probe-invariant schedule" (run false)
    (run true)

(* --- H-PFQ --------------------------------------------------------------- *)

let mk_hpfq () =
  let link = 1e6 in
  let t = Sched.Hpfq.create ~link_rate:link () in
  let a = Sched.Hpfq.add_node t ~parent:(Sched.Hpfq.root t) ~name:"A" ~rate:5e5 in
  let b = Sched.Hpfq.add_node t ~parent:(Sched.Hpfq.root t) ~name:"B" ~rate:5e5 in
  let _ = Sched.Hpfq.add_leaf t ~parent:a ~name:"a1" ~rate:2.5e5 ~flow:1 () in
  let _ = Sched.Hpfq.add_leaf t ~parent:a ~name:"a2" ~rate:2.5e5 ~flow:2 () in
  let _ = Sched.Hpfq.add_leaf t ~parent:b ~name:"b1" ~rate:5e5 ~flow:3 () in
  Sched.Hpfq.to_scheduler t

let test_hpfq_construction_errors () =
  let t = Sched.Hpfq.create ~link_rate:1e6 () in
  let l =
    Sched.Hpfq.add_leaf t ~parent:(Sched.Hpfq.root t) ~name:"l" ~rate:1.
      ~flow:1 ()
  in
  Alcotest.(check bool) "child under leaf" true
    (try
       ignore (Sched.Hpfq.add_node t ~parent:l ~name:"x" ~rate:1.);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate flow" true
    (try
       ignore
         (Sched.Hpfq.add_leaf t ~parent:(Sched.Hpfq.root t) ~name:"m" ~rate:1.
            ~flow:1 ());
       false
     with Invalid_argument _ -> true)

let test_hpfq_sibling_priority () =
  (* a2 idle: a1 absorbs A's whole 50%, not 25% *)
  let s = mk_hpfq () in
  for i = 0 to 499 do
    ignore (s.S.enqueue ~now:0. (pkt ~flow:1 ~size:1000 ~seq:i ~arrival:0.));
    ignore (s.S.enqueue ~now:0. (pkt ~flow:3 ~size:1000 ~seq:i ~arrival:0.))
  done;
  let served = drain s ~link_rate:1e6 in
  let first = List.filteri (fun i _ -> i < 500) served in
  let f1 =
    List.length
      (List.filter (fun (_, sv) -> sv.S.pkt.Pkt.Packet.flow = 1) first)
  in
  Alcotest.(check bool)
    (Printf.sprintf "a1 got %d/500 ~ 250" f1)
    true
    (abs (f1 - 250) <= 10)

let test_hpfq_conservation () =
  let s = mk_hpfq () in
  let bytes = ref 0 in
  for i = 0 to 99 do
    List.iter
      (fun flow ->
        let size = 200 + (37 * i mod 1100) in
        if s.S.enqueue ~now:0. (pkt ~flow ~size ~seq:i ~arrival:0.) then
          bytes := !bytes + size)
      [ 1; 2; 3 ]
  done;
  let served = drain s ~link_rate:1e6 in
  let out =
    List.fold_left (fun acc (_, sv) -> acc + sv.S.pkt.Pkt.Packet.size) 0 served
  in
  Alcotest.(check int) "conserved" !bytes out;
  Alcotest.(check int) "no backlog" 0 (s.S.backlog_pkts ())

let test_hpfq_delay_grows_with_depth () =
  (* the defining limitation: same leaf curve, deeper hierarchy, larger
     delay — compare a depth-1 vs depth-3 placement of a low-rate flow *)
  let link = 1e6 in
  let delay_at depth =
    (* at every level the chain competes with a greedy sibling leaf, so
       each additional level adds real tag-waiting *)
    let t = Sched.Hpfq.create ~link_rate:link () in
    let parent = ref (Sched.Hpfq.root t) in
    let rate = ref link in
    let cross_flows = ref [] in
    for i = 1 to depth do
      let half = !rate /. 2. in
      let flow = 100 + i in
      let _ =
        Sched.Hpfq.add_leaf t ~parent:!parent
          ~name:(Printf.sprintf "x%d" i)
          ~rate:half ~flow ()
      in
      cross_flows := flow :: !cross_flows;
      parent :=
        Sched.Hpfq.add_node t ~parent:!parent
          ~name:(Printf.sprintf "n%d" i)
          ~rate:half;
      rate := half
    done;
    let _ =
      Sched.Hpfq.add_leaf t ~parent:!parent ~name:"slow" ~rate:8000. ~flow:1 ()
    in
    let _ =
      Sched.Hpfq.add_leaf t ~parent:!parent ~name:"rest"
        ~rate:(!rate -. 8000.)
        ~flow:2 ()
    in
    let s = Sched.Hpfq.to_scheduler t in
    let sim = Netsim.Sim.create ~link_rate:link ~sched:s () in
    Netsim.Sim.add_source sim
      (Netsim.Source.cbr ~flow:1 ~rate:8000. ~pkt_size:160 ~stop:3. ());
    Netsim.Sim.add_source sim
      (Netsim.Source.saturating ~flow:2 ~rate:link ~pkt_size:1000 ~stop:3. ());
    List.iter
      (fun flow ->
        Netsim.Sim.add_source sim
          (Netsim.Source.saturating ~flow ~rate:link ~pkt_size:1000 ~stop:3. ()))
      !cross_flows;
    Netsim.Sim.run sim ~until:4.;
    match Netsim.Sim.delay_of_flow sim 1 with
    | Some d -> Netsim.Stats.Delay.max d
    | None -> Alcotest.fail "no packets"
  in
  let d1 = delay_at 1 and d3 = delay_at 3 in
  Alcotest.(check bool)
    (Printf.sprintf "depth 3 (%.4f) > depth 1 (%.4f)" d3 d1)
    true (d3 > d1)

let () =
  Alcotest.run "sched"
    [
      ( "generic",
        [
          conservation_all;
          Alcotest.test_case "weighted splits" `Slow test_weighted_splits;
        ] );
      ("fifo", [ Alcotest.test_case "global order" `Quick test_fifo_is_fifo ]);
      ( "virtual-clock",
        [
          Alcotest.test_case "unknown flow dropped" `Quick
            test_vc_unknown_flow_dropped;
          Alcotest.test_case "punishes past excess" `Quick test_vc_punishes;
        ] );
      ( "sced",
        [ Alcotest.test_case "meets deadlines" `Quick test_sced_meets_deadlines ]
      );
      ("wfq", [ Alcotest.test_case "CBR delay bound" `Quick test_wfq_cbr_delay ]);
      ( "wf2q+",
        [ Alcotest.test_case "worst-case fair lead" `Quick test_wf2q_smoothness ]
      );
      ( "cbq",
        [
          Alcotest.test_case "weighted split" `Quick test_cbq_weighted_split;
          Alcotest.test_case "estimator regulation" `Quick
            test_cbq_regulation;
          Alcotest.test_case "priority bands" `Quick test_cbq_priority_bands;
          Alcotest.test_case "borrowing" `Quick test_cbq_borrowing;
          Alcotest.test_case "next_ready is pure" `Quick
            test_cbq_next_ready_pure;
        ] );
      ( "hpfq",
        [
          Alcotest.test_case "construction errors" `Quick
            test_hpfq_construction_errors;
          Alcotest.test_case "sibling priority" `Quick
            test_hpfq_sibling_priority;
          Alcotest.test_case "conservation" `Quick test_hpfq_conservation;
          Alcotest.test_case "delay grows with depth" `Slow
            test_hpfq_delay_grows_with_depth;
        ] );
    ]
