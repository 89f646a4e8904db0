(* Randomized stress tests: arbitrary hierarchies under arbitrary
   traffic, checking the global invariants that must hold whatever the
   configuration — conservation, per-flow FIFO, accounting consistency,
   work conservation, and clean drain. *)

module Sc = Curve.Service_curve

let qt ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Hierarchy/traffic generators and the builder live in Hfsc_gen, shared
   with the differential tests (test_hfsc_diff.ml). *)
let tree_gen = Hfsc_gen.tree_gen
let traffic_gen = Hfsc_gen.traffic_gen

module B = Hfsc_gen.Build (Hfsc)

let build_tree = B.build_tree

let sim_sched ~link_rate t leaves =
  Runtime.Engine.adapter
    (Runtime.Engine.create ~link_rate t
       ~flow_map:(List.map (fun (f, c, _) -> (f, c)) leaves)
       ())

let run_random (spec, traffic, seed) =
  let link_rate = 1e6 in
  let t, leaves = build_tree link_rate spec in
  let any_usc = List.exists (fun (_, _, u) -> u) leaves in
  let sched = sim_sched ~link_rate t leaves in
  let sim = Netsim.Sim.create ~link_rate ~sched () in
  let nleaves = List.length leaves in
  List.iteri
    (fun i (kind, load, pkt_size) ->
      let flow = 1 + (i mod nleaves) in
      let rate = Float.max 1000. (load *. link_rate /. float_of_int nleaves) in
      let src =
        match kind with
        | 0 -> Netsim.Source.cbr ~flow ~rate ~pkt_size ~stop:1.0 ()
        | 1 ->
            Netsim.Source.poisson ~flow ~rate ~pkt_size ~seed:(seed + i)
              ~stop:1.0 ()
        | _ ->
            Netsim.Source.on_off_exp ~flow ~peak_rate:(2. *. rate) ~pkt_size
              ~mean_on:0.05 ~mean_off:0.05 ~seed:(seed + i) ~stop:1.0 ()
      in
      Netsim.Sim.add_source sim src)
    traffic;
  (* count accepted bytes and check per-flow FIFO on departures *)
  let last_seq = Hashtbl.create 16 in
  let fifo_ok = ref true in
  let out_bytes = ref 0. in
  Netsim.Sim.on_departure sim (fun ~now:_ served ->
      let p = served.Sched.Scheduler.pkt in
      out_bytes := !out_bytes +. float_of_int p.Pkt.Packet.size;
      let prev =
        match Hashtbl.find_opt last_seq p.Pkt.Packet.flow with
        | Some s -> s
        | None -> -1
      in
      if p.Pkt.Packet.seq <= prev then fifo_ok := false;
      Hashtbl.replace last_seq p.Pkt.Packet.flow p.Pkt.Packet.seq);
  Netsim.Sim.run_until_idle sim ~max_time:60.;
  (* invariants *)
  let drained = (not any_usc) && Hfsc.backlog_pkts t <> 0 in
  let accounting_ok =
    (* every interior class's total equals the sum of its children's *)
    List.for_all
      (fun c ->
        Hfsc.is_leaf c
        || Float.abs
             (Hfsc.total_bytes c
             -. List.fold_left
                  (fun acc ch -> acc +. Hfsc.total_bytes ch)
                  0. (Hfsc.children c))
           < 1e-6)
      (Hfsc.classes t)
  in
  let rt_le_total =
    List.for_all
      (fun (_, c, _) -> Hfsc.realtime_bytes c <= Hfsc.total_bytes c +. 1e-6)
      leaves
  in
  (* two independent accountings of transmitted bytes must agree *)
  let conserved =
    Float.abs (!out_bytes -. Netsim.Sim.transmitted_bytes sim) < 1e-6
  in
  (not drained) && accounting_ok && rt_le_total && conserved && !fifo_ok

let stress =
  qt ~count:60 "random hierarchy + traffic: invariants hold"
    QCheck2.Gen.(triple tree_gen traffic_gen (int_range 0 10_000))
    run_random

(* Determinism: the same configuration replayed gives bit-identical
   results (the scheduler and simulator share no hidden global state). *)
let determinism =
  qt ~count:10 "replay determinism"
    QCheck2.Gen.(triple tree_gen traffic_gen (int_range 0 10_000))
    (fun cfg ->
      let snapshot () =
        let spec, traffic, seed = cfg in
        let link_rate = 1e6 in
        let t, leaves = build_tree link_rate spec in
        let sched = sim_sched ~link_rate t leaves in
        let sim = Netsim.Sim.create ~link_rate ~sched () in
        let nleaves = List.length leaves in
        List.iteri
          (fun i (kind, load, pkt_size) ->
            let flow = 1 + (i mod nleaves) in
            let rate =
              Float.max 1000. (load *. link_rate /. float_of_int nleaves)
            in
            let src =
              match kind with
              | 0 -> Netsim.Source.cbr ~flow ~rate ~pkt_size ~stop:0.3 ()
              | 1 ->
                  Netsim.Source.poisson ~flow ~rate ~pkt_size ~seed:(seed + i)
                    ~stop:0.3 ()
              | _ ->
                  Netsim.Source.on_off_exp ~flow ~peak_rate:(2. *. rate)
                    ~pkt_size ~mean_on:0.05 ~mean_off:0.05 ~seed:(seed + i)
                    ~stop:0.3 ()
            in
            Netsim.Sim.add_source sim src)
          traffic;
        Netsim.Sim.run_until_idle sim ~max_time:30.;
        ( Netsim.Sim.transmitted_bytes sim,
          Netsim.Sim.now sim,
          List.map (fun (_, c, _) -> Hfsc.total_bytes c) leaves )
      in
      snapshot () = snapshot ())

(* Proportional sharing: two greedy leaves with random linear weights
   split the link by weight. *)
let proportional_share =
  qt ~count:40 "random weights: greedy leaves split proportionally"
    QCheck2.Gen.(pair (float_range 0.1 0.9) (float_range 0.1 0.9))
    (fun (w1, w2) ->
      let link = 1e6 in
      let t = Hfsc.create ~link_rate:link () in
      let total_w = w1 +. w2 in
      let a =
        Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"a"
          ~fsc:(Sc.linear (w1 /. total_w *. link))
          ~qlimit:100_000 ()
      in
      let b =
        Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"b"
          ~fsc:(Sc.linear (w2 /. total_w *. link))
          ~qlimit:100_000 ()
      in
      for i = 0 to 999 do
        ignore
          (Hfsc.enqueue t ~now:0. a
             (Pkt.Packet.make ~flow:1 ~size:1000 ~seq:i ~arrival:0.));
        ignore
          (Hfsc.enqueue t ~now:0. b
             (Pkt.Packet.make ~flow:2 ~size:1000 ~seq:i ~arrival:0.))
      done;
      (* serve exactly 1000 packets; both remain backlogged throughout *)
      let now = ref 0. in
      for _ = 1 to 1000 do
        match Hfsc.dequeue t ~now:!now with
        | Some (p, _, _) ->
            now := !now +. (float_of_int p.Pkt.Packet.size /. link)
        | None -> ()
      done;
      let share = Hfsc.total_bytes a /. (Hfsc.total_bytes a +. Hfsc.total_bytes b) in
      Float.abs (share -. (w1 /. total_w)) < 0.01)

(* Non-punishment, randomized: however long A monopolized the idle
   link, it gets its full fair share immediately once B wakes. *)
let non_punishment =
  qt ~count:25 "random idle-use period: no punishment on contention"
    QCheck2.Gen.(pair (float_range 0.2 3.) (float_range 0.2 0.8))
    (fun (alone_time, w1) ->
      let link = 1e6 in
      let t = Hfsc.create ~link_rate:link () in
      let a =
        Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"a"
          ~fsc:(Sc.linear (w1 *. link)) ~qlimit:100_000 ()
      in
      let b =
        Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"b"
          ~fsc:(Sc.linear ((1. -. w1) *. link))
          ~qlimit:100_000 ()
      in
      (* A alone, greedy, at full link speed *)
      let now = ref 0. in
      let seq = ref 0 in
      while !now < alone_time do
        if Hfsc.queue_length a = 0 then begin
          ignore
            (Hfsc.enqueue t ~now:!now a
               (Pkt.Packet.make ~flow:1 ~size:1000 ~seq:!seq ~arrival:!now));
          incr seq
        end;
        (match Hfsc.dequeue t ~now:!now with
        | Some (p, _, _) ->
            now := !now +. (float_of_int p.Pkt.Packet.size /. link)
        | None -> ());
      done;
      (* both greedy from now; measure A's share over the next 0.5 s *)
      for i = 0 to 999 do
        ignore
          (Hfsc.enqueue t ~now:!now a
             (Pkt.Packet.make ~flow:1 ~size:1000 ~seq:(!seq + i) ~arrival:!now));
        ignore
          (Hfsc.enqueue t ~now:!now b
             (Pkt.Packet.make ~flow:2 ~size:1000 ~seq:i ~arrival:!now))
      done;
      let a0 = Hfsc.total_bytes a in
      let stop = !now +. 0.5 in
      while !now < stop do
        match Hfsc.dequeue t ~now:!now with
        | Some (p, _, _) ->
            now := !now +. (float_of_int p.Pkt.Packet.size /. link)
        | None -> now := stop
      done;
      let got = Hfsc.total_bytes a -. a0 in
      let fair = w1 *. link *. 0.5 in
      got >= 0.95 *. fair)

(* Section IV-C closes with: for linear curves, H-FSC's virtual time is
   exactly the PFQ virtual time. Check the observable consequence: a
   flat, linear-curve H-FSC and WF2Q+ with the same rates give every
   flow the same cumulative service to within a couple of packets at
   every prefix of the schedule. *)
let linear_equiv_wf2q =
  qt ~count:20 "flat linear H-FSC tracks WF2Q+ service within 2 pkts"
    QCheck2.Gen.(
      list_size (int_range 2 5) (float_range 0.1 1.))
    (fun weights ->
      let link = 1e6 in
      let total = List.fold_left ( +. ) 0. weights in
      let rates = List.map (fun w -> w /. total *. link) weights in
      let n = List.length rates in
      (* H-FSC *)
      let t = Hfsc.create ~link_rate:link () in
      let clss =
        List.mapi
          (fun i r ->
            Hfsc.add_class t ~parent:(Hfsc.root t)
              ~name:(string_of_int (i + 1))
              ~fsc:(Sc.linear r) ~qlimit:10_000 ())
          rates
      in
      ignore clss;
      (* WF2Q+ *)
      let w =
        Sched.Wf2q.create ~link_rate:link
          ~rates:(List.mapi (fun i r -> (i + 1, r)) rates)
          ()
      in
      for i = 0 to 299 do
        for f = 1 to n do
          let p = Pkt.Packet.make ~flow:f ~size:1000 ~seq:i ~arrival:0. in
          ignore
            (Hfsc.enqueue t ~now:0. (List.nth clss (f - 1)) p);
          ignore (w.Sched.Scheduler.enqueue ~now:0. p)
        done
      done;
      let h_served = Array.make (n + 1) 0 in
      let w_served = Array.make (n + 1) 0 in
      let now = ref 0. in
      let ok = ref true in
      for _ = 1 to 300 * n do
        (match Hfsc.dequeue t ~now:!now with
        | Some (p, _, _) ->
            h_served.(p.Pkt.Packet.flow) <-
              h_served.(p.Pkt.Packet.flow) + p.Pkt.Packet.size
        | None -> ());
        (match w.Sched.Scheduler.dequeue ~now:!now with
        | Some sv ->
            let p = sv.Sched.Scheduler.pkt in
            w_served.(p.Pkt.Packet.flow) <-
              w_served.(p.Pkt.Packet.flow) + p.Pkt.Packet.size
        | None -> ());
        now := !now +. (1000. /. link);
        for f = 1 to n do
          if abs (h_served.(f) - w_served.(f)) > 2500 then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "hfsc-random"
    [
      ("stress", [ stress; determinism ]);
      ("fairness", [ proportional_share; non_punishment; linear_equiv_wf2q ]);
    ]
