(* Tests for the simulator substrate (lib/netsim): event queue ordering
   on both backends, source timing/statistics, measurement instruments,
   and the engine's delay accounting and non-work-conserving polling. *)

let qt ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- event queue ------------------------------------------------------ *)

let eq_ordering backend =
  qt
    (Printf.sprintf "event_queue(%s): pops in (time, insertion) order"
       (match backend with Netsim.Event_queue.Heap -> "heap" | Calendar -> "calendar"))
    QCheck2.Gen.(list (float_bound_inclusive 100.))
    (fun times ->
      let q = Netsim.Event_queue.create ~backend () in
      List.iteri (fun i ts -> Netsim.Event_queue.add q ts i) times;
      let rec drain acc =
        match Netsim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (ts, i) -> drain ((ts, i) :: acc)
      in
      let got = drain [] in
      let want =
        List.mapi (fun i ts -> (ts, i)) times
        |> List.sort (fun (t1, i1) (t2, i2) ->
               let c = Float.compare t1 t2 in
               if c <> 0 then c else Int.compare i1 i2)
      in
      got = want)

let test_eq_peek () =
  let q = Netsim.Event_queue.create () in
  Alcotest.(check bool) "empty" true (Netsim.Event_queue.is_empty q);
  Netsim.Event_queue.add q 2.0 "b";
  Netsim.Event_queue.add q 1.0 "a";
  (match Netsim.Event_queue.peek q with
  | Some (ts, v) ->
      Alcotest.(check (float 0.)) "peek time" 1.0 ts;
      Alcotest.(check string) "peek value" "a" v
  | None -> Alcotest.fail "expected");
  Alcotest.(check int) "peek keeps" 2 (Netsim.Event_queue.length q)

(* --- sources ----------------------------------------------------------- *)

let collect src n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match Netsim.Source.next src with
      | None -> List.rev acc
      | Some (t, sz) -> go ((t, sz) :: acc) (k - 1)
  in
  go [] n

let test_cbr_timing () =
  let src = Netsim.Source.cbr ~flow:1 ~rate:1000. ~pkt_size:100 ~start:0.5 () in
  let xs = collect src 5 in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "exact spacing"
    [ (0.5, 100); (0.6, 100); (0.7, 100); (0.8, 100); (0.9, 100) ]
    xs

let test_cbr_stop () =
  let src = Netsim.Source.cbr ~flow:1 ~rate:1000. ~pkt_size:100 ~stop:0.35 () in
  Alcotest.(check int) "4 packets before stop" 4 (List.length (collect src 100))

let test_poisson_mean () =
  let src =
    Netsim.Source.poisson ~flow:1 ~rate:10_000. ~pkt_size:100 ~seed:42 ()
  in
  let xs = collect src 20_000 in
  let last_t, _ = List.nth xs (List.length xs - 1) in
  (* 10_000 B/s at 100 B = 100 pkt/s: 20_000 pkts in ~200 s *)
  let measured_rate = 20_000. /. last_t in
  Alcotest.(check bool)
    (Printf.sprintf "mean rate %.1f ~ 100 pkt/s" measured_rate)
    true
    (Float.abs (measured_rate -. 100.) < 3.)

let test_poisson_deterministic_seed () =
  let mk () = Netsim.Source.poisson ~flow:1 ~rate:1000. ~pkt_size:50 ~seed:7 () in
  Alcotest.(check bool) "same seed, same stream" true
    (collect (mk ()) 100 = collect (mk ()) 100)

let test_on_off_duty_cycle () =
  let src =
    Netsim.Source.on_off_exp ~flow:1 ~peak_rate:100_000. ~pkt_size:100
      ~mean_on:0.1 ~mean_off:0.1 ~seed:3 ()
  in
  let xs = collect src 50_000 in
  let last_t, _ = List.nth xs (List.length xs - 1) in
  let bytes = 100. *. 50_000. in
  (* 50% duty cycle: average rate ~ half the peak *)
  let avg = bytes /. last_t in
  Alcotest.(check bool)
    (Printf.sprintf "avg %.0f ~ 50000" avg)
    true
    (Float.abs (avg -. 50_000.) < 5_000.)

let test_pareto_on_off_runs () =
  let src =
    Netsim.Source.on_off_pareto ~flow:1 ~peak_rate:100_000. ~pkt_size:100
      ~mean_on:0.05 ~mean_off:0.05 ~shape:1.5 ~seed:9 ()
  in
  let xs = collect src 10_000 in
  Alcotest.(check int) "produces packets" 10_000 (List.length xs);
  (* times nondecreasing *)
  let rec mono = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone times" true (mono xs)

let test_burst_source () =
  let src = Netsim.Source.burst ~flow:1 ~pkt_size:100 ~count:5 ~at:2.5 in
  let xs = collect src 100 in
  Alcotest.(check int) "count" 5 (List.length xs);
  Alcotest.(check bool) "all at 2.5" true (List.for_all (fun (t, _) -> t = 2.5) xs)

let test_script_source () =
  let src = Netsim.Source.script ~flow:1 [ (0.1, 10); (0.2, 20) ] in
  Alcotest.(check (list (pair (float 0.) int)))
    "script replay"
    [ (0.1, 10); (0.2, 20) ]
    (collect src 10);
  Alcotest.(check bool) "unsorted rejected" true
    (try
       ignore (Netsim.Source.script ~flow:1 [ (0.2, 10); (0.1, 10) ]);
       false
     with Invalid_argument _ -> true)

let test_shaped_conforms () =
  (* a greedy source shaped to (sigma, rho) must obey the token-bucket
     envelope: arrivals in any window [0, t] <= sigma + rho t *)
  let inner = Netsim.Source.burst ~flow:1 ~pkt_size:100 ~count:200 ~at:0. in
  let src = Netsim.Source.shaped ~sigma:300. ~rho:1000. inner in
  let xs = collect src 200 in
  Alcotest.(check int) "nothing dropped" 200 (List.length xs);
  let cum = ref 0 in
  List.iter
    (fun (t, sz) ->
      cum := !cum + sz;
      Alcotest.(check bool)
        (Printf.sprintf "conforms at %.3f" t)
        true
        (float_of_int !cum <= 300. +. (1000. *. t) +. 1e-6))
    xs;
  (* and the shaper is work-conserving: the last packet leaves as soon
     as tokens allow: (200*100 - 300)/1000 = 19.7s *)
  let last_t, _ = List.nth xs 199 in
  Alcotest.(check (float 1e-6)) "tight" 19.7 last_t

let test_shaped_transparent_when_conforming () =
  (* a CBR slower than rho with sigma >= pkt is untouched *)
  let mk () = Netsim.Source.cbr ~flow:1 ~rate:500. ~pkt_size:100 ~stop:2. () in
  let plain = collect (mk ()) 100 in
  let shaped = collect (Netsim.Source.shaped ~sigma:100. ~rho:1000. (mk ())) 100 in
  Alcotest.(check bool) "identical" true (plain = shaped)

let test_shaped_validation () =
  let inner = Netsim.Source.burst ~flow:1 ~pkt_size:100 ~count:1 ~at:0. in
  Alcotest.(check bool) "bad rho" true
    (try
       ignore (Netsim.Source.shaped ~sigma:100. ~rho:0. inner);
       false
     with Invalid_argument _ -> true);
  let small = Netsim.Source.shaped ~sigma:50. ~rho:100. inner in
  Alcotest.(check bool) "packet bigger than bucket" true
    (try
       ignore (Netsim.Source.next small);
       false
     with Invalid_argument _ -> true)

let test_adaptive_source () =
  let src, feedback =
    Netsim.Source.adaptive ~flow:1 ~pkt_size:100 ~init_rate:1000.
      ~min_rate:100. ~max_rate:10_000. ~increase:500. ~delay_target:0.01 ()
  in
  (* initial gap = pkt/init_rate *)
  let t0 = match Netsim.Source.next src with Some (t, _) -> t | None -> 0. in
  let t1 = match Netsim.Source.next src with Some (t, _) -> t | None -> 0. in
  Alcotest.(check (float 1e-9)) "initial interval" 0.1 (t1 -. t0);
  (* good-delay feedback speeds it up *)
  feedback ~delay:0.001;
  feedback ~delay:0.001;
  let t2 = match Netsim.Source.next src with Some (t, _) -> t | None -> 0. in
  Alcotest.(check (float 1e-9)) "faster" (100. /. 2000.) (t2 -. t1);
  (* congestion halves *)
  feedback ~delay:1.0;
  let t3 = match Netsim.Source.next src with Some (t, _) -> t | None -> 0. in
  Alcotest.(check (float 1e-9)) "halved" (100. /. 1000.) (t3 -. t2);
  (* floors at min_rate *)
  for _ = 1 to 20 do feedback ~delay:1.0 done;
  let t4 = match Netsim.Source.next src with Some (t, _) -> t | None -> 0. in
  Alcotest.(check (float 1e-9)) "floored" 1.0 (t4 -. t3);
  (* validation *)
  Alcotest.(check bool) "bad rates" true
    (try
       ignore
         (Netsim.Source.adaptive ~flow:1 ~pkt_size:10 ~init_rate:1.
            ~min_rate:10. ~max_rate:100. ());
       false
     with Invalid_argument _ -> true)

(* --- recorder ------------------------------------------------------------ *)

let test_recorder () =
  let sched = Sched.Fifo.create () in
  let sim = Netsim.Sim.create ~link_rate:1000. ~sched () in
  let rec_ = Netsim.Recorder.create () in
  Netsim.Recorder.attach rec_ sim;
  Netsim.Sim.add_source sim
    (Netsim.Source.script ~flow:7 [ (0., 100); (0., 50) ]);
  Netsim.Sim.run_until_idle sim ~max_time:10.;
  Alcotest.(check int) "two records" 2 (Netsim.Recorder.length rec_);
  (match Netsim.Recorder.records rec_ with
  | [ r1; r2 ] ->
      Alcotest.(check int) "flow" 7 r1.Netsim.Recorder.flow;
      Alcotest.(check (float 1e-9)) "t1" 0.1 r1.Netsim.Recorder.time;
      Alcotest.(check (float 1e-9)) "delay2" 0.15 r2.Netsim.Recorder.delay
  | _ -> Alcotest.fail "expected 2");
  Alcotest.(check int) "filter" 1
    (List.length
       (Netsim.Recorder.filter rec_ (fun r -> r.Netsim.Recorder.size = 50)));
  (* CSV round trip through a buffer file *)
  let path = Filename.temp_file "hfsc_trace" ".csv" in
  (match Netsim.Recorder.save_csv rec_ path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let ic = open_in path in
  let header = input_line ic in
  let row1 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "time,flow,seq,size,class,criterion,delay"
    header;
  Alcotest.(check bool) "row has flow 7" true
    (String.length row1 > 0 && String.contains row1 '7')

let test_trace_replay_roundtrip () =
  (* capture a run, save, load, replay: the replayed source reproduces
     the original arrival process exactly *)
  let sched = Sched.Fifo.create () in
  let sim = Netsim.Sim.create ~link_rate:10_000. ~sched () in
  let rec_ = Netsim.Recorder.create () in
  Netsim.Recorder.attach rec_ sim;
  Netsim.Sim.add_source sim
    (Netsim.Source.poisson ~flow:3 ~rate:5_000. ~pkt_size:200 ~seed:11
       ~stop:2. ());
  Netsim.Sim.run_until_idle sim ~max_time:30.;
  let path = Filename.temp_file "hfsc_replay" ".csv" in
  (match Netsim.Recorder.save_csv rec_ path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let records =
    match Netsim.Recorder.load_csv path with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  Alcotest.(check int) "all records loaded" (Netsim.Recorder.length rec_)
    (List.length records);
  let replay = Netsim.Recorder.replay_source ~flow:3 records in
  let original =
    collect
      (Netsim.Source.poisson ~flow:3 ~rate:5_000. ~pkt_size:200 ~seed:11
         ~stop:2. ())
      100_000
  in
  let replayed = collect replay 100_000 in
  Alcotest.(check int) "same count" (List.length original)
    (List.length replayed);
  List.iter2
    (fun (t1, s1) (t2, s2) ->
      Alcotest.(check int) "size" s1 s2;
      Alcotest.(check bool) "time within csv precision" true
        (Float.abs (t1 -. t2) < 1e-8))
    original replayed

let test_load_csv_errors () =
  let path = Filename.temp_file "hfsc_bad" ".csv" in
  let write s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write "nonsense\n";
  (match Netsim.Recorder.load_csv path with
  | Error e -> Alcotest.(check string) "header" "unrecognized header" e
  | Ok _ -> Alcotest.fail "expected error");
  write "time,flow,seq,size,class,criterion,delay\n1,2,3\n";
  (match Netsim.Recorder.load_csv path with
  | Error e ->
      Alcotest.(check bool) "column error mentions line" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected error");
  Sys.remove path

(* --- stats -------------------------------------------------------------- *)

let test_delay_stats () =
  let d = Netsim.Stats.Delay.create () in
  List.iter (Netsim.Stats.Delay.add d) [ 3.; 1.; 4.; 1.; 5. ];
  Alcotest.(check int) "count" 5 (Netsim.Stats.Delay.count d);
  Alcotest.(check (float 1e-9)) "mean" 2.8 (Netsim.Stats.Delay.mean d);
  Alcotest.(check (float 0.)) "max" 5. (Netsim.Stats.Delay.max d);
  Alcotest.(check (float 0.)) "min" 1. (Netsim.Stats.Delay.min d);
  Alcotest.(check (float 0.)) "p50" 3. (Netsim.Stats.Delay.percentile d 0.5);
  Alcotest.(check (float 0.)) "p100" 5. (Netsim.Stats.Delay.percentile d 1.0);
  Alcotest.(check (float 0.)) "p0" 1. (Netsim.Stats.Delay.percentile d 0.0);
  Alcotest.(check int) "samples" 5 (Array.length (Netsim.Stats.Delay.samples d))

let delay_percentile_prop =
  qt "delay percentile matches sorted rank"
    QCheck2.Gen.(list_size (int_range 1 100) (float_bound_inclusive 10.))
    (fun xs ->
      let d = Netsim.Stats.Delay.create () in
      List.iter (Netsim.Stats.Delay.add d) xs;
      let sorted = List.sort Float.compare xs in
      Netsim.Stats.Delay.percentile d 0.0 = List.hd sorted
      && Netsim.Stats.Delay.percentile d 1.0 = List.nth sorted (List.length sorted - 1))

let test_throughput_bins () =
  let t = Netsim.Stats.Throughput.create ~bin:1.0 () in
  Netsim.Stats.Throughput.add t ~cls:"a" ~now:0.5 1000;
  Netsim.Stats.Throughput.add t ~cls:"a" ~now:0.9 500;
  Netsim.Stats.Throughput.add t ~cls:"a" ~now:2.5 300;
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "series with gap"
    [ (0., 1500.); (1., 0.); (2., 300.) ]
    (Netsim.Stats.Throughput.series t ~cls:"a");
  Alcotest.(check (list string)) "classes" [ "a" ]
    (Netsim.Stats.Throughput.classes t);
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "unknown class" []
    (Netsim.Stats.Throughput.series t ~cls:"zzz")

(* --- engine -------------------------------------------------------------- *)

let test_sim_delay_accounting () =
  (* two back-to-back packets through FIFO at 1000 B/s: delays are
     exactly tx and tx + queueing *)
  let sched = Sched.Fifo.create () in
  let sim = Netsim.Sim.create ~link_rate:1000. ~sched () in
  Netsim.Sim.add_source sim
    (Netsim.Source.script ~flow:1 [ (0., 100); (0., 100) ]);
  Netsim.Sim.run sim ~until:10.;
  match Netsim.Sim.delay_of_flow sim 1 with
  | Some d ->
      let s = Netsim.Stats.Delay.samples d in
      Alcotest.(check int) "two packets" 2 (Array.length s);
      Alcotest.(check (float 1e-9)) "first = tx" 0.1 s.(0);
      Alcotest.(check (float 1e-9)) "second = wait + tx" 0.2 s.(1);
      Alcotest.(check (float 1e-9)) "tx bytes" 200.
        (Netsim.Sim.transmitted_bytes sim)
  | None -> Alcotest.fail "no delays"

let test_sim_utilization () =
  let sched = Sched.Fifo.create () in
  let sim = Netsim.Sim.create ~link_rate:1000. ~sched () in
  (* 500 bytes = 0.5s of transmission within 1s of sim time *)
  Netsim.Sim.add_source sim (Netsim.Source.script ~flow:1 [ (0., 500) ]);
  Netsim.Sim.run sim ~until:1.0;
  Alcotest.(check (float 1e-9)) "50% busy" 0.5 (Netsim.Sim.utilization sim)

let test_sim_multi_link () =
  (* two independent wires behind one event queue: per-flow routing,
     per-link accounting, and per-link fault targeting *)
  let fast = Sched.Fifo.create () and slow = Sched.Fifo.create () in
  let route p =
    match p.Pkt.Packet.flow with 1 -> Some 0 | 2 -> Some 1 | _ -> None
  in
  let sim =
    Netsim.Sim.create_multi
      ~links:[ ("fast", 1000., fast); ("slow", 100., slow) ]
      ~route ()
  in
  Alcotest.(check int) "two links" 2 (Netsim.Sim.n_links sim);
  Alcotest.(check (option int)) "index by name" (Some 1)
    (Netsim.Sim.link_index sim "slow");
  Alcotest.(check string) "name by index" "fast" (Netsim.Sim.link_name sim 0);
  Netsim.Sim.add_source sim (Netsim.Source.script ~flow:1 [ (0., 500) ]);
  Netsim.Sim.add_source sim (Netsim.Source.script ~flow:2 [ (0., 50) ]);
  (* flow 9 routes nowhere: counted as an enqueue drop *)
  Netsim.Sim.add_source sim (Netsim.Source.script ~flow:9 [ (0., 10) ]);
  Netsim.Sim.run sim ~until:1.0;
  Alcotest.(check (float 1e-9)) "fast link bytes" 500.
    (Netsim.Sim.link_transmitted_bytes sim 0);
  Alcotest.(check (float 1e-9)) "slow link bytes" 50.
    (Netsim.Sim.link_transmitted_bytes sim 1);
  Alcotest.(check (float 1e-9)) "device total" 550.
    (Netsim.Sim.transmitted_bytes sim);
  (* both wires were busy exactly half the second *)
  Alcotest.(check (float 1e-9)) "fast utilization" 0.5
    (Netsim.Sim.link_utilization sim 0);
  Alcotest.(check (float 1e-9)) "slow utilization" 0.5
    (Netsim.Sim.link_utilization sim 1);
  Alcotest.(check int) "unroutable dropped" 1 (Netsim.Sim.enqueue_drops sim);
  (* faulting one link leaves the other's wire state alone *)
  Netsim.Sim.set_link_rate ~link:1 sim 25.;
  Alcotest.(check (float 1e-9)) "slow reconfigured" 25.
    (Netsim.Sim.link_rate ~link:1 sim);
  Alcotest.(check (float 1e-9)) "fast untouched" 1000.
    (Netsim.Sim.link_rate ~link:0 sim);
  Netsim.Sim.set_link_up ~link:0 sim false;
  Alcotest.(check bool) "fast down" false (Netsim.Sim.link_up ~link:0 sim);
  Alcotest.(check bool) "slow still up" true (Netsim.Sim.link_up ~link:1 sim)

let test_sim_drops_counted () =
  let sched = Sched.Fifo.create ~qlimit:2 () in
  let sim = Netsim.Sim.create ~link_rate:1. ~sched () in
  Netsim.Sim.add_source sim (Netsim.Source.burst ~flow:1 ~pkt_size:10 ~count:5 ~at:0.) ;
  Netsim.Sim.run sim ~until:0.001;
  (* first packet starts transmitting, 2 queued, 2 dropped *)
  Alcotest.(check int) "drops" 2 (Netsim.Sim.enqueue_drops sim)

let test_sim_run_until_idle () =
  let sched = Sched.Fifo.create () in
  let sim = Netsim.Sim.create ~link_rate:1000. ~sched () in
  Netsim.Sim.add_source sim
    (Netsim.Source.script ~flow:1 [ (0., 100); (5., 100) ]);
  Netsim.Sim.run_until_idle sim ~max_time:100.;
  Alcotest.(check (float 1e-9)) "ends at last departure" 5.1
    (Netsim.Sim.now sim);
  Alcotest.(check (float 1e-9)) "all transmitted" 200.
    (Netsim.Sim.transmitted_bytes sim)

let test_sim_nonworkconserving_poll () =
  (* H-FSC with an upper limit through the simulator: the poll path
     must resume transmission at the fit time; throughput pins to the
     cap even though the link is otherwise idle *)
  let link = 1e6 in
  let t = Hfsc.create ~link_rate:link () in
  let c =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"capped"
      ~fsc:(Curve.Service_curve.linear 1e5)
      ~usc:(Curve.Service_curve.linear 1e5) ()
  in
  ignore c;
  let sched =
    Runtime.Engine.adapter
      (Runtime.Engine.create ~link_rate:link t ~flow_map:[ (1, c) ] ())
  in
  let sim = Netsim.Sim.create ~link_rate:link ~sched () in
  Netsim.Sim.add_source sim
    (Netsim.Source.burst ~flow:1 ~pkt_size:1000 ~count:300 ~at:0.);
  Netsim.Sim.run_until_idle sim ~max_time:60.;
  (* 300 kB at a 100 kB/s cap: ~3 s *)
  Alcotest.(check bool)
    (Printf.sprintf "finished at %.3f ~ 3s" (Netsim.Sim.now sim))
    true
    (Float.abs (Netsim.Sim.now sim -. 3.) < 0.1);
  Alcotest.(check (float 1e-9)) "all bytes out" 300_000.
    (Netsim.Sim.transmitted_bytes sim)

let test_sim_event_backends_agree () =
  let run backend =
    let sched = Sched.Fifo.create () in
    let sim =
      Netsim.Sim.create ~event_backend:backend ~link_rate:1e5 ~sched ()
    in
    Netsim.Sim.add_source sim
      (Netsim.Source.poisson ~flow:1 ~rate:5e4 ~pkt_size:500 ~seed:5 ~stop:5. ());
    Netsim.Sim.add_source sim
      (Netsim.Source.cbr ~flow:2 ~rate:3e4 ~pkt_size:300 ~stop:5. ());
    Netsim.Sim.run_until_idle sim ~max_time:20.;
    ( Netsim.Sim.transmitted_bytes sim,
      Netsim.Sim.now sim,
      match Netsim.Sim.delay_of_flow sim 1 with
      | Some d -> Netsim.Stats.Delay.mean d
      | None -> 0. )
  in
  let h = run Netsim.Event_queue.Heap in
  let c = run Netsim.Event_queue.Calendar in
  let b1, n1, m1 = h and b2, n2, m2 = c in
  Alcotest.(check (float 1e-9)) "bytes equal" b1 b2;
  Alcotest.(check (float 1e-9)) "end time equal" n1 n2;
  Alcotest.(check (float 1e-9)) "mean delay equal" m1 m2

(* --- faults --------------------------------------------------------------- *)

let test_faults_rate_flap () =
  (* 1000 B/s link; rate drops to 100 B/s at t=0.5. The packet already
     gone is unaffected; the one arriving at t=1 transmits at the
     degraded rate. *)
  let sched = Sched.Fifo.create () in
  let sim = Netsim.Sim.create ~link_rate:1000. ~sched () in
  Netsim.Sim.add_source sim
    (Netsim.Source.script ~flow:1 [ (0., 100); (1., 100) ]);
  Netsim.Faults.schedule sim [ (0.5, Netsim.Faults.Set_rate 100.) ];
  Netsim.Sim.run_until_idle sim ~max_time:10.;
  Alcotest.(check (float 1e-9)) "rate applied" 100. (Netsim.Sim.link_rate sim);
  (match Netsim.Sim.delay_of_flow sim 1 with
  | Some d ->
      let s = Netsim.Stats.Delay.samples d in
      Alcotest.(check (float 1e-9)) "pre-flap tx at 1000 B/s" 0.1 s.(0);
      Alcotest.(check (float 1e-9)) "post-flap tx at 100 B/s" 1.0 s.(1)
  | None -> Alcotest.fail "no delays");
  Alcotest.(check (float 1e-9)) "ends at slow departure" 2.0
    (Netsim.Sim.now sim)

let test_faults_outage () =
  (* link down over [0.5, 1.5): a packet arriving mid-outage waits for
     the up edge, then transmits normally *)
  let sched = Sched.Fifo.create () in
  let sim = Netsim.Sim.create ~link_rate:1000. ~sched () in
  Netsim.Sim.add_source sim (Netsim.Source.script ~flow:1 [ (1., 100) ]);
  Netsim.Faults.schedule sim [ (0.5, Netsim.Faults.Outage 1.0) ];
  let seen_down = ref true in
  Netsim.Sim.at sim 1.2 (fun ~now:_ -> seen_down := Netsim.Sim.link_up sim);
  Netsim.Sim.run_until_idle sim ~max_time:10.;
  Alcotest.(check bool) "down mid-outage" false !seen_down;
  Alcotest.(check bool) "up after" true (Netsim.Sim.link_up sim);
  match Netsim.Sim.delay_of_flow sim 1 with
  | Some d ->
      Alcotest.(check (float 1e-9)) "waited for the up edge" 0.6
        (Netsim.Stats.Delay.samples d).(0)
  | None -> Alcotest.fail "packet never departed"

let test_faults_burst_and_commands () =
  (* Burst events become ordinary sources; Command events reach the
     callback with their scheduled time, and are dropped silently when
     no callback is given *)
  let sched = Sched.Fifo.create () in
  let sim = Netsim.Sim.create ~link_rate:1e6 ~sched () in
  let timeline =
    [
      (0.1, Netsim.Faults.Burst { flow = 7; pkt_size = 500; count = 4 });
      (0.2, Netsim.Faults.Command "limit pkts 0");
      (0.3, Netsim.Faults.Command "frobnicate the scheduler");
    ]
  in
  let got = ref [] in
  Netsim.Faults.schedule sim timeline ~on_command:(fun ~now line ->
      got := (now, line) :: !got);
  (* the same timeline without a callback must not raise *)
  let sim2 = Netsim.Sim.create ~link_rate:1e6 ~sched:(Sched.Fifo.create ()) () in
  Netsim.Faults.schedule sim2 timeline;
  Netsim.Sim.run_until_idle sim ~max_time:10.;
  Netsim.Sim.run_until_idle sim2 ~max_time:10.;
  Alcotest.(check (float 1e-9)) "burst transmitted" 2000.
    (Netsim.Sim.transmitted_bytes sim);
  Alcotest.(check (list (pair (float 1e-9) string)))
    "commands dispatched in order"
    [ (0.2, "limit pkts 0"); (0.3, "frobnicate the scheduler") ]
    (List.rev !got)

let test_faults_random_timeline_deterministic () =
  let mk seed =
    Netsim.Faults.random_timeline ~seed ~horizon:10. ~link_rate:1e6
      ~flows:[ 1; 2 ]
  in
  Alcotest.(check bool) "same seed, same timeline" true (mk 3 = mk 3);
  Alcotest.(check bool) "different seeds differ" true (mk 3 <> mk 4);
  let tl = mk 3 in
  Alcotest.(check bool) "non-trivial" true (List.length tl >= 4);
  Alcotest.(check bool) "time-sorted" true
    (List.for_all2
       (fun (a, _) (b, _) -> a <= b)
       (List.filteri (fun i _ -> i < List.length tl - 1) tl)
       (List.tl tl));
  (* a random timeline is schedulable as-is, commands included *)
  let sim = Netsim.Sim.create ~link_rate:1e6 ~sched:(Sched.Fifo.create ()) () in
  Netsim.Faults.schedule sim tl;
  Netsim.Sim.run_until_idle sim ~max_time:20.;
  Alcotest.(check bool) "link back up at the end" true
    (Netsim.Sim.link_up sim);
  Alcotest.(check bool) "validates horizon" true
    (try
       ignore
         (Netsim.Faults.random_timeline ~seed:0 ~horizon:0. ~link_rate:1e6
            ~flows:[]);
       false
     with Invalid_argument _ -> true)

(* --- tandem -------------------------------------------------------------- *)

let test_tandem_passthrough () =
  (* two idle FIFO hops: end-to-end delay = two transmissions *)
  let t =
    Netsim.Tandem.create
      ~hops:[ (1000., Sched.Fifo.create ()); (1000., Sched.Fifo.create ()) ]
      ()
  in
  Netsim.Tandem.add_source t (Netsim.Source.script ~flow:1 [ (0., 100) ]);
  Netsim.Tandem.run_until_idle t ~max_time:10.;
  (match Netsim.Tandem.end_to_end_delay t 1 with
  | Some d ->
      Alcotest.(check (float 1e-9)) "2 x tx" 0.2 (Netsim.Stats.Delay.max d)
  | None -> Alcotest.fail "no delay recorded");
  Alcotest.(check (float 1e-9)) "delivered" 100.
    (Netsim.Tandem.delivered_bytes t)

let test_tandem_cross_traffic_dropped_downstream () =
  (* a flow injected at hop 1 must not traverse hop 2's classifier *)
  let h1 = Sched.Fifo.create () in
  let h2 = Sched.Virtual_clock.create ~rates:[ (1, 1000.) ] () in
  let t = Netsim.Tandem.create ~hops:[ (1000., h1); (1000., h2) ] () in
  Netsim.Tandem.add_source t (Netsim.Source.script ~flow:1 [ (0., 100) ]);
  Netsim.Tandem.add_source t (Netsim.Source.script ~flow:9 [ (0., 100) ]);
  Netsim.Tandem.run_until_idle t ~max_time:10.;
  Alcotest.(check (float 1e-9)) "only flow 1 delivered" 100.
    (Netsim.Tandem.delivered_bytes t);
  Alcotest.(check int) "flow 9 dropped at hop 2" 1 (Netsim.Tandem.drops t)

let test_tandem_hop_injection () =
  let h1 = Sched.Fifo.create () in
  let h2 = Sched.Fifo.create () in
  let t = Netsim.Tandem.create ~hops:[ (1000., h1); (1000., h2) ] () in
  Netsim.Tandem.add_source_at t ~hop:1 (Netsim.Source.script ~flow:2 [ (0., 50) ]);
  Netsim.Tandem.run_until_idle t ~max_time:10.;
  (* injected at the last hop: delivered but not an end-to-end packet *)
  Alcotest.(check (float 1e-9)) "delivered" 50.
    (Netsim.Tandem.delivered_bytes t);
  Alcotest.(check bool) "no e2e stats for it" true
    (Netsim.Tandem.end_to_end_delay t 2 = None);
  Alcotest.(check bool) "out of range rejected" true
    (try
       Netsim.Tandem.add_source_at t ~hop:5
         (Netsim.Source.script ~flow:3 []);
       false
     with Invalid_argument _ -> true)

let test_tandem_queueing_delay () =
  (* congestion at the second hop shows up in end-to-end delay *)
  let t =
    Netsim.Tandem.create
      ~hops:[ (10_000., Sched.Fifo.create ()); (1000., Sched.Fifo.create ()) ]
      ()
  in
  (* 5 packets arrive together; hop 1 is fast, hop 2 serializes them *)
  Netsim.Tandem.add_source t
    (Netsim.Source.burst ~flow:1 ~pkt_size:100 ~count:5 ~at:0.);
  Netsim.Tandem.run_until_idle t ~max_time:10.;
  match Netsim.Tandem.end_to_end_delay t 1 with
  | Some d ->
      Alcotest.(check int) "all five" 5 (Netsim.Stats.Delay.count d);
      (* last packet: 5 x 10ms at hop 1 queueing? hop1 drains at 10x speed;
         bottleneck: 5 x 0.1s at hop 2 + 0.01 first hop *)
      Alcotest.(check bool)
        (Printf.sprintf "max %.3f ~ 0.51" (Netsim.Stats.Delay.max d))
        true
        (Float.abs (Netsim.Stats.Delay.max d -. 0.51) < 0.02)
  | None -> Alcotest.fail "no delays"

let () =
  Alcotest.run "netsim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "peek" `Quick test_eq_peek;
          eq_ordering Netsim.Event_queue.Heap;
          eq_ordering Netsim.Event_queue.Calendar;
        ] );
      ( "sources",
        [
          Alcotest.test_case "cbr timing" `Quick test_cbr_timing;
          Alcotest.test_case "cbr stop" `Quick test_cbr_stop;
          Alcotest.test_case "poisson mean" `Slow test_poisson_mean;
          Alcotest.test_case "poisson seed determinism" `Quick
            test_poisson_deterministic_seed;
          Alcotest.test_case "on-off duty cycle" `Slow test_on_off_duty_cycle;
          Alcotest.test_case "pareto on-off" `Quick test_pareto_on_off_runs;
          Alcotest.test_case "burst" `Quick test_burst_source;
          Alcotest.test_case "script" `Quick test_script_source;
          Alcotest.test_case "shaper conforms" `Quick test_shaped_conforms;
          Alcotest.test_case "shaper transparent" `Quick
            test_shaped_transparent_when_conforming;
          Alcotest.test_case "shaper validation" `Quick
            test_shaped_validation;
          Alcotest.test_case "adaptive source" `Quick test_adaptive_source;
          Alcotest.test_case "recorder + csv" `Quick test_recorder;
          Alcotest.test_case "trace replay roundtrip" `Quick
            test_trace_replay_roundtrip;
          Alcotest.test_case "load_csv errors" `Quick test_load_csv_errors;
        ] );
      ( "stats",
        [
          Alcotest.test_case "delay summary" `Quick test_delay_stats;
          delay_percentile_prop;
          Alcotest.test_case "throughput bins" `Quick test_throughput_bins;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay accounting" `Quick
            test_sim_delay_accounting;
          Alcotest.test_case "utilization" `Quick test_sim_utilization;
          Alcotest.test_case "multi-link" `Quick test_sim_multi_link;
          Alcotest.test_case "drops counted" `Quick test_sim_drops_counted;
          Alcotest.test_case "run_until_idle" `Quick test_sim_run_until_idle;
          Alcotest.test_case "non-work-conserving poll" `Quick
            test_sim_nonworkconserving_poll;
          Alcotest.test_case "event backends agree" `Quick
            test_sim_event_backends_agree;
        ] );
      ( "faults",
        [
          Alcotest.test_case "rate flap" `Quick test_faults_rate_flap;
          Alcotest.test_case "outage" `Quick test_faults_outage;
          Alcotest.test_case "burst + commands" `Quick
            test_faults_burst_and_commands;
          Alcotest.test_case "random timeline deterministic" `Quick
            test_faults_random_timeline_deterministic;
        ] );
      ( "tandem",
        [
          Alcotest.test_case "passthrough" `Quick test_tandem_passthrough;
          Alcotest.test_case "cross traffic dropped downstream" `Quick
            test_tandem_cross_traffic_dropped_downstream;
          Alcotest.test_case "hop injection" `Quick test_tandem_hop_injection;
          Alcotest.test_case "queueing delay" `Quick
            test_tandem_queueing_delay;
        ] );
    ]
