(* Tests for the simulator substrate (lib/netsim): event queue ordering
   and allocation, source streams, measurement instruments, the
   engine's delay accounting and non-work-conserving polling, and the
   golden departure digests that pin the whole schedule. *)

let qt ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- event queue ------------------------------------------------------ *)

module Eq = Netsim.Event_queue

(* The top's time as the simulator reads it: index 0 of the time
   column, [infinity] on an empty queue. *)
let next_time q = if Eq.is_empty q then infinity else Float.Array.get (Eq.times q) 0

(* Every (time, payload) left in [q], each time read just before its
   take. *)
let drain q =
  let rec go acc =
    if Eq.is_empty q then List.rev acc
    else
      let ts = next_time q in
      go ((ts, Eq.take q) :: acc)
  in
  go []

let by_time (t1, _) (t2, _) = Float.compare t1 t2

let eq_ordering =
  qt "event_queue(heap): pops in (time, insertion) order"
    QCheck2.Gen.(list (float_bound_inclusive 100.))
    (fun times ->
      let q = Eq.create () in
      List.iteri (fun i ts -> Eq.add q ts i) times;
      drain q = List.stable_sort by_time (List.mapi (fun i ts -> (ts, i)) times))

(* [Some k] adds at time k/4 — few distinct times, so many ties — or at
   infinity for k = 12; [None] takes. The model is everything added and
   not yet taken, stably sorted by time. *)
let eq_interleaved =
  qt "event_queue: interleaved add/take = stable-sorted model"
    QCheck2.Gen.(list (option (int_range 0 12)))
    (fun ops ->
      let q = Eq.create () and model = ref [] and n = ref 0 in
      (* behind every entry at an equal or earlier time *)
      let rec insert x = function
        | y :: rest when by_time y x <= 0 -> y :: insert x rest
        | l -> x :: l
      in
      List.for_all
        (function
          | Some k ->
              let ts = if k = 12 then infinity else float_of_int k /. 4. in
              Eq.add q ts !n;
              model := insert (ts, !n) !model;
              incr n;
              Eq.length q = List.length !model
          | None -> (
              match !model with
              | [] -> Eq.is_empty q && next_time q = infinity
              | (ts, v) :: rest ->
                  model := rest;
                  let next = next_time q in
                  next = ts && Eq.take q = v))
        ops)

let test_eq_peek () =
  let q = Eq.create () in
  Alcotest.(check bool) "empty" true (Eq.is_empty q);
  Alcotest.(check (float 0.)) "empty reads infinity" infinity (next_time q);
  Eq.add q 2.0 20;
  Eq.add q 1.0 10;
  Alcotest.(check (float 0.)) "next time" 1.0 (next_time q);
  Alcotest.(check int) "reading keeps" 2 (Eq.length q);
  Alcotest.(check int) "take" 10 (Eq.take q);
  Alcotest.(check (float 0.)) "then" 2.0 (next_time q);
  Alcotest.(check int) "take" 20 (Eq.take q);
  Alcotest.check_raises "take on empty"
    (Invalid_argument "Event_queue.take: empty queue") (fun () ->
      ignore (Eq.take q))

let test_eq_rejects_nan () =
  (* a NaN time compares false both ways, so a heap holding one is
     silently misordered (3 nan 1 2 0.5 4 used to drain as
     1 3 0.5 2 4 nan) *)
  let q = Eq.create () in
  List.iteri
    (fun i ts ->
      if Float.is_nan ts then
        Alcotest.check_raises "NaN rejected"
          (Invalid_argument "Event_queue.add: NaN time") (fun () ->
            Eq.add q ts i)
      else Eq.add q ts i)
    [ 3.; Float.nan; 1.; 2.; 0.5; 4. ];
  Alcotest.(check (list (float 0.)))
    "the rest drains in order" [ 0.5; 1.; 2.; 3.; 4. ]
    (List.map fst (drain q))

let test_eq_no_alloc () =
  let q = Eq.create () in
  (* boxed here, once: the loop passes them on without allocating *)
  let times = List.init 100 (fun i -> float_of_int (i * 37 mod 100) /. 10.) in
  let rec cycle = function
    | [] -> ()
    | ts :: rest ->
        Eq.add q ts 1;
        ignore (Eq.take q : int);
        cycle rest
  in
  List.iter (fun ts -> Eq.add q ts 0) times;
  cycle times;
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let base = words ignore in
  let w =
    words (fun () ->
        for _ = 1 to 100 do
          cycle times
        done)
  in
  Alcotest.(check (float 0.)) "10k add/take cycles: 0 minor words" 0. (w -. base);
  Alcotest.(check int) "size held" 100 (Eq.length q)

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

(* The same [n] arrivals through [pull]/[time]/[size]. *)
let pulled src n =
  let rec go acc k =
    if k = 0 || not (Netsim.Source.pull src) then List.rev acc
    else go ((Netsim.Source.time src, Netsim.Source.size src) :: acc) (k - 1)
  in
  go [] n

let test_pull_matches_next () =
  let module S = Netsim.Source in
  let twins =
    [
      ("cbr", fun () -> S.cbr ~flow:1 ~rate:3e4 ~pkt_size:300 ~start:0.1 ~stop:9. ());
      ("poisson", fun () -> S.poisson ~flow:1 ~rate:5e4 ~pkt_size:500 ~seed:5 ~stop:9. ());
      ( "on_off_exp",
        fun () ->
          S.on_off_exp ~flow:1 ~peak_rate:1e5 ~pkt_size:100 ~mean_on:0.05
            ~mean_off:0.05 ~seed:3 () );
      ( "on_off_pareto",
        fun () ->
          S.on_off_pareto ~flow:1 ~peak_rate:1e5 ~pkt_size:100 ~mean_on:0.05
            ~mean_off:0.05 ~shape:1.5 ~seed:9 () );
      ("burst", fun () -> S.burst ~flow:1 ~pkt_size:100 ~count:50 ~at:2.5);
      ("saturating", fun () -> S.saturating ~flow:1 ~rate:1e6 ~pkt_size:1500 ());
      ("script", fun () -> S.script ~flow:1 [ (0.1, 10); (0.1, 30); (0.2, 20) ]);
      ( "adaptive",
        fun () ->
          fst
            (S.adaptive ~flow:1 ~pkt_size:100 ~init_rate:1000. ~min_rate:100.
               ~max_rate:1e4 ~stop:30. ()) );
      ( "shaped",
        fun () ->
          S.shaped ~sigma:2000. ~rho:1e4
            (S.poisson ~flow:1 ~rate:2e4 ~pkt_size:400 ~seed:8 ()) );
    ]
  in
  let bits = List.map (fun (t, sz) -> (Int64.bits_of_float t, sz)) in
  List.iter
    (fun (name, mk) ->
      let want = collect (mk ()) 2000 in
      Alcotest.(check bool) (name ^ ": non-empty") true (want <> []);
      Alcotest.(check (list (pair int64 int)))
        (name ^ ": pull = next") (bits want)
        (bits (pulled (mk ()) 2000)))
    twins;
  let src = S.burst ~flow:1 ~pkt_size:100 ~count:1 ~at:0. in
  Alcotest.(check bool) "one" true (S.pull src);
  Alcotest.(check bool) "exhausted" false (S.pull src);
  Alcotest.(check bool) "stays exhausted" false (S.pull src)

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
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "p = %g refused" p)
        (Invalid_argument "Delay.percentile: p outside [0,1]")
        (fun () -> ignore (Netsim.Stats.Delay.percentile d p)))
    [ -0.1; 1.1; Float.nan ];
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
  (* FIFO names the class after the flow; each packet leaves 1 us or
     less after it arrives *)
  let sim = Netsim.Sim.create ~link_rate:1e9 ~sched:(Sched.Fifo.create ()) () in
  let t = Netsim.Stats.Throughput.attach ~bin:1.0 sim in
  Netsim.Sim.add_source sim
    (Netsim.Source.script ~flow:1 [ (0.5, 1000); (0.9, 500); (2.5, 300) ]);
  Netsim.Sim.run sim ~until:3.;
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "series with gap"
    [ (0., 1500.); (1., 0.); (2., 300.) ]
    (Netsim.Stats.Throughput.series t ~cls:"1");
  Alcotest.(check (list string)) "classes" [ "1" ]
    (Netsim.Stats.Throughput.classes t);
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "unknown class" []
    (Netsim.Stats.Throughput.series t ~cls:"zzz");
  List.iter
    (fun bin ->
      Alcotest.check_raises
        (Printf.sprintf "bin %g refused" bin)
        (Invalid_argument "Throughput.attach: bin must be finite and positive")
        (fun () -> ignore (Netsim.Stats.Throughput.attach ~bin sim)))
    [ 0.; Float.nan; Float.infinity ]

let test_csv_trace () =
  (* the whole file, byte for byte: header, then one row per departure
     as it happens *)
  let sched = Sched.Fifo.create () in
  let sim = Netsim.Sim.create ~link_rate:1000. ~sched () in
  let path = Filename.temp_file "hfsc_trace" ".csv" in
  let oc = open_out_bin path in
  let csv = Netsim.Stats.Csv_trace.attach oc sim in
  Netsim.Sim.add_source sim
    (Netsim.Source.script ~flow:7 [ (0., 100); (0., 50) ]);
  Netsim.Sim.run_until_idle sim ~max_time:10.;
  close_out oc;
  Alcotest.(check int) "two rows" 2 (Netsim.Stats.Csv_trace.rows csv);
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "file"
    "time,flow,seq,size,class,criterion,delay\n\
     0.100000000,7,0,100,7,fifo,0.100000000\n\
     0.150000000,7,1,50,7,fifo,0.150000000\n"
    text

(* --- engine -------------------------------------------------------------- *)

let test_sim_delay_accounting () =
  (* two back-to-back packets through FIFO at 1000 B/s: delays are
     exactly tx and tx + queueing *)
  let sched = Sched.Fifo.create () in
  let sim = Netsim.Sim.create ~link_rate:1000. ~sched () in
  let delays = Netsim.Stats.Flow_delay.attach sim in
  Netsim.Sim.add_source sim
    (Netsim.Source.script ~flow:1 [ (0., 100); (0., 100) ]);
  Netsim.Sim.run sim ~until:10.;
  match Netsim.Stats.Flow_delay.find delays 1 with
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

(* A run that stops mid-packet counts only the part already sent. A
   packet's whole transmit time is charged when it starts, so without
   its unsent remainder taken off, link a read 200% at 1/16 s. Times
   are exact binary fractions (128 B at 1024 B/s is 1/8 s). *)
let test_sim_utilization_mid_packet () =
  let sim =
    Netsim.Sim.create_multi
      ~links:
        [ ("a", 1024., Sched.Fifo.create ()); ("b", 1024., Sched.Fifo.create ()) ]
      ~route:(fun p -> Some (p.Pkt.Packet.flow - 1))
      ()
  in
  Netsim.Sim.add_source sim (Netsim.Source.script ~flow:1 [ (0., 128) ]);
  Netsim.Sim.add_source sim
    (Netsim.Source.script ~flow:2 [ (0., 128); (0.125, 256) ]);
  let check until ~a ~b =
    Netsim.Sim.run sim ~until;
    let at = Printf.sprintf "%s at %g s" in
    Alcotest.(check (float 0.)) (at "link a" until) a
      (Netsim.Sim.link_utilization sim 0);
    Alcotest.(check (float 0.)) (at "link b" until) b
      (Netsim.Sim.link_utilization sim 1);
    Alcotest.(check (float 0.)) (at "mean" until) ((a +. b) /. 2.)
      (Netsim.Sim.utilization sim)
  in
  (* both links mid-packet *)
  check 0.0625 ~a:1. ~b:1.;
  (* a sent its packet in [0, 1/8]; b is 1/8 s into its 256-B packet,
     which ends at 3/8 *)
  check 0.25 ~a:0.5 ~b:1.;
  check 0.5 ~a:0.25 ~b:0.75;
  Alcotest.(check (float 0.)) "bytes: finished packets only" 512.
    (Netsim.Sim.transmitted_bytes sim)

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
  (* the instruments see every link's departures *)
  let delays = Netsim.Stats.Flow_delay.attach sim in
  let tput = Netsim.Stats.Throughput.attach ~bin:1.0 sim in
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
  Alcotest.(check bool) "slow still up" true (Netsim.Sim.link_up ~link:1 sim);
  (* a packet offered straight to a link, as a tandem's next hop is *)
  let pkt = Pkt.Packet.make ~flow:2 ~size:25 ~seq:1 ~arrival:1. in
  Alcotest.(check bool) "offer accepted" true
    (Netsim.Sim.enqueue sim ~link:1 pkt);
  Alcotest.check_raises "offer to no link"
    (Invalid_argument "Sim.enqueue: no link 2") (fun () ->
      ignore (Netsim.Sim.enqueue sim ~link:2 pkt));
  Netsim.Sim.run sim ~until:3.0;
  Alcotest.(check (float 1e-9)) "offer sent at the new rate" 75.
    (Netsim.Sim.link_transmitted_bytes sim 1);
  (* busy 0.5 s for flow 2's first packet, then 1 s at 25 B/s *)
  Alcotest.(check (float 1e-9)) "slow busy half of 3 s" 0.5
    (Netsim.Sim.link_utilization sim 1);
  let samples flow =
    match Netsim.Stats.Flow_delay.find delays flow with
    | Some d -> Array.to_list (Netsim.Stats.Delay.samples d)
    | None -> []
  in
  Alcotest.(check (list (float 1e-9))) "flow 1 delays" [ 0.5 ] (samples 1);
  Alcotest.(check (list (float 1e-9))) "flow 2 delays, offer included"
    [ 0.5; 1.0 ] (samples 2);
  Alcotest.(check (list (float 1e-9))) "flow 9 never departed" [] (samples 9);
  Alcotest.(check (list string)) "classes served" [ "1"; "2" ]
    (Netsim.Stats.Throughput.classes tput);
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "flow 2 bytes per second" [ (0., 50.); (1., 0.); (2., 25.) ]
    (Netsim.Stats.Throughput.series tput ~cls:"2")

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

(* Sources of one flow share its seq counter: whichever source sends,
   the flow's packets carry 0, 1, 2, ... with no gap or repeat, a
   source added mid-run continues the stream, and another flow counts
   on its own. *)
let test_sim_shared_flow_seqs () =
  let sim = Netsim.Sim.create ~link_rate:1e6 ~sched:(Sched.Fifo.create ()) () in
  List.iter (Netsim.Sim.add_source sim)
    [
      Netsim.Source.cbr ~flow:1 ~rate:10_000. ~pkt_size:100 ~stop:1. ();
      Netsim.Source.poisson ~flow:1 ~rate:20_000. ~pkt_size:200 ~seed:4
        ~stop:1. ();
      Netsim.Source.cbr ~flow:2 ~rate:5_000. ~pkt_size:100 ~start:0.003
        ~stop:1. ();
    ];
  Netsim.Sim.at sim 0.5 (fun ~now ->
      Netsim.Sim.add_source sim
        (Netsim.Source.burst ~flow:1 ~pkt_size:50 ~count:20 ~at:now));
  let seqs = Hashtbl.create 2 and sizes = Hashtbl.create 2 in
  let sent flow = Option.value ~default:[] (Hashtbl.find_opt seqs flow) in
  Netsim.Sim.on_departure sim (fun ~now:_ served ->
      let p = served.Sched.Scheduler.pkt in
      let flow = p.Pkt.Packet.flow in
      Hashtbl.replace seqs flow (p.Pkt.Packet.seq :: sent flow);
      Hashtbl.replace sizes (flow, p.Pkt.Packet.size) ());
  Netsim.Sim.run_until_idle sim ~max_time:5.;
  let stream flow = List.sort Int.compare (sent flow) in
  let gap_free name flow =
    let s = stream flow in
    Alcotest.(check (list int)) name (List.init (List.length s) Fun.id) s
  in
  gap_free "flow 1: one stream over three sources" 1;
  gap_free "flow 2: its own stream" 2;
  Alcotest.(check bool) "every flow-1 source sent" true
    (List.for_all (fun sz -> Hashtbl.mem sizes (1, sz)) [ 50; 100; 200 ])

(* Words the simulator itself allocates per arrival and per departure,
   over a one-slot scheduler whose only allocation is a poll's result
   (the served record, its option and the one-element list: 9 words).
   Each packet arrives to an idle link, so it is polled onto the wire
   at once; its completion polls once more and finds nothing. *)
let test_sim_words_per_packet () =
  let words ?(delays = false) ~accept () =
    let held = ref (Pkt.Packet.make ~flow:1 ~size:1 ~seq:0 ~arrival:0.) in
    let full = ref false in
    let sched =
      {
        Sched.Scheduler.name = "slot";
        enqueue =
          (fun ~now:_ p ->
            accept && (not !full)
            && begin
                 held := p;
                 full := true;
                 true
               end);
        dequeue =
          (fun ~now:_ ->
            if !full then begin
              full := false;
              Some { Sched.Scheduler.pkt = !held; cls = "c"; criterion = "x" }
            end
            else None);
        dequeue_many = None;
        next_ready = (fun ~now:_ -> None);
        backlog_pkts = (fun () -> if !full then 1 else 0);
        backlog_bytes = (fun () -> 0);
        deferred_drops = None;
      }
    in
    let sim = Netsim.Sim.create ~link_rate:1e6 ~sched () in
    if delays then ignore (Netsim.Stats.Flow_delay.attach sim);
    Netsim.Sim.add_source sim
      (Netsim.Source.cbr ~flow:1 ~rate:100_000. ~pkt_size:100 ~stop:5. ());
    (* arrivals land on whole milliseconds and take 0.1 ms to send, so
       every window ends with the link idle; the first second grows
       every array past the minor heap *)
    Netsim.Sim.run sim ~until:1.0005;
    (* arrivals so far: each is refused or departs *)
    let arrivals () =
      Netsim.Sim.enqueue_drops sim
      + int_of_float (Netsim.Sim.transmitted_bytes sim /. 100.)
    in
    let words_until until =
      let n0 = arrivals () in
      let w0 = Gc.minor_words () in
      Netsim.Sim.run sim ~until;
      let w = Gc.minor_words () -. w0 in
      (w, arrivals () - n0)
    in
    (* 1000 then 2000 arrivals: the difference cancels what a [run]
       call costs whatever it carries *)
    let w1, n1 = words_until 2.0005 in
    let w2, n2 = words_until 4.0005 in
    (w2 -. w1) /. float_of_int (n2 - n1)
  in
  let arrival = words ~accept:false () in
  let packet = words ~accept:true () in
  let measured = words ~delays:true ~accept:true () in
  (* the packet record (5 words) and two boxed floats: the event clock
     and the next arrival's time *)
  Alcotest.(check (float 0.)) "minor words per arrival" 9. arrival;
  (* one boxed float: the simulator's clock, advanced to the completion
     time (the completion waits in its link, and the loop reads the
     event queue's top time unboxed) *)
  Alcotest.(check (float 0.)) "minor words per departure, past the poll's 9"
    2. (packet -. arrival -. 9.);
  (* the per-flow delay collector inlines its sample into the flow's
     float array: attached, a departure costs no more *)
  Alcotest.(check (float 0.)) "minor words per departure, delays attached"
    2. (measured -. arrival -. 9.)

(* Transmit completions wait in their links, outside the event queue,
   but keep its (time, stamp) order: of two things due at one instant,
   the one stamped first runs first. A completion is stamped when its
   packet starts, an arrival when the previous one is handled, a
   callback when [Sim.at] is called. Times are exact binary fractions
   (128 B at 1024 B/s is 1/8 s), so every tie below is exact. The log
   holds each scheduler call and departure as it happens. *)
let test_sim_tie_order () =
  let log = ref [] in
  let note fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let id (p : Pkt.Packet.t) = Printf.sprintf "%d.%d" p.flow p.seq in
  let logged name =
    let s = Sched.Fifo.create () in
    {
      s with
      Sched.Scheduler.enqueue =
        (fun ~now p ->
          note "%g %s enq %s" now name (id p);
          s.enqueue ~now p);
      dequeue =
        (fun ~now ->
          let r = s.dequeue ~now in
          note "%g %s deq %s" now name
            (match r with Some sv -> id sv.pkt | None -> "-");
          r);
      dequeue_many = None;
    }
  in
  (* links named by index; flow f goes to link [route f] *)
  let run names route setup =
    log := [];
    let sim =
      Netsim.Sim.create_multi
        ~links:(List.map (fun n -> (n, 1024., logged n)) names)
        ~route:(fun p -> Some (route p.Pkt.Packet.flow))
        ()
    in
    Netsim.Sim.on_link_departure sim (fun ~link ~now served ->
        note "%g %s dep %s" now (Netsim.Sim.link_name sim link) (id served.pkt));
    setup sim;
    Netsim.Sim.run sim ~until:1.;
    List.rev !log
  in
  let one_link = run [ "a" ] (fun _ -> 0) in
  Alcotest.(check (list string))
    "an arrival stamped before a completion runs first"
    [
      "0 a enq 1.0";
      "0 a deq 1.0";
      (* 1.1 was stamped while 1.0 arrived, before 1.0 started *)
      "0.125 a enq 1.1";
      "0.125 a dep 1.0";
      "0.125 a deq 1.1";
      "0.25 a dep 1.1";
      "0.25 a deq -";
    ]
    (one_link (fun sim ->
         Netsim.Sim.add_source sim
           (Netsim.Source.script ~flow:1 [ (0., 128); (0.125, 128) ])));
  Alcotest.(check (list string))
    "a completion stamped before a callback and an arrival runs first"
    [
      "0 a enq 1.0";
      "0 a deq 1.0";
      "0.125 a dep 1.0";
      "0.125 a deq -";
      "0.125 cb";
      (* the callback re-polls every link *)
      "0.125 a deq -";
      "0.125 a enq 2.0";
      "0.125 a deq 2.0";
      "0.25 a dep 2.0";
      "0.25 a deq -";
    ]
    (one_link (fun sim ->
         Netsim.Sim.add_source sim (Netsim.Source.script ~flow:1 [ (0., 128) ]);
         Netsim.Sim.run sim ~until:0.0625;
         (* both stamped after 1.0 started *)
         Netsim.Sim.at sim 0.125 (fun ~now -> note "%g cb" now);
         Netsim.Sim.add_source sim
           (Netsim.Source.script ~flow:2 [ (0.125, 128) ])));
  Alcotest.(check (list string))
    "links completing together go in stamp order, not index order"
    [
      "0 c enq 1.0";
      "0 c deq 1.0";
      "0 b enq 2.0";
      "0 b deq 2.0";
      "0 a enq 3.0";
      "0 a deq 3.0";
      "0.125 c dep 1.0";
      "0.125 c deq -";
      "0.125 b dep 2.0";
      "0.125 b deq -";
      "0.125 a dep 3.0";
      "0.125 a deq -";
    ]
    (run [ "a"; "b"; "c" ]
       (fun flow -> 3 - flow)
       (fun sim ->
         List.iter
           (fun flow ->
             Netsim.Sim.add_source sim
               (Netsim.Source.script ~flow [ (0., 128) ]))
           [ 1; 2; 3 ]))

(* A NaN rate would die at the first transmit ("NaN time"), an
   infinite one would send bytes in no time at all *)
let test_sim_rejects_bad_rates () =
  let sched = Sched.Fifo.create () in
  let refused =
    Invalid_argument "Sim.create_multi: link rate must be finite and positive"
  in
  List.iter
    (fun rate ->
      Alcotest.check_raises
        (Printf.sprintf "create at %g" rate)
        refused
        (fun () -> ignore (Netsim.Sim.create ~link_rate:rate ~sched ()));
      Alcotest.check_raises
        (Printf.sprintf "create_multi at %g" rate)
        refused
        (fun () ->
          ignore
            (Netsim.Sim.create_multi
               ~links:[ ("ok", 1000., sched); ("bad", rate, sched) ]
               ~route:(fun _ -> Some 0)
               ())))
    [ Float.nan; Float.infinity; 0.; -1. ]

let test_sim_at_rejects_nan () =
  let fired = ref false in
  let sim = Netsim.Sim.create ~link_rate:1000. ~sched:(Sched.Fifo.create ()) () in
  Alcotest.check_raises "NaN rejected" (Invalid_argument "Sim.at: time is NaN")
    (fun () -> Netsim.Sim.at sim Float.nan (fun ~now:_ -> fired := true));
  Netsim.Sim.at sim 0.5 (fun ~now:_ -> fired := true);
  Netsim.Sim.run sim ~until:1.;
  Alcotest.(check bool) "a valid callback still runs" true !fired

(* --- faults --------------------------------------------------------------- *)

let test_faults_rate_flap () =
  (* 1000 B/s link; rate drops to 100 B/s at t=0.5. The packet already
     gone is unaffected; the one arriving at t=1 transmits at the
     degraded rate. *)
  let sched = Sched.Fifo.create () in
  let sim = Netsim.Sim.create ~link_rate:1000. ~sched () in
  let delays = Netsim.Stats.Flow_delay.attach sim in
  Netsim.Sim.add_source sim
    (Netsim.Source.script ~flow:1 [ (0., 100); (1., 100) ]);
  Netsim.Faults.schedule sim [ (0.5, Netsim.Faults.Set_rate 100.) ];
  Netsim.Sim.run_until_idle sim ~max_time:10.;
  Alcotest.(check (float 1e-9)) "rate applied" 100. (Netsim.Sim.link_rate sim);
  (match Netsim.Stats.Flow_delay.find delays 1 with
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
  let delays = Netsim.Stats.Flow_delay.attach sim in
  Netsim.Sim.add_source sim (Netsim.Source.script ~flow:1 [ (1., 100) ]);
  Netsim.Faults.schedule sim [ (0.5, Netsim.Faults.Outage 1.0) ];
  let seen_down = ref true in
  Netsim.Sim.at sim 1.2 (fun ~now:_ -> seen_down := Netsim.Sim.link_up sim);
  Netsim.Sim.run_until_idle sim ~max_time:10.;
  Alcotest.(check bool) "down mid-outage" false !seen_down;
  Alcotest.(check bool) "up after" true (Netsim.Sim.link_up sim);
  match Netsim.Stats.Flow_delay.find delays 1 with
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
     with Invalid_argument _ -> true);
  (* a flow enters at one hop: a second source of flow 2 may join it at
     hop 1, not enter at hop 0 *)
  Netsim.Tandem.add_source_at t ~hop:1 (Netsim.Source.script ~flow:2 []);
  Alcotest.(check bool) "flow entering at another hop rejected" true
    (try
       Netsim.Tandem.add_source t (Netsim.Source.script ~flow:2 []);
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

(* --- golden departure digests ---------------------------------------------- *)

(* Every departure folded as (flow, seq, bits of the departure time): a
   change to event order, tie-breaking or time arithmetic anywhere in the
   simulator moves the digest. The pinned values are the schedule itself;
   a refactor of the event loop must leave them alone. *)
let mix h v = (h lxor v) * 0x100000001b3
let digest_init = 0x4bf29ce484222325

let fold_departure h ~now (p : Pkt.Packet.t) =
  mix (mix (mix h p.Pkt.Packet.flow) p.Pkt.Packet.seq)
    (Int64.to_int (Int64.bits_of_float now))

(* An H-FSC link through the engine adapter (one packet a poll): a
   real-time leaf, two link-sharing leaves and an upper-limited leaf
   that forces polls. *)
let golden_hfsc ~link_rate =
  let t = Hfsc.create ~link_rate () in
  let root = Hfsc.root t in
  let leaf name ?rsc ?usc ~fsc () =
    Hfsc.add_class t ~parent:root ~name ?rsc ?usc
      ~fsc:(Curve.Service_curve.linear fsc) ~qlimit:40 ()
  in
  let rt =
    leaf "rt"
      ~rsc:(Curve.Service_curve.of_requirements ~umax:500. ~dmax:0.005
              ~rate:100_000.)
      ~fsc:100_000. ()
  in
  let a = leaf "a" ~fsc:300_000. () in
  let b = leaf "b" ~fsc:300_000. () in
  let capped =
    leaf "capped" ~usc:(Curve.Service_curve.linear 60_000.) ~fsc:300_000. ()
  in
  Runtime.Engine.adapter
    (Runtime.Engine.create ~link_rate t
       ~flow_map:[ (1, rt); (2, rt); (3, a); (4, b); (5, capped) ]
       ())

(* A flat round-robin link: one leaf per flow under the root, each with
   its quantum and a [qlimit]-packet queue — [Sched.Hls]'s surplus
   round-robin on a flat hierarchy is deficit round-robin. *)
let golden_rr ~link_rate ~qlimit quanta =
  let s = Sched.Hls.create () in
  let flow_map =
    List.map
      (fun (flow, quantum) ->
        ( flow,
          Sched.Hls.id
            (Sched.Hls.add_class s ~parent:(Sched.Hls.root s)
               ~name:(Printf.sprintf "f%d" flow) ~quantum ~qlimit_pkts:qlimit
               ()) ))
      quanta
  in
  Runtime.Engine.adapter
    (Runtime.Engine.create_backend
       (Runtime.Backend.of_hls ~link_rate s)
       ~flow_map ())

let golden_multi () =
  let rr =
    golden_rr ~link_rate:2e5 ~qlimit:8 [ (6, 500); (7, 900); (8, 300) ]
  in
  let route p =
    match p.Pkt.Packet.flow with
    | 1 | 2 | 3 | 4 | 5 -> Some 0
    | 6 | 7 | 8 -> Some 1
    | _ -> None
  in
  let sim =
    Netsim.Sim.create_multi
      ~links:
        [ ("hfsc", 1e6, golden_hfsc ~link_rate:1e6); ("rr", 2e5, rr) ]
      ~route ()
  in
  let stop = 2.5 in
  List.iter (Netsim.Sim.add_source sim)
    [
      Netsim.Source.cbr ~flow:1 ~rate:80_000. ~pkt_size:400 ~start:0.0013 ~stop ();
      Netsim.Source.shaped ~sigma:2000. ~rho:20_000.
        (Netsim.Source.poisson ~flow:2 ~rate:40_000. ~pkt_size:300 ~seed:21 ~stop ());
      Netsim.Source.poisson ~flow:3 ~rate:450_000. ~pkt_size:700 ~seed:22 ~stop ();
      Netsim.Source.on_off_exp ~flow:4 ~peak_rate:900_000. ~pkt_size:1000
        ~mean_on:0.05 ~mean_off:0.04 ~seed:23 ~stop ();
      Netsim.Source.on_off_pareto ~flow:5 ~peak_rate:400_000. ~pkt_size:600
        ~mean_on:0.03 ~mean_off:0.03 ~shape:1.4 ~seed:24 ~stop ();
      Netsim.Source.poisson ~flow:7 ~rate:150_000. ~pkt_size:900 ~seed:25 ~stop ();
      Netsim.Source.script ~flow:6
        (List.init 60 (fun i -> (0.02 *. float_of_int i, 200 + (37 * i mod 900))));
      Netsim.Source.script ~flow:9 [ (0.1, 100); (0.7, 100) ];
    ];
  Netsim.Faults.schedule ~link:0 sim
    [ (0.8, Netsim.Faults.Outage 0.3); (1.5, Netsim.Faults.Set_rate 8e5) ];
  Netsim.Faults.schedule ~link:1 sim [ (1.0, Netsim.Faults.Set_rate 1.5e5) ];
  (* a mid-run callback that adds traffic: a source registered while the
     simulation is running *)
  Netsim.Sim.at sim 1.2 (fun ~now ->
      Netsim.Sim.add_source sim
        (Netsim.Source.burst ~flow:8 ~pkt_size:250 ~count:12 ~at:now));
  let digest = ref digest_init and n = ref 0 in
  Netsim.Sim.on_departure sim (fun ~now served ->
      incr n;
      digest := fold_departure !digest ~now served.Sched.Scheduler.pkt);
  Netsim.Sim.run sim ~until:1.;
  Netsim.Sim.run sim ~until:3.;
  ( !digest,
    !n,
    Netsim.Sim.enqueue_drops sim,
    Netsim.Sim.transmitted_bytes sim,
    Netsim.Sim.utilization sim )

let golden_tandem () =
  let t1 = Hfsc.create ~link_rate:5e5 () in
  let c1 =
    Hfsc.add_class t1 ~parent:(Hfsc.root t1) ~name:"x"
      ~fsc:(Curve.Service_curve.linear 5e5)
      ~usc:(Curve.Service_curve.linear 2e5) ()
  in
  let hop1 =
    Runtime.Engine.adapter
      (Runtime.Engine.create ~link_rate:5e5 t1
         ~flow_map:[ (1, c1); (2, c1); (3, c1) ] ())
  in
  let hop2 = golden_rr ~link_rate:2.5e5 ~qlimit:16 [ (1, 800); (2, 400) ] in
  let tandem =
    Netsim.Tandem.create
      ~hops:[ (4e5, Sched.Fifo.create ~qlimit:30 ()); (5e5, hop1); (2.5e5, hop2) ]
      ()
  in
  Netsim.Tandem.add_source tandem
    (Netsim.Source.cbr ~flow:1 ~rate:90_000. ~pkt_size:500 ~stop:1.5 ());
  Netsim.Tandem.add_source tandem
    (Netsim.Source.poisson ~flow:2 ~rate:200_000. ~pkt_size:400 ~seed:31 ~stop:1.5 ());
  Netsim.Tandem.add_source_at tandem ~hop:1
    (Netsim.Source.on_off_exp ~flow:3 ~peak_rate:300_000. ~pkt_size:600
       ~mean_on:0.05 ~mean_off:0.05 ~seed:32 ~stop:1.5 ());
  let digest = ref digest_init and n = ref 0 in
  Netsim.Tandem.on_hop_departure tandem (fun ~hop ~now served ->
      incr n;
      digest := mix (fold_departure !digest ~now served.Sched.Scheduler.pkt) hop);
  Netsim.Tandem.run_until_idle tandem ~max_time:20.;
  ( !digest,
    !n,
    Netsim.Tandem.drops tandem,
    Netsim.Tandem.delivered_bytes tandem,
    Netsim.Tandem.now tandem )

(* [x] is the utilization of a multi-link run, the end time of a tandem
   run; both compared bit for bit. *)
let check_golden name (digest, n, drops, bytes, x)
    (want_digest, want_n, want_drops, want_bytes, want_x) =
  Alcotest.(check int) (name ^ " departures") want_n n;
  Alcotest.(check int) (name ^ " drops") want_drops drops;
  Alcotest.(check (float 0.)) (name ^ " bytes") want_bytes bytes;
  Alcotest.(check (float 0.)) (name ^ " utilization/end") want_x x;
  Alcotest.(check int) (name ^ " digest") want_digest digest

let test_golden_digests () =
  check_golden "multi" (golden_multi ())
    (3494223471466709645, 3405, 1486, 0x1.2ad9fp+21, 0x1.848fa210a8349p-1);
  check_golden "tandem" (golden_tandem ())
    (-4369250345166198761, 3434, 329, 0x1.aec3p+18, 0x1.9944f38ef1a9fp+1)

let () =
  Alcotest.run "netsim"
    [
      ("golden", [ Alcotest.test_case "departure digests" `Quick test_golden_digests ]);
      ( "event_queue",
        [
          Alcotest.test_case "peek" `Quick test_eq_peek;
          eq_ordering;
          eq_interleaved;
          Alcotest.test_case "NaN time rejected" `Quick test_eq_rejects_nan;
          Alcotest.test_case "add/take allocate nothing" `Quick test_eq_no_alloc;
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
          Alcotest.test_case "pull/time/size = next, every constructor" `Quick
            test_pull_matches_next;
        ] );
      ( "stats",
        [
          Alcotest.test_case "delay summary" `Quick test_delay_stats;
          delay_percentile_prop;
          Alcotest.test_case "throughput bins" `Quick test_throughput_bins;
          Alcotest.test_case "csv trace streams each departure" `Quick
            test_csv_trace;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay accounting" `Quick
            test_sim_delay_accounting;
          Alcotest.test_case "utilization" `Quick test_sim_utilization;
          Alcotest.test_case "utilization stops mid-packet" `Quick
            test_sim_utilization_mid_packet;
          Alcotest.test_case "multi-link" `Quick test_sim_multi_link;
          Alcotest.test_case "drops counted" `Quick test_sim_drops_counted;
          Alcotest.test_case "run_until_idle" `Quick test_sim_run_until_idle;
          Alcotest.test_case "non-work-conserving poll" `Quick
            test_sim_nonworkconserving_poll;
          Alcotest.test_case "at rejects NaN" `Quick test_sim_at_rejects_nan;
          Alcotest.test_case "rates must be finite and positive" `Quick
            test_sim_rejects_bad_rates;
          Alcotest.test_case "sources of one flow share its seqs" `Quick
            test_sim_shared_flow_seqs;
          Alcotest.test_case "words per arrival and departure" `Quick
            test_sim_words_per_packet;
          Alcotest.test_case "completions tie in stamp order" `Quick
            test_sim_tie_order;
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
