(* End-to-end guarantees across a path of H-FSC links.

     dune exec examples/multi_hop.exe

   A 250 kb/s flow reserves a rate-latency service curve at each of
   three congested hops. Per-link guarantees compose: the end-to-end
   service curve is the min-plus convolution of the per-hop curves, so
   the flow's burst is "paid only once" — the analytic bound grows with
   the path's summed latency, not with repeated burst terms. We print
   the measured end-to-end delay against both the concatenation bound
   and the naive per-hop sum. *)

module Sc = Curve.Service_curve

let link = 1_250_000. (* 10 Mb/s per hop *)
let rt_rate = 31_250. (* 250 kb/s *)
let hop_sc = Sc.make ~m1:0. ~d:0.004 ~m2:rt_rate (* 4 ms latency, then rate *)

let mk_hop i =
  let t = Hfsc.create ~link_rate:link () in
  let rt =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"rt" ~rsc:hop_sc
      ~fsc:(Sc.linear rt_rate) ()
  in
  let cross =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"cross"
      ~fsc:(Sc.linear (link -. rt_rate)) ()
  in
  Runtime.Engine.adapter
    (Runtime.Engine.create ~link_rate:link t
       ~flow_map:[ (1, rt); (100 + i, cross) ]
       ())

let () =
  let nhops = 3 in
  let duration = 20. in
  let tandem =
    Netsim.Tandem.create ~hops:(List.init nhops (fun i -> (link, mk_hop i))) ()
  in
  Netsim.Tandem.add_source tandem
    (Netsim.Source.cbr ~flow:1 ~rate:rt_rate ~pkt_size:500 ~stop:duration ());
  for i = 0 to nhops - 1 do
    Netsim.Tandem.add_source_at tandem ~hop:i
      (Netsim.Source.poisson ~flow:(100 + i) ~rate:(0.95 *. link)
         ~pkt_size:1200 ~seed:(40 + i) ~stop:duration ())
  done;
  Netsim.Tandem.run tandem ~until:(duration +. 5.);
  let alpha = Analysis.Arrival_curve.of_cbr ~rate:rt_rate ~pkt_size:500 in
  let hops = List.init nhops (fun _ -> (hop_sc, link)) in
  let e2e = Analysis.Multi_hop.bound ~alpha ~hops ~lmax:1200 in
  let naive = Analysis.Multi_hop.sum_of_per_hop_bounds ~alpha ~hops ~lmax:1200 in
  (match Netsim.Tandem.end_to_end_delay tandem 1 with
  | Some d ->
      Printf.printf
        "3 hops, each 95%% loaded with cross traffic:\n\
        \  measured end-to-end delay:  mean %.2f ms, max %.2f ms\n"
        (Netsim.Stats.Delay.mean d *. 1000.)
        (Netsim.Stats.Delay.max d *. 1000.)
  | None -> print_endline "no packets delivered?!");
  Printf.printf
    "  concatenation bound:        %.2f ms  (burst paid once)\n\
    \  naive sum of per-hop bounds: %.2f ms  (burst paid %d times)\n"
    (e2e *. 1000.) (naive *. 1000.) nhops;
  print_endline
    "\nThe min-plus convolution of the per-hop curves (rate-latency: 4 ms\n\
     each) has latency 12 ms and the same rate, so the flow's burst term\n\
     appears once — the classic 'pay bursts only once' result, built on\n\
     the same service-curve machinery as the scheduler itself."
