module Sc = Curve.Service_curve

type result = {
  measured_max : float;
  e2e_bound : float;
  per_hop_sum : float;
  hops : int;
  delivered : float;
}

let link = 1_250_000. (* 10 Mb/s *)
let nhops = 3
let flow_rt = 1
let rt_rate = 31_250. (* 250 kb/s *)
let rt_pkt = 500
let cross_pkt = 1200

(* per-hop reservation: rate-latency (convex) curve — 250 kb/s after a
   4 ms latency. Convex curves convolve exactly. *)
let hop_sc = Sc.make ~m1:0. ~d:0.004 ~m2:rt_rate

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
       ~flow_map:[ (flow_rt, rt); (100 + i, cross) ]
       ())

let run ?(duration = 20.) () =
  let tandem =
    Netsim.Tandem.create
      ~hops:(List.init nhops (fun i -> (link, mk_hop i)))
      ()
  in
  Netsim.Tandem.add_source tandem
    (Netsim.Source.cbr ~flow:flow_rt ~rate:rt_rate ~pkt_size:rt_pkt
       ~stop:duration ());
  (* independent cross traffic saturating each hop, injected at that
     hop; it is dropped by the next hop's classifier and so never
     travels further *)
  for i = 0 to nhops - 1 do
    Netsim.Tandem.add_source_at tandem ~hop:i
      (Netsim.Source.poisson ~flow:(100 + i) ~rate:(0.95 *. link)
         ~pkt_size:cross_pkt ~seed:(500 + i) ~stop:duration ())
  done;
  Netsim.Tandem.run tandem ~until:(duration +. 5.);
  let measured_max =
    Common.max_delay (Netsim.Tandem.end_to_end_delay tandem flow_rt)
  in
  let alpha = Analysis.Arrival_curve.of_cbr ~rate:rt_rate ~pkt_size:rt_pkt in
  let hops = List.init nhops (fun _ -> (hop_sc, link)) in
  {
    measured_max;
    e2e_bound = Analysis.Multi_hop.bound ~alpha ~hops ~lmax:cross_pkt;
    per_hop_sum =
      Analysis.Multi_hop.sum_of_per_hop_bounds ~alpha ~hops ~lmax:cross_pkt;
    hops = nhops;
    delivered = Netsim.Tandem.delivered_bytes tandem;
  }

let print r =
  Common.section "E12: end-to-end guarantees over a 3-hop H-FSC tandem";
  Common.table
    ~header:[ "quantity"; "value" ]
    [
      [ "measured end-to-end max delay"; Common.pp_delay r.measured_max ];
      [ "concatenation bound (pay bursts once)"; Common.pp_delay r.e2e_bound ];
      [ "naive sum of per-hop bounds"; Common.pp_delay r.per_hop_sum ];
    ];
  Printf.printf
    "shape: measured <= concatenation bound <= per-hop sum; the \
     convolution bound pays the flow's burst once instead of %d times.\n"
    r.hops
