module Sc = Curve.Service_curve

type result = {
  hfsc_slow_max : float;
  hfsc_fast_max : float;
  wfq_slow_max : float;
  wfq_fast_max : float;
  dmax : float;
  bound : float;
  wfq_required_rate : float;
  slow_rate : float;
}

let link = Common.mbit 10.
let dmax = 0.010
let slow_rate = Common.kbit 64.
let slow_pkt = 160
let fast_rate = Common.mbit 2.
let fast_pkt = 1000
let be_pkt = 1000
let flow_slow = 1
let flow_fast = 2
let flow_be = 3

let sources until =
  [
    Netsim.Source.cbr ~flow:flow_slow ~rate:slow_rate ~pkt_size:slow_pkt
      ~stop:until ();
    Netsim.Source.cbr ~flow:flow_fast ~rate:fast_rate ~pkt_size:fast_pkt
      ~stop:until ();
    Netsim.Source.saturating ~flow:flow_be ~rate:link ~pkt_size:be_pkt
      ~stop:until ();
  ]

(* each flow's worst delay in the scenario through [sched] *)
let max_delays ~duration sched =
  let sim = Netsim.Sim.create ~link_rate:link ~sched () in
  let delays = Netsim.Stats.Flow_delay.attach sim in
  List.iter (Netsim.Sim.add_source sim) (sources duration);
  Netsim.Sim.run sim ~until:duration;
  fun flow -> Common.max_delay (Netsim.Stats.Flow_delay.find delays flow)

let run ?(duration = 20.) () =
  let slow_sc =
    Sc.of_requirements ~umax:(float_of_int slow_pkt) ~dmax ~rate:slow_rate
  in
  let fast_sc =
    Sc.of_requirements ~umax:(float_of_int fast_pkt) ~dmax ~rate:fast_rate
  in
  let t = Hfsc.create ~link_rate:link () in
  let be_rate = link -. slow_rate -. fast_rate in
  let slow =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"slow" ~rsc:slow_sc
      ~fsc:(Sc.linear slow_rate) ()
  in
  let fast =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"fast" ~rsc:fast_sc
      ~fsc:(Sc.linear fast_rate) ()
  in
  let be =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"best-effort"
      ~fsc:(Sc.linear be_rate) ()
  in
  let hfsc =
    Runtime.Engine.adapter
      (Runtime.Engine.create ~link_rate:link t
         ~flow_map:[ (flow_slow, slow); (flow_fast, fast); (flow_be, be) ]
         ())
  in
  let hfsc_max = max_delays ~duration hfsc in
  let wfq =
    Sched.Wfq.create ~link_rate:link
      ~rates:
        [ (flow_slow, slow_rate); (flow_fast, fast_rate); (flow_be, be_rate) ]
      ()
  in
  let wfq_max = max_delays ~duration wfq in
  let alpha =
    Analysis.Arrival_curve.of_cbr ~rate:slow_rate ~pkt_size:slow_pkt
  in
  {
    hfsc_slow_max = hfsc_max flow_slow;
    hfsc_fast_max = hfsc_max flow_fast;
    wfq_slow_max = wfq_max flow_slow;
    wfq_fast_max = wfq_max flow_fast;
    dmax;
    bound =
      Analysis.Delay_bound.hfsc ~alpha ~beta:slow_sc ~lmax:be_pkt
        ~link_rate:link;
    wfq_required_rate =
      Analysis.Delay_bound.coupled_linear_rate ~alpha ~target_delay:dmax;
    slow_rate;
  }

let print r =
  Common.section "E6: decoupling delay from bandwidth (priority service)";
  Common.table
    ~header:[ "session"; "H-FSC max delay"; "WFQ max delay"; "target" ]
    [
      [ "64 kb/s audio"; Common.pp_delay r.hfsc_slow_max;
        Common.pp_delay r.wfq_slow_max; Common.pp_delay r.dmax ];
      [ "2 Mb/s video"; Common.pp_delay r.hfsc_fast_max;
        Common.pp_delay r.wfq_fast_max; Common.pp_delay r.dmax ];
    ];
  Printf.printf
    "paper shape: concave curves give both sessions the same %s bound \
     (analytic %s) regardless of rate; WFQ couples delay to rate, so the \
     64 kb/s session misses the target unless it reserves %s — a %.1fx \
     over-reservation.\n"
    (Common.pp_delay r.dmax) (Common.pp_delay r.bound)
    (Common.pp_rate r.wfq_required_rate)
    (r.wfq_required_rate /. r.slow_rate)
