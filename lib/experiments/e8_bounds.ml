type row = {
  label : string;
  fluid_bound : float;
  packet_bound : float;
  measured_max : float;
  ok : bool;
}

type result = { rows : row list }

let mk_row ~label ~alpha ~beta ~lmax ~link_rate ~measured =
  let fluid_bound = Analysis.Delay_bound.fluid ~alpha ~beta in
  let packet_bound =
    Analysis.Delay_bound.hfsc ~alpha ~beta ~lmax ~link_rate
  in
  { label; fluid_bound; packet_bound; measured_max = measured;
    ok = measured <= packet_bound +. 1e-9 }

let run ?(duration = 10.) () =
  (* E3 scenario *)
  let fig = Common.fig1_hfsc () in
  let delays =
    Common.run_sim ~sched:fig.sched
      ~sources:(Common.fig1_sources ~until:duration)
      ~until:duration ()
  in
  let measured flow =
    Common.max_delay (Netsim.Stats.Flow_delay.find delays flow)
  in
  let audio_sc =
    Curve.Service_curve.of_requirements ~umax:(float_of_int Common.audio_pkt)
      ~dmax:Common.audio_dmax ~rate:Common.audio_rate
  in
  let video_sc =
    Curve.Service_curve.of_requirements ~umax:(float_of_int Common.video_pkt)
      ~dmax:Common.video_dmax ~rate:Common.video_rate
  in
  let r1 =
    mk_row ~label:"E3 cmu-audio (64 kb/s concave)"
      ~alpha:
        (Analysis.Arrival_curve.of_cbr ~rate:Common.audio_rate
           ~pkt_size:Common.audio_pkt)
      ~beta:audio_sc ~lmax:Common.data_pkt ~link_rate:Common.link_rate
      ~measured:(measured Common.flow_audio)
  in
  let r2 =
    mk_row ~label:"E3 cmu-video (2 Mb/s concave)"
      ~alpha:
        (Analysis.Arrival_curve.of_cbr ~rate:Common.video_rate
           ~pkt_size:Common.video_pkt)
      ~beta:video_sc ~lmax:Common.data_pkt ~link_rate:Common.link_rate
      ~measured:(measured Common.flow_video)
  in
  (* E6 scenario rows come from re-running it briefly *)
  let e6 = E6_decoupling.run ~duration () in
  let slow_sc =
    Curve.Service_curve.of_requirements ~umax:160. ~dmax:e6.E6_decoupling.dmax
      ~rate:(Common.kbit 64.)
  in
  let fast_sc =
    Curve.Service_curve.of_requirements ~umax:1000.
      ~dmax:e6.E6_decoupling.dmax ~rate:(Common.mbit 2.)
  in
  let r3 =
    mk_row ~label:"E6 slow (64 kb/s, 10 ms)"
      ~alpha:(Analysis.Arrival_curve.of_cbr ~rate:(Common.kbit 64.) ~pkt_size:160)
      ~beta:slow_sc ~lmax:1000 ~link_rate:(Common.mbit 10.)
      ~measured:e6.E6_decoupling.hfsc_slow_max
  in
  let r4 =
    mk_row ~label:"E6 fast (2 Mb/s, 10 ms)"
      ~alpha:(Analysis.Arrival_curve.of_cbr ~rate:(Common.mbit 2.) ~pkt_size:1000)
      ~beta:fast_sc ~lmax:1000 ~link_rate:(Common.mbit 10.)
      ~measured:e6.E6_decoupling.hfsc_fast_max
  in
  { rows = [ r1; r2; r3; r4 ] }

let print r =
  Common.section "E8: measured worst-case delay vs Theorem 1+2 bounds";
  Common.table
    ~header:[ "leaf"; "fluid bound"; "+Lmax/R"; "measured max"; "ok" ]
    (List.map
       (fun row ->
         [
           row.label;
           Common.pp_delay row.fluid_bound;
           Common.pp_delay row.packet_bound;
           Common.pp_delay row.measured_max;
           (if row.ok then "yes" else "VIOLATED");
         ])
       r.rows);
  print_endline
    "paper shape: every measured maximum sits below its analytic bound \
     (service curves guaranteed to within one max-size packet)."
