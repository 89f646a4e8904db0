type result = {
  cbq_audio_max : float;
  hfsc_audio_max : float;
  hfsc_audio_bound : float;
  cbq_video_idle_rate : float;
  hfsc_video_idle_rate : float;
  cbq_pitt_idle_rate : float;
  hfsc_pitt_idle_rate : float;
}

let stop = 8.0
let restart = 16.0
let until = 24.0

let cbq_fig1 () =
  let t = Sched.Cbq.create ~link_rate:Common.link_rate () in
  let cmu =
    Sched.Cbq.add_node t ~parent:(Sched.Cbq.root t) ~name:"cmu"
      ~rate:(Common.mbit 25.)
  in
  let pitt =
    Sched.Cbq.add_node t ~parent:(Sched.Cbq.root t) ~name:"pitt"
      ~rate:(Common.mbit 20.)
  in
  let _ =
    Sched.Cbq.add_leaf t ~parent:cmu ~name:"cmu-audio"
      ~rate:Common.audio_rate ~flow:Common.flow_audio ~priority:0 ()
  in
  let _ =
    Sched.Cbq.add_leaf t ~parent:cmu ~name:"cmu-video"
      ~rate:Common.video_rate ~flow:Common.flow_video ()
  in
  let cmu_data_rate =
    Common.mbit 25. -. Common.audio_rate -. Common.video_rate
  in
  let _ =
    Sched.Cbq.add_leaf t ~parent:cmu ~name:"cmu-data" ~rate:cmu_data_rate
      ~flow:Common.flow_cmu_data ()
  in
  let _ =
    Sched.Cbq.add_leaf t ~parent:pitt ~name:"pitt-data"
      ~rate:(Common.mbit 20.) ~flow:Common.flow_pitt_data ()
  in
  Sched.Cbq.to_scheduler t

(* same traffic as E5: greedy video so CMU's slack is absorbable *)
let sources () =
  let cmu_data_rate =
    Common.mbit 25. -. Common.audio_rate -. Common.video_rate
  in
  [
    Netsim.Source.cbr ~flow:Common.flow_audio ~rate:Common.audio_rate
      ~pkt_size:Common.audio_pkt ~stop:until ();
    Netsim.Source.saturating ~flow:Common.flow_video ~rate:(Common.mbit 30.)
      ~pkt_size:Common.video_pkt ~stop:until ();
    Netsim.Source.saturating ~flow:Common.flow_cmu_data
      ~rate:(1.05 *. cmu_data_rate) ~pkt_size:Common.data_pkt ~stop ();
    Netsim.Source.saturating ~flow:Common.flow_cmu_data
      ~rate:(1.05 *. cmu_data_rate) ~pkt_size:Common.data_pkt ~start:restart
      ~stop:until ();
    Netsim.Source.saturating ~flow:Common.flow_pitt_data
      ~rate:(Common.mbit 45.) ~pkt_size:Common.data_pkt ~stop:until ();
  ]

let run_one sched =
  let video = ref 0. and pitt = ref 0. in
  let on_departure ~now served =
    let p = served.Sched.Scheduler.pkt in
    if now > stop +. 1. && now <= restart -. 1. then begin
      if p.Pkt.Packet.flow = Common.flow_video then
        video := !video +. float_of_int p.Pkt.Packet.size;
      if p.Pkt.Packet.flow = Common.flow_pitt_data then
        pitt := !pitt +. float_of_int p.Pkt.Packet.size
    end
  in
  let delays =
    Common.run_sim ~sched ~sources:(sources ()) ~until ~on_departure ()
  in
  let audio_max =
    Common.max_delay (Netsim.Stats.Flow_delay.find delays Common.flow_audio)
  in
  let w = restart -. stop -. 2. in
  (audio_max, !video /. w, !pitt /. w)

let run () =
  let cbq_audio_max, cbq_video_idle_rate, cbq_pitt_idle_rate =
    run_one (cbq_fig1 ())
  in
  let fig = Common.fig1_hfsc () in
  let hfsc_audio_max, hfsc_video_idle_rate, hfsc_pitt_idle_rate =
    run_one fig.sched
  in
  let audio_sc =
    Curve.Service_curve.of_requirements ~umax:(float_of_int Common.audio_pkt)
      ~dmax:Common.audio_dmax ~rate:Common.audio_rate
  in
  {
    cbq_audio_max;
    hfsc_audio_max;
    hfsc_audio_bound =
      Analysis.Delay_bound.hfsc
        ~alpha:
          (Analysis.Arrival_curve.of_cbr ~rate:Common.audio_rate
             ~pkt_size:Common.audio_pkt)
        ~beta:audio_sc ~lmax:Common.data_pkt ~link_rate:Common.link_rate;
    cbq_video_idle_rate;
    hfsc_video_idle_rate;
    cbq_pitt_idle_rate;
    hfsc_pitt_idle_rate;
  }

let print r =
  Common.section "E11: CBQ (related work, Section VIII) vs H-FSC";
  Common.table
    ~header:
      [ "metric"; "CBQ (prio band + estimator)"; "H-FSC (service curves)" ]
    [
      [ "audio max delay"; Common.pp_delay r.cbq_audio_max;
        Printf.sprintf "%s (bound %s)"
          (Common.pp_delay r.hfsc_audio_max)
          (Common.pp_delay r.hfsc_audio_bound) ];
      [ "video rate, cmu-data idle"; Common.pp_rate r.cbq_video_idle_rate;
        Common.pp_rate r.hfsc_video_idle_rate ];
      [ "pitt rate, cmu-data idle"; Common.pp_rate r.cbq_pitt_idle_rate;
        Common.pp_rate r.hfsc_pitt_idle_rate ];
    ];
  print_endline
    "paper shape (Section VIII): CBQ needs an ad-hoc priority band to \
     approximate the audio delay and its estimator gives only \
     approximate shares (watch pitt drift off 20 Mb/s); H-FSC gets both \
     from one service-curve abstraction, with an analytic bound."
