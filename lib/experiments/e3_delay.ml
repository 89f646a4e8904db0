type delay_summary = { count : int; mean : float; p99 : float; max : float }

type result = {
  hfsc_audio : delay_summary;
  hpfq_audio : delay_summary;
  hfsc_video : delay_summary;
  hpfq_video : delay_summary;
  audio_bound : float;
  video_bound : float;
  hfsc_audio_series : (float * float) list;
  hpfq_audio_series : (float * float) list;
  duration : float;
}

let summarize d =
  {
    count = Netsim.Stats.Delay.count d;
    mean = Netsim.Stats.Delay.mean d;
    p99 = Netsim.Stats.Delay.percentile d 0.99;
    max = Netsim.Stats.Delay.max d;
  }

let empty_summary = { count = 0; mean = 0.; p99 = 0.; max = 0. }

(* Max audio-packet delay per [bin]-second bin — the "delay of each
   packet over time" series of the evaluation figures, compacted: a
   departure hook and the series it has recorded. *)
let delay_series ~bin ~flow =
  let bins : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let record ~now served =
    let p = served.Sched.Scheduler.pkt in
    if p.Pkt.Packet.flow = flow then begin
      let i = int_of_float (now /. bin) in
      let d = now -. p.Pkt.Packet.arrival in
      let cur = match Hashtbl.find_opt bins i with Some v -> v | None -> 0. in
      if d > cur then Hashtbl.replace bins i d
    end
  in
  let series () =
    Hashtbl.fold (fun i v acc -> (float_of_int i *. bin, v) :: acc) bins []
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  (record, series)

let run_one ~duration (fig : Common.fig1) =
  let record, audio_series = delay_series ~bin:1.0 ~flow:Common.flow_audio in
  let delays =
    Common.run_sim ~sched:fig.sched
      ~sources:(Common.fig1_sources ~until:duration)
      ~until:duration ~on_departure:record ()
  in
  let summary flow =
    match Netsim.Stats.Flow_delay.find delays flow with
    | Some d -> summarize d
    | None -> empty_summary
  in
  (summary Common.flow_audio, summary Common.flow_video, audio_series ())

let run ?(duration = 20.) () =
  let hfsc_audio, hfsc_video, hfsc_series =
    run_one ~duration (Common.fig1_hfsc ())
  in
  let hpfq_audio, hpfq_video, hpfq_series =
    run_one ~duration (Common.fig1_hpfq ())
  in
  let audio_alpha =
    Analysis.Arrival_curve.of_cbr ~rate:Common.audio_rate
      ~pkt_size:Common.audio_pkt
  in
  let video_alpha =
    Analysis.Arrival_curve.of_cbr ~rate:Common.video_rate
      ~pkt_size:Common.video_pkt
  in
  let audio_sc =
    Curve.Service_curve.of_requirements ~umax:(float_of_int Common.audio_pkt)
      ~dmax:Common.audio_dmax ~rate:Common.audio_rate
  in
  let video_sc =
    Curve.Service_curve.of_requirements ~umax:(float_of_int Common.video_pkt)
      ~dmax:Common.video_dmax ~rate:Common.video_rate
  in
  {
    hfsc_audio;
    hpfq_audio;
    hfsc_video;
    hpfq_video;
    audio_bound =
      Analysis.Delay_bound.hfsc ~alpha:audio_alpha ~beta:audio_sc
        ~lmax:Common.data_pkt ~link_rate:Common.link_rate;
    video_bound =
      Analysis.Delay_bound.hfsc ~alpha:video_alpha ~beta:video_sc
        ~lmax:Common.data_pkt ~link_rate:Common.link_rate;
    hfsc_audio_series = hfsc_series;
    hpfq_audio_series = hpfq_series;
    duration;
  }

let row name s bound =
  [
    name;
    string_of_int s.count;
    Common.pp_delay s.mean;
    Common.pp_delay s.p99;
    Common.pp_delay s.max;
    (match bound with Some b -> Common.pp_delay b | None -> "-");
  ]

let print r =
  Common.section
    "E3/E4: audio & video delay, H-FSC vs H-PFQ (Fig. 1 hierarchy)";
  Common.table
    ~header:[ "class"; "pkts"; "mean"; "p99"; "max"; "H-FSC bound" ]
    [
      row "audio @ H-FSC" r.hfsc_audio (Some r.audio_bound);
      row "audio @ H-PFQ" r.hpfq_audio None;
      row "video @ H-FSC" r.hfsc_video (Some r.video_bound);
      row "video @ H-PFQ" r.hpfq_video None;
    ];
  Printf.printf
    "paper shape: H-FSC audio max <= bound (dmax + Lmax/R); H-PFQ audio \
     delay is rate-coupled (~%s/level) and several times larger.\n"
    (Common.pp_delay (float_of_int Common.audio_pkt /. Common.audio_rate));
  print_endline "audio max-delay-per-second series (ms):";
  let fmt_series s =
    String.concat " "
      (List.map (fun (_, d) -> Printf.sprintf "%.1f" (d *. 1000.)) s)
  in
  Printf.printf "  H-FSC: %s\n" (fmt_series r.hfsc_audio_series);
  Printf.printf "  H-PFQ: %s\n" (fmt_series r.hpfq_audio_series)
