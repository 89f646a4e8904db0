let mbit m = m *. 1_000_000. /. 8.
let kbit k = k *. 1_000. /. 8.
let pp_rate r = Printf.sprintf "%.2f Mb/s" (r *. 8. /. 1_000_000.)
let pp_delay d = Printf.sprintf "%.3f ms" (d *. 1000.)
let max_delay = function Some d -> Netsim.Stats.Delay.max d | None -> 0.

let flow_audio = 1
let flow_video = 2
let flow_cmu_data = 3
let flow_pitt_data = 4

let link_rate = mbit 45.
let audio_dmax = 0.005
let video_dmax = 0.010
let audio_pkt = 160
let video_pkt = 1000
let data_pkt = 1000
let audio_rate = kbit 64.
let video_rate = mbit 2.

let cmu_rate = mbit 25.
let pitt_rate = mbit 20.
let cmu_data_rate = cmu_rate -. audio_rate -. video_rate

type fig1 = { sched : Sched.Scheduler.t; hfsc : Hfsc.t option }

let fig1_hfsc ?vt_policy ?eligible_policy () =
  let t = Hfsc.create ?vt_policy ?eligible_policy ~link_rate () in
  let sc = Curve.Service_curve.linear in
  let cmu =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"cmu" ~fsc:(sc cmu_rate) ()
  in
  let pitt =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"pitt" ~fsc:(sc pitt_rate) ()
  in
  let audio_sc =
    Curve.Service_curve.of_requirements ~umax:(float_of_int audio_pkt)
      ~dmax:audio_dmax ~rate:audio_rate
  in
  let video_sc =
    Curve.Service_curve.of_requirements ~umax:(float_of_int video_pkt)
      ~dmax:video_dmax ~rate:video_rate
  in
  let audio =
    Hfsc.add_class t ~parent:cmu ~name:"cmu-audio" ~rsc:audio_sc
      ~fsc:(sc audio_rate) ()
  in
  let video =
    Hfsc.add_class t ~parent:cmu ~name:"cmu-video" ~rsc:video_sc
      ~fsc:(sc video_rate) ()
  in
  let cmu_data =
    Hfsc.add_class t ~parent:cmu ~name:"cmu-data" ~fsc:(sc cmu_data_rate) ()
  in
  let pitt_data =
    Hfsc.add_class t ~parent:pitt ~name:"pitt-data" ~fsc:(sc pitt_rate) ()
  in
  let sched =
    Runtime.Engine.adapter
      (Runtime.Engine.create ~link_rate t
         ~flow_map:
           [
             (flow_audio, audio);
             (flow_video, video);
             (flow_cmu_data, cmu_data);
             (flow_pitt_data, pitt_data);
           ]
         ())
  in
  { sched; hfsc = Some t }

let fig1_hpfq () =
  let t = Sched.Hpfq.create ~link_rate () in
  let cmu = Sched.Hpfq.add_node t ~parent:(Sched.Hpfq.root t) ~name:"cmu" ~rate:cmu_rate in
  let pitt =
    Sched.Hpfq.add_node t ~parent:(Sched.Hpfq.root t) ~name:"pitt" ~rate:pitt_rate
  in
  let _ =
    Sched.Hpfq.add_leaf t ~parent:cmu ~name:"cmu-audio" ~rate:audio_rate
      ~flow:flow_audio ()
  in
  let _ =
    Sched.Hpfq.add_leaf t ~parent:cmu ~name:"cmu-video" ~rate:video_rate
      ~flow:flow_video ()
  in
  let _ =
    Sched.Hpfq.add_leaf t ~parent:cmu ~name:"cmu-data" ~rate:cmu_data_rate
      ~flow:flow_cmu_data ()
  in
  let _ =
    Sched.Hpfq.add_leaf t ~parent:pitt ~name:"pitt-data" ~rate:pitt_rate
      ~flow:flow_pitt_data ()
  in
  { sched = Sched.Hpfq.to_scheduler t; hfsc = None }

let fig1_sources ~until =
  let audio =
    Netsim.Source.cbr ~flow:flow_audio ~rate:audio_rate ~pkt_size:audio_pkt
      ~stop:until ()
  in
  let video =
    Netsim.Source.cbr ~flow:flow_video ~rate:video_rate ~pkt_size:video_pkt
      ~stop:until ()
  in
  (* saturating sources offer ~105% of their class share so the class
     queue never drains but does not blow up *)
  let cmu_data_rate_offered = 1.05 *. cmu_data_rate in
  let pitt_rate_offered = 1.05 *. pitt_rate in
  let cmu_data =
    Netsim.Source.saturating ~flow:flow_cmu_data ~rate:cmu_data_rate_offered
      ~pkt_size:data_pkt ~stop:until ()
  in
  let pitt_data =
    Netsim.Source.saturating ~flow:flow_pitt_data ~rate:pitt_rate_offered
      ~pkt_size:data_pkt ~stop:until ()
  in
  [ audio; video; cmu_data; pitt_data ]

let run_sim ~sched ~sources ~until ?on_departure () =
  let sim = Netsim.Sim.create ~link_rate ~sched () in
  let delays = Netsim.Stats.Flow_delay.attach sim in
  List.iter (Netsim.Sim.add_source sim) sources;
  (match on_departure with
  | Some f -> Netsim.Sim.on_departure sim f
  | None -> ());
  Netsim.Sim.run sim ~until;
  delays

let fluid_replay ~fluid ~sources ~cls_of ~sample_every ~sample_classes ~until =
  let outs = List.map (fun c -> (c, ref [])) sample_classes in
  let next_sample = ref sample_every in
  let take_samples_upto at =
    while !next_sample <= at do
      Fluid.Fluid_fsc.advance fluid ~until:!next_sample;
      List.iter
        (fun (c, out) ->
          out := (!next_sample, Fluid.Fluid_fsc.service_of fluid c) :: !out)
        outs;
      next_sample := !next_sample +. sample_every
    done
  in
  let heads =
    ref
      (List.filter_map
         (fun s ->
           match Netsim.Source.next s with
           | Some hd -> Some (ref hd, s)
           | None -> None)
         sources)
  in
  let continue_ = ref true in
  while !continue_ do
    match !heads with
    | [] -> continue_ := false
    | hs ->
        let best_ref, best_src =
          List.fold_left
            (fun (br, bs) (r, s) -> if fst !r < fst !br then (r, s) else (br, bs))
            (List.hd hs) (List.tl hs)
        in
        let at, sz = !best_ref in
        if at > until then continue_ := false
        else begin
          take_samples_upto at;
          Fluid.Fluid_fsc.add_demand fluid ~now:at
            (cls_of (Netsim.Source.flow best_src))
            ~bytes:(float_of_int sz);
          match Netsim.Source.next best_src with
          | Some nxt -> best_ref := nxt
          | None -> heads := List.filter (fun (r, _) -> r != best_ref) !heads
        end
  done;
  take_samples_upto until;
  List.map (fun (_, out) -> List.rev !out) outs

let table ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width i =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row i with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let render row =
    String.concat "  "
      (List.mapi
         (fun i cell ->
           let w = List.nth widths i in
           cell ^ String.make (w - String.length cell) ' ')
         row)
  in
  print_endline (render header);
  print_endline
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun r -> print_endline (render r)) rows

let section title =
  Printf.printf "\n=== %s ===\n%!" title
