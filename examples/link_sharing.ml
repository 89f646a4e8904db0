(* The Fig. 1 scenario of the paper: a 45 Mb/s link shared by two
   organizations, each with traffic types underneath, driven through the
   discrete-event simulator.

     dune exec examples/link_sharing.exe

   Watch the throughput table: when CMU's data class goes idle halfway
   through, its bandwidth flows to the CMU video class (its sibling),
   while U.Pitt keeps exactly its 20 Mb/s — hierarchical link-sharing
   (goals 1 and 2 of the paper's introduction). *)

module Sc = Curve.Service_curve

let mbit m = m *. 1e6 /. 8.
let link_rate = mbit 45.

let () =
  let t = Hfsc.create ~link_rate () in
  let cmu = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"CMU" ~fsc:(Sc.linear (mbit 25.)) () in
  let pitt = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"U.Pitt" ~fsc:(Sc.linear (mbit 20.)) () in
  let audio_sc = Sc.of_requirements ~umax:160. ~dmax:0.005 ~rate:(mbit 0.064) in
  let audio =
    Hfsc.add_class t ~parent:cmu ~name:"cmu-audio" ~rsc:audio_sc
      ~fsc:(Sc.linear (mbit 0.064)) ()
  in
  let video = Hfsc.add_class t ~parent:cmu ~name:"cmu-video" ~fsc:(Sc.linear (mbit 10.)) () in
  let data = Hfsc.add_class t ~parent:cmu ~name:"cmu-data" ~fsc:(Sc.linear (mbit 14.936)) () in
  let pitt_data = Hfsc.add_class t ~parent:pitt ~name:"pitt-data" ~fsc:(Sc.linear (mbit 20.)) () in

  let sched =
    Runtime.Engine.adapter
      (Runtime.Engine.create ~link_rate t
         ~flow_map:[ (1, audio); (2, video); (3, data); (4, pitt_data) ]
         ())
  in
  let sim = Netsim.Sim.create ~link_rate ~sched () in
  let tput = Netsim.Stats.Throughput.attach ~bin:1.0 sim in
  let delays = Netsim.Stats.Flow_delay.attach sim in

  (* audio: CBR; video and both data classes: greedy. CMU data stops
     offering traffic during [8, 16). *)
  Netsim.Sim.add_source sim
    (Netsim.Source.cbr ~flow:1 ~rate:(mbit 0.064) ~pkt_size:160 ~stop:24. ());
  Netsim.Sim.add_source sim
    (Netsim.Source.saturating ~flow:2 ~rate:(mbit 30.) ~pkt_size:1000 ~stop:24. ());
  Netsim.Sim.add_source sim
    (Netsim.Source.saturating ~flow:3 ~rate:(mbit 16.) ~pkt_size:1000 ~stop:8. ());
  Netsim.Sim.add_source sim
    (Netsim.Source.saturating ~flow:3 ~rate:(mbit 16.) ~pkt_size:1000 ~start:16. ~stop:24. ());
  Netsim.Sim.add_source sim
    (Netsim.Source.saturating ~flow:4 ~rate:(mbit 45.) ~pkt_size:1000 ~stop:24. ());

  Netsim.Sim.run sim ~until:24.;

  Printf.printf "%-5s %-11s %-11s %-11s %-11s\n" "t(s)" "audio" "video" "cmu-data" "pitt-data";
  let series cls = Netsim.Stats.Throughput.series tput ~cls in
  let at cls i =
    match List.nth_opt (series cls) i with
    | Some (_, v) -> v *. 8. /. 1e6
    | None -> 0.
  in
  for i = 0 to 23 do
    Printf.printf "%-5d %-11.2f %-11.2f %-11.2f %-11.2f\n" i
      (at "cmu-audio" i) (at "cmu-video" i) (at "cmu-data" i)
      (at "pitt-data" i)
  done;
  print_endline
    "\n(Mb/s per 1s bin. Note video jumping from ~10 to ~25 Mb/s while \
     cmu-data idles at t=8..16, and pitt-data pinned at 20 Mb/s \
     throughout: CMU's spare capacity stays inside CMU.)";
  (* and the audio guarantee held through all of it *)
  match Netsim.Stats.Flow_delay.find delays 1 with
  | Some d ->
      Printf.printf "audio worst delay: %.3f ms (bound 5 ms + Lmax/R)\n"
        (Netsim.Stats.Delay.max d *. 1000.)
  | None -> ()
