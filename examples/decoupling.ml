(* Decoupled delay and bandwidth (the paper's "priority service"):
   two real-time sessions with a 30x rate difference both get the same
   10 ms delay bound, side by side with WFQ which cannot do this.

     dune exec examples/decoupling.exe *)

module Sc = Curve.Service_curve

let mbit m = m *. 1e6 /. 8.
let link_rate = mbit 10.
let dmax = 0.010

let run_hfsc () =
  let t = Hfsc.create ~link_rate () in
  let slow_sc = Sc.of_requirements ~umax:160. ~dmax ~rate:(mbit 0.064) in
  let fast_sc = Sc.of_requirements ~umax:1000. ~dmax ~rate:(mbit 2.) in
  let slow = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"slow" ~rsc:slow_sc () in
  let fast = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"fast" ~rsc:fast_sc () in
  let be =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"best-effort"
      ~fsc:(Sc.linear (link_rate -. mbit 2.064)) ()
  in
  Runtime.Engine.adapter
    (Runtime.Engine.create ~link_rate t
       ~flow_map:[ (1, slow); (2, fast); (3, be) ]
       ())

let run_wfq () =
  Sched.Wfq.create ~link_rate
    ~rates:
      [ (1, mbit 0.064); (2, mbit 2.); (3, link_rate -. mbit 2.064) ]
    ()

let measure name sched =
  let sim = Netsim.Sim.create ~link_rate ~sched () in
  let delays = Netsim.Stats.Flow_delay.attach sim in
  Netsim.Sim.add_source sim
    (Netsim.Source.cbr ~flow:1 ~rate:(mbit 0.064) ~pkt_size:160 ~stop:10. ());
  Netsim.Sim.add_source sim
    (Netsim.Source.cbr ~flow:2 ~rate:(mbit 2.) ~pkt_size:1000 ~stop:10. ());
  Netsim.Sim.add_source sim
    (Netsim.Source.saturating ~flow:3 ~rate:link_rate ~pkt_size:1000 ~stop:10. ());
  Netsim.Sim.run sim ~until:11.;
  let f flow =
    match Netsim.Stats.Flow_delay.find delays flow with
    | Some d ->
        Printf.sprintf "mean %.2f / max %.2f ms"
          (Netsim.Stats.Delay.mean d *. 1000.)
          (Netsim.Stats.Delay.max d *. 1000.)
    | None -> "-"
  in
  Printf.printf "%-8s  64 kb/s session: %-26s  2 Mb/s session: %s\n" name
    (f 1) (f 2)

let () =
  Printf.printf "target delay for both sessions: %.0f ms\n\n" (dmax *. 1000.);
  measure "H-FSC" (run_hfsc ());
  measure "WFQ" (run_wfq ());
  (* how much a rate-proportional scheduler must over-reserve *)
  let alpha = Analysis.Arrival_curve.of_cbr ~rate:(mbit 0.064) ~pkt_size:160 in
  let needed =
    Analysis.Delay_bound.coupled_linear_rate ~alpha ~target_delay:dmax
  in
  Printf.printf
    "\nWFQ couples delay to rate: hitting 10 ms for the 64 kb/s session \
     needs a %.0f kb/s reservation — %.1fx the actual rate. Concave \
     service curves decouple the two (Section II of the paper).\n"
    (needed *. 8. /. 1000.)
    (needed /. mbit 0.064)
