(* The Fig. 2 story, live: SCED guarantees service curves but punishes a
   session for using idle capacity; H-FSC gives the same guarantees
   without the punishment.

     dune exec examples/sced_punishment.exe

   Session 1 (convex curve) is alone on the link for 2 s and happily
   uses all of it. Session 2 (concave) wakes at t=2. Under SCED,
   session 1 then starves for over half a second; under H-FSC it keeps
   receiving its fair share from the first instant. *)

module Sc = Curve.Service_curve

let link = 1_000_000.
let s1 = Sc.make ~m1:(0.3 *. link) ~d:1.0 ~m2:(0.9 *. link)
let s2 = Sc.make ~m1:(0.7 *. link) ~d:1.0 ~m2:(0.1 *. link)

let sources () =
  [
    Netsim.Source.saturating ~flow:1 ~rate:(1.2 *. link) ~pkt_size:1000
      ~stop:4. ();
    Netsim.Source.saturating ~flow:2 ~rate:(1.2 *. link) ~pkt_size:1000
      ~start:2. ~stop:4. ();
  ]

let run name sched =
  let sim = Netsim.Sim.create ~link_rate:link ~sched () in
  let tput = Netsim.Stats.Throughput.attach ~bin:0.25 sim in
  List.iter (Netsim.Sim.add_source sim) (sources ());
  Netsim.Sim.run sim ~until:4.;
  Printf.printf "\n%s — session 1 rate per 0.25 s bin (kB/s):\n  " name;
  List.iter
    (fun (_, v) -> Printf.printf "%4.0f " (v /. 1000.))
    (Netsim.Stats.Throughput.series tput ~cls:"1"
    @ Netsim.Stats.Throughput.series tput ~cls:"s1");
  print_newline ()

let () =
  print_endline
    "session 2 (concave curve) wakes at t=2.0s; watch session 1's rate:";
  run "SCED"
    (Sched.Sced.create ~curves:[ (1, s1); (2, s2) ] ());
  let t = Hfsc.create ~link_rate:link () in
  let c1 = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"s1" ~rsc:s1 ~fsc:s1 () in
  let c2 = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"s2" ~rsc:s2 ~fsc:s2 () in
  run "H-FSC"
    (Runtime.Engine.adapter
       (Runtime.Engine.create ~link_rate:link t ~flow_map:[ (1, c1); (2, c2) ] ()));
  print_endline
    "\nUnder SCED session 1's rate collapses to zero after t=2 (it is \
     'paying back' the idle capacity it used); under H-FSC it drops only \
     to its fair share. Same service curves, same guarantees — fairness \
     is the difference (Section III-B)."
