module Sc = Curve.Service_curve

type result = {
  capped_rate : float;
  cap : float;
  sibling_rate : float;
  solo_rate : float;
}

let link = Common.mbit 45.
let cap = Common.mbit 5.

let setup () =
  let t = Hfsc.create ~link_rate:link () in
  let capped =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"capped"
      ~fsc:(Sc.linear (Common.mbit 5.)) ~usc:(Sc.linear cap) ()
  in
  let sibling =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"open"
      ~fsc:(Sc.linear (Common.mbit 40.)) ()
  in
  Runtime.Engine.adapter
    (Runtime.Engine.create ~link_rate:link t
       ~flow_map:[ (1, capped); (2, sibling) ]
       ())

let measure sched sources until =
  let sim = Netsim.Sim.create ~link_rate:link ~sched () in
  List.iter (Netsim.Sim.add_source sim) sources;
  let bytes = Hashtbl.create 4 in
  Netsim.Sim.on_departure sim (fun ~now:_ served ->
      let f = served.Sched.Scheduler.pkt.Pkt.Packet.flow in
      let cur = match Hashtbl.find_opt bytes f with Some v -> v | None -> 0. in
      Hashtbl.replace bytes f
        (cur +. float_of_int served.Sched.Scheduler.pkt.Pkt.Packet.size));
  Netsim.Sim.run sim ~until;
  fun flow ->
    (match Hashtbl.find_opt bytes flow with Some v -> v | None -> 0.)
    /. until

let run () =
  let until = 10.0 in
  (* both greedy *)
  let rate_of =
    measure (setup ())
      [
        Netsim.Source.saturating ~flow:1 ~rate:(Common.mbit 20.)
          ~pkt_size:1000 ~stop:until ();
        Netsim.Source.saturating ~flow:2 ~rate:(Common.mbit 50.)
          ~pkt_size:1000 ~stop:until ();
      ]
      until
  in
  (* capped class alone: the link must idle at the cap *)
  let solo_rate_of =
    measure (setup ())
      [
        Netsim.Source.saturating ~flow:1 ~rate:(Common.mbit 20.)
          ~pkt_size:1000 ~stop:until ();
      ]
      until
  in
  {
    capped_rate = rate_of 1;
    cap;
    sibling_rate = rate_of 2;
    solo_rate = solo_rate_of 1;
  }

let print r =
  Common.section "E10: upper-limit curves (non-work-conserving extension)";
  Common.table
    ~header:[ "scenario"; "capped class"; "open sibling"; "cap" ]
    [
      [ "both greedy"; Common.pp_rate r.capped_rate;
        Common.pp_rate r.sibling_rate; Common.pp_rate r.cap ];
      [ "capped alone"; Common.pp_rate r.solo_rate; "-";
        Common.pp_rate r.cap ];
    ];
  print_endline
    "shape: the capped class never exceeds its upper-limit curve, even \
     with the link otherwise idle; the open sibling absorbs the rest."
