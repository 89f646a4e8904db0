module Sc = Curve.Service_curve

type result = {
  vc_recovery_rate : float;
  hfsc_recovery_rate : float;
  vc_max_delay : float;
  hfsc_max_delay : float;
  guaranteed_rate : float;
}

let link = 1_000_000.
let share = 0.5 *. link
let pkt = 1000
let until = 8.0

(* The competitor holds its reserved half during [0,2) and [4,8); the
   adaptive flow exploits the idle [2,4) window, then must fall back to
   its share. The measurement window (4.5, 7.5] sits in the second
   contended phase: a punishing scheduler makes the flow pay there for
   what it used in [2,4). *)
let t_idle = 2.0
let t_back = 4.0
let w_lo = 4.5
let w_hi = 7.5

let measure sched =
  let sim = Netsim.Sim.create ~link_rate:link ~sched () in
  let adaptive, feedback =
    (* max_rate just under the link so the flow's solo probing does not
       congest itself; the 50 ms delay target separates "fine" (~1 ms)
       from "being punished" (>> 100 ms) cleanly *)
    Netsim.Source.adaptive ~flow:1 ~pkt_size:pkt ~init_rate:(0.8 *. share)
      ~min_rate:(0.1 *. share) ~max_rate:(0.95 *. link)
      ~increase:(float_of_int (10 * pkt)) ~delay_target:0.05 ~stop:until ()
  in
  Netsim.Sim.add_source sim adaptive;
  (* the competitor is continuously backlogged while present, so the
     scheduler (not the competitor's own idleness) decides flow 1's lot *)
  Netsim.Sim.add_source sim
    (Netsim.Source.saturating ~flow:2 ~rate:(1.1 *. link) ~pkt_size:pkt
       ~stop:t_idle ());
  Netsim.Sim.add_source sim
    (Netsim.Source.saturating ~flow:2 ~rate:(1.1 *. link) ~pkt_size:pkt
       ~start:t_back ~stop:until ());
  let window_bytes = ref 0. in
  let window_max_delay = ref 0. in
  Netsim.Sim.on_departure sim (fun ~now served ->
      let p = served.Sched.Scheduler.pkt in
      if p.Pkt.Packet.flow = 1 then begin
        let delay = now -. p.Pkt.Packet.arrival in
        feedback ~delay;
        if now > w_lo && now <= w_hi then begin
          window_bytes := !window_bytes +. float_of_int p.Pkt.Packet.size;
          if delay > !window_max_delay then window_max_delay := delay
        end
      end);
  Netsim.Sim.run sim ~until:(until +. 1.);
  (!window_bytes /. (w_hi -. w_lo), !window_max_delay)

let run () =
  let vc =
    Sched.Virtual_clock.create ~qlimit:120
      ~rates:[ (1, share); (2, share) ]
      ()
  in
  let vc_rate, vc_delay = measure vc in
  let t = Hfsc.create ~link_rate:link () in
  let a =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"adaptive"
      ~fsc:(Sc.linear share) ~qlimit:60 ()
  in
  let b =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"reserved"
      ~fsc:(Sc.linear share) ~qlimit:60 ()
  in
  let hfsc =
    Runtime.Engine.adapter
      (Runtime.Engine.create ~link_rate:link t ~flow_map:[ (1, a); (2, b) ] ())
  in
  let hfsc_rate, hfsc_delay = measure hfsc in
  {
    vc_recovery_rate = vc_rate;
    hfsc_recovery_rate = hfsc_rate;
    vc_max_delay = vc_delay;
    hfsc_max_delay = hfsc_delay;
    guaranteed_rate = share;
  }

let print r =
  Common.section
    "E13: an adaptive (AIMD) application vs punishment (Section III-B)";
  Printf.printf
    "the adaptive flow exploited the idle link during [%.0f, %.0f)s; the \
     competitor returns at t=%.0fs; the flow's reserved share is %s.\n"
    t_idle t_back t_back
    (Common.pp_rate r.guaranteed_rate);
  Common.table
    ~header:
      [ "scheduler"; "rate after competitor returns";
        "worst delay in that window" ]
    [
      [ "Virtual Clock"; Common.pp_rate r.vc_recovery_rate;
        Common.pp_delay r.vc_max_delay ];
      [ "H-FSC"; Common.pp_rate r.hfsc_recovery_rate;
        Common.pp_delay r.hfsc_max_delay ];
    ];
  print_endline
    "paper shape (Section III-B): Virtual Clock makes the adaptive flow \
     pay back the idle bandwidth it consumed — its rate collapses far \
     below the reserved share and its delay spikes; under H-FSC it \
     keeps its full share from the first instant, so adapting is safe."
