module Sc = Curve.Service_curve

type result = {
  s1_window_bytes : float;
  s1_fluid_window_bytes : float;
  s1_max_delay : float;
  s1_bound : float;
  s2_window_bytes : float;
  s2_fluid_window_bytes : float;
  disc_before : float;
  disc_during : float;
  t1 : float;
}

let link = 1_000_000.
let t1 = 3.0
let until = 6.0
let pkt = 500

(* s1: big real-time burst (0.6 C for 1 s), tiny fair share.
   s2 under A and s3, s4 under B are greedy from t = 0.
   Admission: 0.6 + 0.2 + 0.1 + 0.1 = C on the first piece. *)
let s1_rsc = Sc.make ~m1:(0.6 *. link) ~d:1.0 ~m2:(0.1 *. link)
let s1_fsc = Sc.linear (0.1 *. link)
let s2_fsc = Sc.linear (0.2 *. link)
let s3_fsc = Sc.linear (0.1 *. link)
let s4_fsc = Sc.linear (0.1 *. link)
let a_fsc = Sc.linear (0.3 *. link)
let b_fsc = Sc.linear (0.2 *. link)

let sources () =
  [
    Netsim.Source.saturating ~flow:1 ~rate:(1.2 *. link) ~pkt_size:pkt
      ~start:t1 ~stop:until ();
    Netsim.Source.saturating ~flow:2 ~rate:(1.2 *. link) ~pkt_size:pkt
      ~stop:until ();
    Netsim.Source.saturating ~flow:3 ~rate:(1.2 *. link) ~pkt_size:pkt
      ~stop:until ();
    Netsim.Source.saturating ~flow:4 ~rate:(1.2 *. link) ~pkt_size:pkt
      ~stop:until ();
  ]

(* Mirror the packet arrivals into the fluid ideal model. Sources are
   deterministic, so a fresh copy replays identically. *)
let fluid_services () =
  let f = Fluid.Fluid_fsc.create ~quantum:50 ~link_rate:link () in
  let a = Fluid.Fluid_fsc.add_class f ~parent:(Fluid.Fluid_fsc.root f) ~name:"A" ~fsc:a_fsc in
  let b = Fluid.Fluid_fsc.add_class f ~parent:(Fluid.Fluid_fsc.root f) ~name:"B" ~fsc:b_fsc in
  let c1 = Fluid.Fluid_fsc.add_class f ~parent:a ~name:"s1" ~fsc:s1_fsc in
  let c2 = Fluid.Fluid_fsc.add_class f ~parent:a ~name:"s2" ~fsc:s2_fsc in
  let c3 = Fluid.Fluid_fsc.add_class f ~parent:b ~name:"s3" ~fsc:s3_fsc in
  let c4 = Fluid.Fluid_fsc.add_class f ~parent:b ~name:"s4" ~fsc:s4_fsc in
  let cls_of = function 1 -> c1 | 2 -> c2 | 3 -> c3 | 4 -> c4 | _ -> assert false in
  match
    Common.fluid_replay ~fluid:f ~sources:(sources ()) ~cls_of
      ~sample_every:0.1 ~sample_classes:[ a; c1; c2 ] ~until
  with
  | [ samples_a; samples_s1; samples_s2 ] -> (samples_a, samples_s1, samples_s2)
  | _ -> assert false

let run () =
  let t = Hfsc.create ~link_rate:link () in
  let a = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"A" ~fsc:a_fsc () in
  let b = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"B" ~fsc:b_fsc () in
  let c1 = Hfsc.add_class t ~parent:a ~name:"s1" ~rsc:s1_rsc ~fsc:s1_fsc () in
  let c2 = Hfsc.add_class t ~parent:a ~name:"s2" ~fsc:s2_fsc () in
  let c3 = Hfsc.add_class t ~parent:b ~name:"s3" ~fsc:s3_fsc () in
  let c4 = Hfsc.add_class t ~parent:b ~name:"s4" ~fsc:s4_fsc () in
  let sched =
    Runtime.Engine.adapter
      (Runtime.Engine.create ~link_rate:link t
         ~flow_map:[ (1, c1); (2, c2); (3, c3); (4, c4) ]
         ())
  in
  let sim = Netsim.Sim.create ~link_rate:link ~sched () in
  let delays = Netsim.Stats.Flow_delay.attach sim in
  List.iter (Netsim.Sim.add_source sim) (sources ());
  let samples_a = ref [] in
  let s1_window = ref 0. in
  let s2_window = ref 0. in
  let next_sample = ref 0.1 in
  Netsim.Sim.on_departure sim (fun ~now served ->
      while !next_sample <= now do
        samples_a := (!next_sample, Hfsc.total_bytes a) :: !samples_a;
        next_sample := !next_sample +. 0.1
      done;
      let p = served.Sched.Scheduler.pkt in
      if now > t1 && now <= t1 +. 1.0 then begin
        if p.Pkt.Packet.flow = 1 then
          s1_window := !s1_window +. float_of_int p.Pkt.Packet.size;
        if p.Pkt.Packet.flow = 2 then
          s2_window := !s2_window +. float_of_int p.Pkt.Packet.size
      end);
  Netsim.Sim.run sim ~until;
  while !next_sample <= until do
    samples_a := (!next_sample, Hfsc.total_bytes a) :: !samples_a;
    next_sample := !next_sample +. 0.1
  done;
  let samples_a = List.rev !samples_a in
  let fluid_a, fluid_s1, fluid_s2 = fluid_services () in
  let in_window lo hi = List.filter (fun (ts, _) -> ts > lo && ts <= hi) in
  let disc lo hi =
    Fluid.Discrepancy.max_abs
      (in_window lo hi samples_a)
      (in_window lo hi fluid_a)
  in
  let window_of series =
    let value_at at =
      List.fold_left (fun acc (ts, s) -> if ts <= at then s else acc) 0. series
    in
    value_at (t1 +. 1.0) -. value_at t1
  in
  let s1_max_delay =
    Common.max_delay (Netsim.Stats.Flow_delay.find delays 1)
  in
  {
    s1_window_bytes = !s1_window;
    s1_fluid_window_bytes = window_of fluid_s1;
    s2_window_bytes = !s2_window;
    s2_fluid_window_bytes = window_of fluid_s2;
    s1_max_delay;
    (* s1 is saturating, so per-packet delay is queueing-dominated and
       unbounded; the meaningful Theorem-2 check is on service, done via
       the window bytes. Report the burst entitlement as the bound. *)
    s1_bound = Sc.eval s1_rsc 1.0;
    disc_before = disc 0.5 t1;
    disc_during = disc t1 (t1 +. 1.0);
    t1;
  }

let print r =
  Common.section "E2: leaf guarantee vs ideal link-sharing (Fig. 3)";
  Common.table
    ~header:[ "quantity"; "H-FSC"; "fluid ideal (FSC model)" ]
    [
      [ "s1 service in (t1, t1+1]";
        Printf.sprintf "%.0f B" r.s1_window_bytes;
        Printf.sprintf "%.0f B" r.s1_fluid_window_bytes ];
      [ "s2 (sibling) service in (t1, t1+1]";
        Printf.sprintf "%.0f B" r.s2_window_bytes;
        Printf.sprintf "%.0f B" r.s2_fluid_window_bytes ];
      [ "interior-A max discrepancy before t1";
        Printf.sprintf "%.0f B" r.disc_before; "-" ];
      [ "interior-A max discrepancy during burst";
        Printf.sprintf "%.0f B" r.disc_during; "-" ];
    ];
  Printf.printf
    "paper shape: the real-time criterion delivers s1's burst (>= %.0f B \
     vs the ~%.0f B its fair share would allow) and the sibling leaf s2 \
     pays for it — while the interior classes still track the ideal FSC \
     model closely (Section III-C tradeoff resolved in favour of leaf \
     guarantees, with interior discrepancy minimized).\n"
    r.s1_bound r.s1_fluid_window_bytes
