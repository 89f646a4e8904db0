module Sc = Curve.Service_curve

type result = {
  sced_s1_window_bytes : float;
  hfsc_s1_window_bytes : float;
  sced_lockout : float;
  hfsc_lockout : float;
  t1 : float;
  window : float;
}

let link = 1_000_000.
let t1 = 2.0
let window = 0.8
let pkt = 1000

(* S1 convex, S2 concave, intersecting as in Fig. 2(a):
   m1(1) + m1(2) = m2(1) + m2(2) = C, and m2(1) + m1(2) > C so both
   peaks cannot be honoured at once. *)
let s1 = Sc.make ~m1:(0.3 *. link) ~d:1.0 ~m2:(0.9 *. link)
let s2 = Sc.make ~m1:(0.7 *. link) ~d:1.0 ~m2:(0.1 *. link)

let sources until =
  [
    Netsim.Source.saturating ~flow:1 ~rate:(1.2 *. link) ~pkt_size:pkt
      ~stop:until ();
    Netsim.Source.saturating ~flow:2 ~rate:(1.2 *. link) ~pkt_size:pkt
      ~start:t1 ~stop:until ();
  ]

let measure sched =
  let until = t1 +. 2.0 in
  let s1_window = ref 0. in
  let last_s1 = ref 0. in
  let max_gap = ref 0. in
  let sim = Netsim.Sim.create ~link_rate:link ~sched () in
  List.iter (Netsim.Sim.add_source sim) (sources until);
  Netsim.Sim.on_departure sim (fun ~now served ->
      let p = served.Sched.Scheduler.pkt in
      if p.Pkt.Packet.flow = 1 then begin
        if now > t1 then begin
          if now <= t1 +. window then
            s1_window := !s1_window +. float_of_int p.Pkt.Packet.size;
          if now -. !last_s1 > !max_gap then max_gap := now -. !last_s1
        end;
        last_s1 := now
      end);
  Netsim.Sim.run sim ~until;
  (!s1_window, !max_gap)

let run () =
  let sced = Sched.Sced.create ~curves:[ (1, s1); (2, s2) ] () in
  let sced_bytes, sced_lockout = measure sced in
  let t = Hfsc.create ~link_rate:link () in
  let c1 = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"s1" ~rsc:s1 ~fsc:s1 () in
  let c2 = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"s2" ~rsc:s2 ~fsc:s2 () in
  let hfsc =
    Runtime.Engine.adapter
      (Runtime.Engine.create ~link_rate:link t ~flow_map:[ (1, c1); (2, c2) ] ())
  in
  let hfsc_bytes, hfsc_lockout = measure hfsc in
  {
    sced_s1_window_bytes = sced_bytes;
    hfsc_s1_window_bytes = hfsc_bytes;
    sced_lockout;
    hfsc_lockout;
    t1;
    window;
  }

let print r =
  Common.section "E1: SCED punishment vs H-FSC fairness (Fig. 2)";
  Printf.printf
    "session 2 wakes at t1=%.1fs; session 1 had the link to itself before.\n"
    r.t1;
  Common.table
    ~header:
      [ "scheduler"; "s1 bytes in (t1, t1+0.8s]"; "s1 longest service gap" ]
    [
      [ "SCED"; Printf.sprintf "%.0f" r.sced_s1_window_bytes;
        Common.pp_delay r.sced_lockout ];
      [ "H-FSC"; Printf.sprintf "%.0f" r.hfsc_s1_window_bytes;
        Common.pp_delay r.hfsc_lockout ];
    ];
  (* Under SCED, session 1's next deadline is S1^-1(the full-link service
     it already received) and session 2 owns the link (at its first slope)
     until its own deadlines pass that point. *)
  let predicted =
    (Sc.inverse s1 (link *. r.t1) -. r.t1) *. (s2 : Sc.t).Sc.m1 /. link
  in
  Printf.printf
    "paper shape: SCED starves session 1 for ~%.2fs after t1; H-FSC \
     serves it immediately.\n"
    predicted
