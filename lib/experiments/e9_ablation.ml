module Sc = Curve.Service_curve

type vt_row = { policy : string; c_bytes : float; ab_gap : float }

type result = {
  vt_rows : vt_row list;
  eligible_violation_paper : float;
  eligible_violation_ablation : float;
}

let link = 1_000_000.

(* --- (a) vt-initialization policies ------------------------------- *)

(* A and B greedy throughout; C churns on/off once a second. The knob
   changes where C re-enters the virtual-time order, i.e. how much
   early service it gets each time it rejoins; we record C's total
   share and the residual A/B imbalance. *)
let vt_run policy =
  let t = Hfsc.create ~vt_policy:policy ~link_rate:link () in
  let third = Sc.linear (link /. 3.) in
  let a = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"A" ~fsc:third () in
  let b = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"B" ~fsc:third () in
  let c = Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"C" ~fsc:third () in
  let sched =
    Runtime.Engine.adapter
      (Runtime.Engine.create ~link_rate:link t
         ~flow_map:[ (1, a); (2, b); (3, c) ]
         ())
  in
  let until = 10.0 in
  let sources =
    Netsim.Source.saturating ~flow:1 ~rate:(0.5 *. link) ~pkt_size:1000
      ~stop:until ()
    :: Netsim.Source.saturating ~flow:2 ~rate:(0.5 *. link) ~pkt_size:1000
         ~stop:until ()
    :: List.init 9 (fun k ->
           let start = 1.0 +. float_of_int k in
           Netsim.Source.saturating ~flow:3 ~rate:(0.5 *. link)
             ~pkt_size:1000 ~start ~stop:(start +. 0.5) ())
  in
  let sim = Netsim.Sim.create ~link_rate:link ~sched () in
  List.iter (Netsim.Sim.add_source sim) sources;
  let ab_gap = ref 0. in
  Netsim.Sim.on_departure sim (fun ~now:_ _ ->
      let gap =
        Float.abs (Hfsc.total_bytes a -. Hfsc.total_bytes b) /. (link /. 3.)
      in
      if gap > !ab_gap then ab_gap := gap);
  Netsim.Sim.run sim ~until;
  (Hfsc.total_bytes c, !ab_gap)

(* --- (b) eligible-curve shape ------------------------------------- *)

(* s1: convex rsc with a deferred ramp; s2: concave rsc waking exactly
   when s1's ramp begins; s4: greedy best-effort absorbing the rest.
   Without the paper's pre-funding eligible curve, s1's deferred demand
   and s2's burst collide and some leaf curve is violated. *)
let s1_rsc = Sc.make ~m1:0. ~d:1.0 ~m2:(0.6 *. link)
let s2_rsc = Sc.make ~m1:(0.9 *. link) ~d:1.0 ~m2:(0.35 *. link)

let eligible_run policy =
  let t = Hfsc.create ~eligible_policy:policy ~link_rate:link () in
  let s1 =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"s1" ~rsc:s1_rsc
      ~fsc:(Sc.linear 1e4) ()
  in
  let s2 =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"s2" ~rsc:s2_rsc
      ~fsc:(Sc.linear 1e4) ()
  in
  let s4 =
    Hfsc.add_class t ~parent:(Hfsc.root t) ~name:"be"
      ~fsc:(Sc.linear (0.98 *. link)) ()
  in
  let sched =
    Runtime.Engine.adapter
      (Runtime.Engine.create ~link_rate:link t
         ~flow_map:[ (1, s1); (2, s2); (4, s4) ]
         ())
  in
  let until = 4.0 in
  let t2 = 1.0 in
  let sources =
    [
      Netsim.Source.saturating ~flow:1 ~rate:(0.8 *. link) ~pkt_size:500
        ~stop:until ();
      Netsim.Source.saturating ~flow:2 ~rate:(1.2 *. link) ~pkt_size:500
        ~start:t2 ~stop:until ();
      Netsim.Source.saturating ~flow:4 ~rate:(1.2 *. link) ~pkt_size:500
        ~stop:until ();
    ]
  in
  let sim = Netsim.Sim.create ~link_rate:link ~sched () in
  List.iter (Netsim.Sim.add_source sim) sources;
  let shortfall = ref 0. in
  let check now =
    let behind cls sc a =
      Sc.eval sc (now -. a) -. Hfsc.total_bytes cls
    in
    shortfall := Float.max !shortfall (behind s1 s1_rsc 0.);
    if now > t2 then
      shortfall := Float.max !shortfall (behind s2 s2_rsc t2)
  in
  Netsim.Sim.on_departure sim (fun ~now _ -> check now);
  Netsim.Sim.run sim ~until;
  !shortfall

let run () =
  let policies =
    [ ("mean (paper)", Hfsc.Vt_mean); ("min", Hfsc.Vt_min);
      ("max", Hfsc.Vt_max) ]
  in
  let vt_rows =
    List.map
      (fun (name, p) ->
        let c_bytes, ab_gap = vt_run p in
        { policy = name; c_bytes; ab_gap })
      policies
  in
  {
    vt_rows;
    eligible_violation_paper = eligible_run Hfsc.Eligible_paper;
    eligible_violation_ablation = eligible_run Hfsc.Eligible_deadline;
  }

let print r =
  Common.section "E9: ablations (vt init policy; eligible-curve shape)";
  print_endline "(a) churning sibling C vs two greedy siblings A/B:";
  Common.table
    ~header:[ "vt policy"; "C service (B)"; "worst A/B gap (virt. s)" ]
    (List.map
       (fun { policy; c_bytes; ab_gap } ->
         [ policy; Printf.sprintf "%.0f" c_bytes;
           Printf.sprintf "%.4f" ab_gap ])
       r.vt_rows);
  print_endline "(b) worst leaf service-curve shortfall (bytes):";
  Common.table
    ~header:[ "eligible policy"; "shortfall" ]
    [
      [ "paper (pre-fund convex)";
        Printf.sprintf "%.0f" r.eligible_violation_paper ];
      [ "ablation (eligible = deadline)";
        Printf.sprintf "%.0f" r.eligible_violation_ablation ];
    ];
  print_endline
    "paper shape: the paper's eligible rule keeps the shortfall within \
     a couple of packets; the ablation lets deferred convex demand \
     collide with a concave burst and violates a leaf curve."
