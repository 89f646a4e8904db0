(* Integration tests: scaled-down versions of the DESIGN.md experiments
   asserting their paper-shape claims end to end. These are the "did we
   reproduce the paper" tests; the full-size runs are
   `hfsc_sim run all`. *)

module Sc = Curve.Service_curve

(* E1: SCED punishes, H-FSC does not. *)
let test_e1_shape () =
  let r = Experiments.E1_punishment.run () in
  Alcotest.(check bool)
    (Printf.sprintf "SCED lockout %.3fs > 0.3s" r.Experiments.E1_punishment.sced_lockout)
    true
    (r.Experiments.E1_punishment.sced_lockout > 0.3);
  Alcotest.(check bool)
    (Printf.sprintf "H-FSC gap %.4fs < 0.05s" r.Experiments.E1_punishment.hfsc_lockout)
    true
    (r.Experiments.E1_punishment.hfsc_lockout < 0.05);
  Alcotest.(check bool) "H-FSC window service >> SCED's" true
    (r.Experiments.E1_punishment.hfsc_s1_window_bytes
    > 2. *. r.Experiments.E1_punishment.sced_s1_window_bytes)

(* E2: leaf burst honored; interior tracks the fluid ideal. *)
let test_e2_shape () =
  let r = Experiments.E2_tradeoff.run () in
  Alcotest.(check bool) "s1 got its real-time burst" true
    (r.Experiments.E2_tradeoff.s1_window_bytes
    >= 0.9 *. r.Experiments.E2_tradeoff.s1_bound);
  Alcotest.(check bool) "fluid would give much less" true
    (r.Experiments.E2_tradeoff.s1_fluid_window_bytes
    <= 0.5 *. r.Experiments.E2_tradeoff.s1_window_bytes);
  Alcotest.(check bool) "interior discrepancy stays small" true
    (r.Experiments.E2_tradeoff.disc_during <= 5_000.)

(* E3/E4: H-FSC delay within bound and well below H-PFQ's. *)
let test_e3_shape () =
  let r = Experiments.E3_delay.run ~duration:5. () in
  let open Experiments.E3_delay in
  Alcotest.(check bool) "audio within analytic bound" true
    (r.hfsc_audio.max <= r.audio_bound +. 1e-9);
  Alcotest.(check bool) "video within analytic bound" true
    (r.hfsc_video.max <= r.video_bound +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "hpfq audio %.4f > 3x hfsc %.4f" r.hpfq_audio.max
       r.hfsc_audio.max)
    true
    (r.hpfq_audio.max > 3. *. r.hfsc_audio.max);
  Alcotest.(check bool) "all audio packets arrived" true
    (r.hfsc_audio.count > 0 && r.hpfq_audio.count = r.hfsc_audio.count)

(* E6: decoupling — both rates meet the target under H-FSC; WFQ's slow
   session misses it. *)
let test_e6_shape () =
  let r = Experiments.E6_decoupling.run ~duration:5. () in
  let open Experiments.E6_decoupling in
  Alcotest.(check bool) "slow session within target" true
    (r.hfsc_slow_max <= r.bound +. 1e-9);
  Alcotest.(check bool) "fast session within target" true
    (r.hfsc_fast_max <= r.bound +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "WFQ slow %.4f misses the %.3f target" r.wfq_slow_max
       r.dmax)
    true
    (r.wfq_slow_max > r.dmax);
  Alcotest.(check bool) "over-reservation factor ~2" true
    (Float.abs ((r.wfq_required_rate /. r.slow_rate) -. 2.) < 0.05)

(* E8: every measured max below its bound. *)
let test_e8_shape () =
  let r = Experiments.E8_bounds.run ~duration:5. () in
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f <= %.4f" row.Experiments.E8_bounds.label
           row.Experiments.E8_bounds.measured_max
           row.Experiments.E8_bounds.packet_bound)
        true row.Experiments.E8_bounds.ok)
    r.Experiments.E8_bounds.rows

(* E9(b): the ablated eligible curve violates a leaf curve; the paper's
   rule does not. *)
let test_e9_eligible_shape () =
  let r = Experiments.E9_ablation.run () in
  Alcotest.(check bool)
    (Printf.sprintf "paper shortfall %.0f <= 2 pkts"
       r.Experiments.E9_ablation.eligible_violation_paper)
    true
    (r.Experiments.E9_ablation.eligible_violation_paper <= 1_000.);
  Alcotest.(check bool)
    (Printf.sprintf "ablation shortfall %.0f >= 50x paper's"
       r.Experiments.E9_ablation.eligible_violation_ablation)
    true
    (r.Experiments.E9_ablation.eligible_violation_ablation
    >= 50. *. Float.max 1. r.Experiments.E9_ablation.eligible_violation_paper)

(* E10: the cap binds in both load patterns. *)
let test_e10_shape () =
  let r = Experiments.E10_ulimit.run () in
  let open Experiments.E10_ulimit in
  Alcotest.(check bool) "capped under cap (contended)" true
    (r.capped_rate <= 1.02 *. r.cap);
  Alcotest.(check bool) "capped near cap (contended)" true
    (r.capped_rate >= 0.95 *. r.cap);
  Alcotest.(check bool) "capped at cap when alone" true
    (Float.abs (r.solo_rate -. r.cap) <= 0.05 *. r.cap);
  Alcotest.(check bool) "sibling absorbs the rest" true
    (r.sibling_rate >= 0.95 *. (Experiments.Common.mbit 45. -. r.cap))

(* E5 in miniature: CMU's idle bandwidth goes to its sibling, not to
   U.Pitt. (The full version with the fluid comparison is E5 in
   `hfsc_sim run all`.) *)
let test_e5_mini () =
  let link = Experiments.Common.link_rate in
  let fig = Experiments.Common.fig1_hfsc () in
  let sources =
    [
      Netsim.Source.cbr ~flow:Experiments.Common.flow_audio
        ~rate:Experiments.Common.audio_rate
        ~pkt_size:Experiments.Common.audio_pkt ~stop:6. ();
      (* video greedy so CMU can absorb its own slack *)
      Netsim.Source.saturating ~flow:Experiments.Common.flow_video
        ~rate:(Experiments.Common.mbit 30.)
        ~pkt_size:1000 ~stop:6. ();
      (* CMU data idle after t=2 *)
      Netsim.Source.saturating ~flow:Experiments.Common.flow_cmu_data
        ~rate:(Experiments.Common.mbit 24.)
        ~pkt_size:1000 ~stop:2. ();
      Netsim.Source.saturating ~flow:Experiments.Common.flow_pitt_data
        ~rate:(Experiments.Common.mbit 45.)
        ~pkt_size:1000 ~stop:6. ();
    ]
  in
  let sim = Netsim.Sim.create ~link_rate:link ~sched:fig.Experiments.Common.sched () in
  List.iter (Netsim.Sim.add_source sim) sources;
  let video = ref 0. and pitt = ref 0. in
  Netsim.Sim.on_departure sim (fun ~now served ->
      let p = served.Sched.Scheduler.pkt in
      if now > 3. && now <= 6. then begin
        if p.Pkt.Packet.flow = Experiments.Common.flow_video then
          video := !video +. float_of_int p.Pkt.Packet.size;
        if p.Pkt.Packet.flow = Experiments.Common.flow_pitt_data then
          pitt := !pitt +. float_of_int p.Pkt.Packet.size
      end);
  Netsim.Sim.run sim ~until:6.;
  let video_rate = !video /. 3. and pitt_rate = !pitt /. 3. in
  Alcotest.(check bool)
    (Printf.sprintf "video absorbed CMU's share (%.1f Mb/s)"
       (video_rate *. 8. /. 1e6))
    true
    (video_rate >= 0.95 *. Experiments.Common.mbit 24.);
  Alcotest.(check bool)
    (Printf.sprintf "pitt stayed at ~20 Mb/s (%.1f)" (pitt_rate *. 8. /. 1e6))
    true
    (Float.abs (pitt_rate -. Experiments.Common.mbit 20.)
    <= 0.05 *. Experiments.Common.mbit 20.)

(* E12: measured <= concatenation bound <= naive sum. *)
let test_e12_shape () =
  let r = Experiments.E12_tandem.run ~duration:8. () in
  let open Experiments.E12_tandem in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.4f <= e2e bound %.4f" r.measured_max
       r.e2e_bound)
    true
    (r.measured_max <= r.e2e_bound +. 1e-9);
  Alcotest.(check bool) "e2e bound < naive sum" true
    (r.e2e_bound < r.per_hop_sum);
  Alcotest.(check bool) "traffic delivered" true (r.delivered > 0.)

(* E13: the adaptive flow is punished under VC, not under H-FSC. *)
let test_e13_shape () =
  let r = Experiments.E13_adaptive.run () in
  let open Experiments.E13_adaptive in
  Alcotest.(check bool)
    (Printf.sprintf "VC rate %.0f < half of H-FSC's %.0f" r.vc_recovery_rate
       r.hfsc_recovery_rate)
    true
    (r.vc_recovery_rate < 0.5 *. r.hfsc_recovery_rate);
  Alcotest.(check bool) "VC delay spike" true
    (r.vc_max_delay > 3. *. r.hfsc_max_delay);
  Alcotest.(check bool) "H-FSC keeps a solid share" true
    (r.hfsc_recovery_rate > 0.5 *. r.guaranteed_rate)

let () =
  Alcotest.run "integration"
    [
      ( "experiments",
        [
          Alcotest.test_case "E1 punishment shape" `Slow test_e1_shape;
          Alcotest.test_case "E2 tradeoff shape" `Slow test_e2_shape;
          Alcotest.test_case "E3 delay shape" `Slow test_e3_shape;
          Alcotest.test_case "E5 link-sharing shape" `Slow test_e5_mini;
          Alcotest.test_case "E6 decoupling shape" `Slow test_e6_shape;
          Alcotest.test_case "E8 bounds hold" `Slow test_e8_shape;
          Alcotest.test_case "E9 eligible ablation shape" `Slow
            test_e9_eligible_shape;
          Alcotest.test_case "E10 ulimit shape" `Slow test_e10_shape;
          Alcotest.test_case "E12 tandem shape" `Slow test_e12_shape;
          Alcotest.test_case "E13 adaptive shape" `Slow test_e13_shape;
        ] );
    ]
