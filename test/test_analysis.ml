(* Tests for the analysis toolkit (lib/analysis): arrival envelopes,
   Theorem 1+2 delay bounds, the SCED admission condition and
   multi-hop bounds. *)

module Sc = Curve.Service_curve
module P = Curve.Piecewise

let qt ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- arrival curves --------------------------------------------------- *)

let test_arrival_cbr () =
  let a = Analysis.Arrival_curve.of_cbr ~rate:1000. ~pkt_size:100 in
  Alcotest.(check (float 1e-9)) "burst of one packet" 100. (P.eval a 0.);
  Alcotest.(check (float 1e-9)) "rate" 1100. (P.eval a 1.)

let test_arrival_on_off () =
  let a =
    Analysis.Arrival_curve.of_on_off ~peak_rate:1000. ~mean_rate:100.
      ~burst:500.
  in
  (* short horizon limited by the peak, long by the mean+burst *)
  Alcotest.(check (float 1e-9)) "peak limited at 0.1" 100. (P.eval a 0.1);
  Alcotest.(check (float 1e-9)) "mean limited at 10" 1500. (P.eval a 10.);
  Alcotest.(check bool) "peak < mean rejected" true
    (try
       ignore
         (Analysis.Arrival_curve.of_on_off ~peak_rate:10. ~mean_rate:100.
            ~burst:1.);
       false
     with Invalid_argument _ -> true)

(* --- delay bounds ------------------------------------------------------ *)

let test_bound_token_bucket_linear () =
  (* sigma/r for a token bucket through a rate-r curve *)
  let alpha = Analysis.Arrival_curve.token_bucket ~sigma:1000. ~rho:100. in
  let beta = Sc.linear 500. in
  Alcotest.(check (float 1e-9)) "sigma/r" 2.
    (Analysis.Delay_bound.fluid ~alpha ~beta)

let test_bound_concave_two_piece () =
  (* one-packet burst against its of_requirements curve: exactly dmax *)
  let alpha = Analysis.Arrival_curve.of_cbr ~rate:8000. ~pkt_size:160 in
  let beta = Sc.of_requirements ~umax:160. ~dmax:0.005 ~rate:8000. in
  Alcotest.(check (float 1e-9)) "dmax" 0.005
    (Analysis.Delay_bound.fluid ~alpha ~beta)

let test_bound_hfsc_adds_lmax () =
  let alpha = Analysis.Arrival_curve.of_cbr ~rate:8000. ~pkt_size:160 in
  let beta = Sc.of_requirements ~umax:160. ~dmax:0.005 ~rate:8000. in
  Alcotest.(check (float 1e-12)) "fluid + Lmax/R"
    (0.005 +. (1500. /. 1e6))
    (Analysis.Delay_bound.hfsc ~alpha ~beta ~lmax:1500 ~link_rate:1e6)

let test_bound_validation () =
  let alpha = P.linear ~slope:1. in
  let beta = Sc.linear 1. in
  Alcotest.(check bool) "bad lmax" true
    (try
       ignore (Analysis.Delay_bound.hfsc ~alpha ~beta ~lmax:0 ~link_rate:1.);
       false
     with Invalid_argument _ -> true)

let coupled_rate_solves =
  qt ~count:50 "coupled_linear_rate is the minimal rate"
    QCheck2.Gen.(
      pair (float_range 100. 10_000.) (float_range 0.001 0.5))
    (fun (sigma, target) ->
      let alpha = Analysis.Arrival_curve.token_bucket ~sigma ~rho:100. in
      let r = Analysis.Delay_bound.coupled_linear_rate ~alpha ~target_delay:target in
      (* analytic answer: delay = sigma / r, so r = sigma / target
         (when that rate also covers rho) *)
      let expect = Float.max (sigma /. target) 100. in
      Float.abs (r -. expect) /. expect < 1e-6
      &&
      let d r = P.hdev alpha (P.of_service_curve (Sc.linear r)) in
      d r <= target +. 1e-9 && d (r *. 0.99) > target -. 1e-9)

let test_coupled_rate_factor () =
  (* the paper's motivating over-reservation: a 160 B / 8 kB/s audio flow
     needing 10 ms must reserve 2x its rate under WFQ *)
  let alpha = Analysis.Arrival_curve.of_cbr ~rate:8000. ~pkt_size:160 in
  let r =
    Analysis.Delay_bound.coupled_linear_rate ~alpha ~target_delay:0.01
  in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f = 2x" r)
    true
    (Float.abs (r -. 16_000.) < 10.)

(* --- admission ---------------------------------------------------------- *)

let vb = Analysis.Admission.violating_breakpoint
let on_link r = P.linear ~slope:r

let test_admission_exact_fit () =
  let c1 = Sc.make ~m1:7e5 ~d:1. ~m2:1e5 in
  let c2 = Sc.make ~m1:3e5 ~d:1. ~m2:9e5 in
  (* first pieces sum to 1e6 = link rate; second pieces too *)
  Alcotest.(check bool) "tight set admissible" true
    (vb ~capacity:(on_link 1e6) [ c1; c2 ] = None)

let test_admission_over () =
  let c1 = Sc.make ~m1:8e5 ~d:1. ~m2:1e5 in
  let c2 = Sc.make ~m1:3e5 ~d:1. ~m2:9e5 in
  match vb ~capacity:(on_link 1e6) [ c1; c2 ] with
  | Some (t, demand, capacity) ->
      Alcotest.(check (float 0.)) "at the knee" 1. t;
      Alcotest.(check (float 1e-6)) "1e5 bytes over" 1e5 (demand -. capacity)
  | None -> Alcotest.fail "oversubscribed burst admitted"

let test_admission_rate_only_over () =
  (* rates exceed the link even though bursts fit *)
  let cs = [ Sc.linear 6e5; Sc.linear 6e5 ] in
  match vb ~capacity:(on_link 1e6) cs with
  | Some (t, demand_rate, link_rate) ->
      Alcotest.(check (float 0.)) "asymptotic" infinity t;
      Alcotest.(check (float 1e-9)) "utilization" 1.2 (demand_rate /. link_rate)
  | None -> Alcotest.fail "rate oversubscription admitted"

let admission_scaling =
  qt "admissible sets stay admissible when scaled down"
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (triple (float_range 0. 3e5) (float_range 0.01 2.) (float_range 0. 3e5)))
    (fun specs ->
      let cs = List.map (fun (m1, d, m2) -> Sc.make ~m1 ~d ~m2) specs in
      let n = float_of_int (List.length cs) in
      let scaled = List.map (fun c -> Sc.scale c (1. /. n)) cs in
      (* each curve has slopes <= 3e5 <= link, so the 1/n scaling makes
         the sum admissible on a 3e5 link *)
      vb ~capacity:(on_link 3e5) scaled = None)

let test_hierarchy_consistent () =
  let parent = P.of_service_curve (Sc.linear 1e6) in
  Alcotest.(check bool) "fits" true
    (vb ~capacity:parent [ Sc.linear 6e5; Sc.linear 4e5 ] = None);
  Alcotest.(check bool) "does not fit" false
    (vb ~capacity:parent [ Sc.linear 6e5; Sc.linear 5e5 ] = None)

(* --- admission: the knee sweep against the pairwise fold --------------- *)

(* The reference is the sum Admission used to build — a pairwise
   Piecewise.sum fold — under the same verdict rules. *)
let fold_sum curves =
  List.fold_left (fun acc sc -> P.sum acc (P.of_service_curve sc)) P.zero curves

let ref_violating_breakpoint ~capacity curves =
  let demand = fold_sum curves in
  let xs =
    List.sort_uniq Float.compare
      (List.map (fun (x, _, _) -> x) (P.segments demand @ P.segments capacity))
  in
  let worst =
    List.fold_left
      (fun acc x ->
        let d = P.eval demand x and c = P.eval capacity x in
        match acc with
        | Some (_, d0, c0) when d0 -. c0 >= d -. c -> acc
        | _ when d -. c > 1e-6 -> Some (x, d, c)
        | acc -> acc)
      None xs
  in
  match worst with
  | Some _ as v -> v
  | None ->
      let dr = P.final_slope demand and cr = P.final_slope capacity in
      if dr > cr +. 1e-9 then Some (infinity, dr, cr) else None

let ref_admissible ~link_rate curves =
  P.vdev (fold_sum curves) (P.linear ~slope:link_rate) <= 1e-6

let ref_hierarchy_consistent ~parent children =
  P.vdev (fold_sum children) (P.of_service_curve parent) <= 1e-6

let close a b =
  a = b || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let same_violation a b =
  match (a, b) with
  | None, None -> true
  | Some (t, d, c), Some (t', d', c') -> t = t' && close d d' && close c c'
  | _ -> false

(* Concave, convex and linear curves (including the degenerate d = 0
   and m1 = m2 shapes), with knees drawn from a small shared pool or
   anywhere, against a linear and a two-piece capacity scaled around
   the demand so that both verdicts occur. *)
let sweep_case_gen =
  let open QCheck2.Gen in
  let rate = float_range 0. 1e4 in
  let knee = oneof [ oneofl [ 0.001; 0.0025; 0.005; 0.01 ]; float_range 1e-4 0.05 ] in
  let curve =
    rate >>= fun a ->
    rate >>= fun b ->
    knee >>= fun d ->
    oneofl
      [
        Sc.make ~m1:(Float.max a b) ~d ~m2:(Float.min a b);
        Sc.make ~m1:(Float.min a b) ~d ~m2:(Float.max a b);
        Sc.linear a;
        Sc.make ~m1:a ~d:0. ~m2:b;
        Sc.make ~m1:a ~d ~m2:a;
      ]
  in
  list_size (int_range 0 300) curve >>= fun curves ->
  (* from 1, so that an empty list still gets a positive capacity *)
  let sum f = List.fold_left (fun s c -> s +. f c) 1. curves in
  (* not [float_range 0.8 1.2]: QCheck shrinks that toward 0.8 inside
     an offset range of width 0.4 and raises Invalid_argument instead of
     reporting a counterexample *)
  let scale = map (fun x -> 0.8 +. x) (float_bound_inclusive 0.4) in
  scale >>= fun k1 ->
  scale >>= fun k2 ->
  knee >>= fun d ->
  scale >>= fun kr ->
  let parent =
    Sc.make ~m1:(k1 *. sum (fun c -> c.Sc.m1)) ~d ~m2:(k2 *. sum Sc.rate)
  in
  return (curves, parent, kr *. sum Sc.rate)

let sweep_matches_fold =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"knee sweep = pairwise fold (verdicts, t, demand)"
       ~print:(fun (curves, parent, r) ->
         Format.asprintf "link %h, parent %a, curves [%a]" r Sc.pp parent
           (Format.pp_print_list ~pp_sep:Format.pp_print_space Sc.pp)
           curves)
       sweep_case_gen
       (fun (curves, parent, r) ->
         let check capacity =
           same_violation
             (Analysis.Admission.violating_breakpoint ~capacity curves)
             (ref_violating_breakpoint ~capacity curves)
         in
         check (P.of_service_curve parent)
         && check (P.linear ~slope:r)
         && (vb ~capacity:(on_link r) curves = None)
            = ref_admissible ~link_rate:r curves
         && (vb ~capacity:(P.of_service_curve parent) curves = None)
            = ref_hierarchy_consistent ~parent curves))

(* A fully allocated link whose verdict rests on the last ulp: the tail
   rates sum to exactly the link's 0.9 in list order, and to
   0.9000000000000001 in knee order or as m1 + Σ(m2 − m1). The sweep
   must keep the list order's sum, as the fold did: a capacity that
   fits every breakpoint but not the tail makes [violating_breakpoint]
   report that sum. *)
let test_admission_summation_order () =
  let cs =
    [
      Sc.make ~m1:0.15 ~d:3. ~m2:0.3;
      Sc.make ~m1:0.05 ~d:2. ~m2:0.2;
      Sc.make ~m1:0.1 ~d:1. ~m2:0.4;
    ]
  in
  Alcotest.(check bool) "the order of summation matters here" true
    (0.3 +. 0.2 +. 0.4 = 0.9 && 0.4 +. 0.2 +. 0.3 > 0.9);
  Alcotest.(check bool) "fold: admissible" true (ref_admissible ~link_rate:0.9 cs);
  Alcotest.(check bool) "sweep: admissible" true
    (vb ~capacity:(on_link 0.9) cs = None);
  Alcotest.(check bool) "sweep: fits a 0.9 parent" true
    (vb ~capacity:(P.of_service_curve (Sc.linear 0.9)) cs = None);
  match vb ~capacity:(P.of_service_curve (Sc.make ~m1:10. ~d:3. ~m2:0.5)) cs with
  | Some (t, demand_rate, _) ->
      Alcotest.(check (float 0.)) "sweep: only the tail escapes" infinity t;
      Alcotest.(check (float 0.)) "sweep: tail summed in list order" 0.9
        demand_rate
  | None -> Alcotest.fail "a 0.5 tail admitted 0.9 of demand"

(* --- multi-hop --------------------------------------------------------- *)

let test_multihop_latencies_add () =
  (* n identical rate-latency hops: latency n*L, burst paid once *)
  let alpha = Analysis.Arrival_curve.token_bucket ~sigma:1000. ~rho:100. in
  let hop = Sc.make ~m1:0. ~d:0.01 ~m2:500. in
  let bound n =
    Analysis.Multi_hop.bound ~alpha
      ~hops:(List.init n (fun _ -> (hop, 1e6)))
      ~lmax:1000
  in
  (* single hop: 10ms latency + 1000/500 burst + 1ms packetization *)
  Alcotest.(check (float 1e-9)) "one hop" (0.01 +. 2. +. 0.001) (bound 1);
  (* three hops: only latency and packetization triple *)
  Alcotest.(check (float 1e-9)) "three hops" (0.03 +. 2. +. 0.003) (bound 3)

let test_multihop_pay_bursts_once () =
  let alpha = Analysis.Arrival_curve.token_bucket ~sigma:1000. ~rho:100. in
  let hops = List.init 3 (fun _ -> (Sc.make ~m1:0. ~d:0.01 ~m2:500., 1e6)) in
  let e2e = Analysis.Multi_hop.bound ~alpha ~hops ~lmax:1000 in
  let naive =
    Analysis.Multi_hop.sum_of_per_hop_bounds ~alpha ~hops ~lmax:1000
  in
  Alcotest.(check bool)
    (Printf.sprintf "e2e %.3f < naive %.3f" e2e naive)
    true (e2e < naive);
  (* the naive bound pays the 2s burst term at every hop *)
  Alcotest.(check bool) "gap ~ 2 extra bursts" true (naive -. e2e > 2.)

let test_multihop_convexify () =
  let concave = Sc.make ~m1:1000. ~d:1. ~m2:100. in
  let c = Analysis.Multi_hop.convexify concave in
  Alcotest.(check bool) "linear at long-run rate" true
    (Curve.Service_curve.is_linear c);
  Alcotest.(check (float 0.)) "rate kept" 100. (Curve.Service_curve.rate c);
  let convex = Sc.make ~m1:0. ~d:1. ~m2:100. in
  Alcotest.(check bool) "convex unchanged" true
    (Curve.Service_curve.equal convex (Analysis.Multi_hop.convexify convex))

let test_multihop_validation () =
  let alpha = P.linear ~slope:1. in
  Alcotest.(check bool) "no hops" true
    (try
       ignore (Analysis.Multi_hop.bound ~alpha ~hops:[] ~lmax:1);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "analysis"
    [
      ( "arrival_curve",
        [
          Alcotest.test_case "cbr" `Quick test_arrival_cbr;
          Alcotest.test_case "on-off" `Quick test_arrival_on_off;
        ] );
      ( "delay_bound",
        [
          Alcotest.test_case "token bucket / linear" `Quick
            test_bound_token_bucket_linear;
          Alcotest.test_case "concave two-piece" `Quick
            test_bound_concave_two_piece;
          Alcotest.test_case "hfsc adds Lmax/R" `Quick
            test_bound_hfsc_adds_lmax;
          Alcotest.test_case "validation" `Quick test_bound_validation;
          Alcotest.test_case "2x over-reservation example" `Quick
            test_coupled_rate_factor;
          coupled_rate_solves;
        ] );
      ( "admission",
        [
          Alcotest.test_case "exact fit" `Quick test_admission_exact_fit;
          Alcotest.test_case "oversubscribed burst" `Quick test_admission_over;
          Alcotest.test_case "rate oversubscription" `Quick
            test_admission_rate_only_over;
          Alcotest.test_case "hierarchy consistency" `Quick
            test_hierarchy_consistent;
          admission_scaling;
          Alcotest.test_case "tail kept in list order" `Quick
            test_admission_summation_order;
          sweep_matches_fold;
        ] );
      ( "multi_hop",
        [
          Alcotest.test_case "latencies add, burst once" `Quick
            test_multihop_latencies_add;
          Alcotest.test_case "pay bursts only once" `Quick
            test_multihop_pay_bursts_once;
          Alcotest.test_case "convexify" `Quick test_multihop_convexify;
          Alcotest.test_case "validation" `Quick test_multihop_validation;
        ] );
    ]
