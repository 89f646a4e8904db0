(* Tests for the analysis toolkit (lib/analysis): arrival envelopes,
   Theorem 1+2 delay bounds, the SCED admission condition and
   multi-hop bounds. *)

module Sc = Curve.Service_curve
module P = Curve.Piecewise

(* [long_factor]: how many times [count] the long run ([QCHECK_LONG],
   the @fuzz alias) draws *)
let qt ?(count = 100) ?(long_factor = 1) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~long_factor ~name gen prop)

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

module Adm = Analysis.Admission
module Fp = Curve.Fixed_point

(* One sweep over a scope built from scratch: [None] when it fits, else
   the witness. *)
let sweep ~capacity curves =
  match Adm.fits (Adm.of_list curves) ~capacity ~remove:None ~add:None with
  | Ok () -> None
  | Error v -> Some v

let on_link r = Sc.linear r

let test_admission_exact_fit () =
  let c1 = Sc.make ~m1:7e5 ~d:1. ~m2:1e5 in
  let c2 = Sc.make ~m1:3e5 ~d:1. ~m2:9e5 in
  (* first pieces sum to 1e6 = link rate; second pieces too *)
  Alcotest.(check bool) "tight set admissible" true
    (sweep ~capacity:(on_link 1e6) [ c1; c2 ] = None)

let test_admission_over () =
  let c1 = Sc.make ~m1:8e5 ~d:1. ~m2:1e5 in
  let c2 = Sc.make ~m1:3e5 ~d:1. ~m2:9e5 in
  match sweep ~capacity:(on_link 1e6) [ c1; c2 ] with
  | Some (t, demand, capacity) ->
      Alcotest.(check (float 0.)) "at the knee" 1. t;
      Alcotest.(check (float 0.)) "1e5 bytes over" 1e5 (demand -. capacity)
  | None -> Alcotest.fail "oversubscribed burst admitted"

let test_admission_rate_only_over () =
  (* rates exceed the link even though bursts fit *)
  let cs = [ Sc.linear 6e5; Sc.linear 6e5 ] in
  match sweep ~capacity:(on_link 1e6) cs with
  | Some (t, demand_rate, link_rate) ->
      Alcotest.(check (float 0.)) "asymptotic" infinity t;
      Alcotest.(check (float 0.)) "utilization" 1.2 (demand_rate /. link_rate)
  | None -> Alcotest.fail "rate oversubscription admitted"

(* Whole-B/s slopes, so the scheduler's integers are the curves
   themselves and the 1/n scaling by integer division keeps the sum
   under the link exactly. *)
let admission_scaling =
  qt ~long_factor:50 "admissible sets stay admissible when scaled down"
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (triple (int_range 0 300_000) (float_range 0.01 2.)
           (int_range 0 300_000)))
    (fun specs ->
      let n = List.length specs in
      let scaled =
        List.map
          (fun (m1, d, m2) ->
            Sc.make ~m1:(float_of_int (m1 / n)) ~d ~m2:(float_of_int (m2 / n)))
          specs
      in
      (* each curve has slopes <= 3e5 <= link, so the 1/n scaling makes
         the sum admissible on a 3e5 link *)
      sweep ~capacity:(on_link 3e5) scaled = None)

let test_hierarchy_consistent () =
  let parent = Sc.linear 1e6 in
  Alcotest.(check bool) "fits" true
    (sweep ~capacity:parent [ Sc.linear 6e5; Sc.linear 4e5 ] = None);
  Alcotest.(check bool) "does not fit" false
    (sweep ~capacity:parent [ Sc.linear 6e5; Sc.linear 5e5 ] = None)

(* --- admission: the knee sweep against the pairwise fold --------------- *)

(* The reference is a pairwise Piecewise.sum fold of the float curves,
   under the fold's verdict rules: the largest excess, the earlier
   breakpoint on a tie, otherwise the tail rates. *)
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

(* A curve as (m1, d, m2) in hex, so a printed counterexample rebuilds
   exactly *)
let hex (c : Sc.t) = Printf.sprintf "(%h, %h, %h)" c.m1 c.d c.m2

(* Concave, convex and linear curves (including the degenerate d = 0
   and m1 = m2 shapes), with knees drawn from a small shared pool or
   anywhere, against a linear and a two-piece capacity scaled around
   the demand so that both verdicts occur. Every rate is a whole B/s
   and every knee a multiple of 2^-14 s, so the scheduler's integers
   are the curves themselves and every float the fold and the sweep
   compute is exact: the two must agree to the bit. *)
let sweep_case_gen =
  let open QCheck2.Gen in
  let rate = map float_of_int (int_range 0 10_000) in
  let knee =
    map
      (fun k -> ldexp (float_of_int k) (-14))
      (oneof [ oneofl [ 16; 41; 82; 164 ]; int_range 2 800 ])
  in
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
  let whole x = Float.round x in
  let parent =
    Sc.make
      ~m1:(whole (k1 *. sum (fun c -> c.Sc.m1)))
      ~d
      ~m2:(whole (k2 *. sum Sc.rate))
  in
  return (curves, parent, whole (kr *. sum Sc.rate))

let sweep_matches_fold =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~long_factor:50
       ~name:"knee sweep = pairwise fold (verdicts, t, demand)"
       ~print:(fun (curves, parent, r) ->
         Printf.sprintf "link %h, parent %s, curves [%s]" r (hex parent)
           (String.concat "; " (List.map hex curves)))
       sweep_case_gen
       (fun (curves, parent, r) ->
         let check capacity =
           sweep ~capacity curves
           = ref_violating_breakpoint
               ~capacity:(P.of_service_curve capacity)
               curves
         in
         check parent
         && check (on_link r)
         && (sweep ~capacity:(on_link r) curves = None)
            = ref_admissible ~link_rate:r curves
         && (sweep ~capacity:parent curves = None)
            = ref_hierarchy_consistent ~parent curves))

(* A fully allocated link whose float verdict rests on the last ulp:
   0.3 + 0.2 + 0.4 (x 2^30 B/s) is 0.9 in that order and one ulp more
   in another. In the scheduler's whole B/s the three rates are
   322122547, 214748365 and 429496730, summing to the link's 966367642
   in every order, so the verdict and the tail witness are the same
   for all six, added at once or one by one through adds and
   removes. *)
let test_admission_integer_tail () =
  let g = 1073741824. in
  let a = Sc.make ~m1:(0.15 *. g) ~d:3. ~m2:(0.3 *. g)
  and b = Sc.make ~m1:(0.05 *. g) ~d:2. ~m2:(0.2 *. g)
  and c = Sc.make ~m1:(0.1 *. g) ~d:1. ~m2:(0.4 *. g) in
  Alcotest.(check bool) "the float order matters here" true
    (0.3 +. 0.2 +. 0.4 = 0.9 && 0.4 +. 0.2 +. 0.3 > 0.9);
  let link = on_link (0.9 *. g)
  and parent = Sc.make ~m1:(10. *. g) ~d:3. ~m2:(0.5 *. g) in
  List.iter
    (fun order ->
      Alcotest.(check bool) "fits the link" true
        (sweep ~capacity:link order = None);
      Alcotest.(check bool) "a removal = a rebuild; the last one fits in"
        true
        (match order with
        | [ x; y; z ] ->
            let r = Adm.of_list [ x; z ] in
            Adm.remove r z;
            Adm.equal r (Adm.of_list [ x ])
            && (Adm.add r y;
                Adm.fits r ~capacity:link ~remove:None ~add:(Some z) = Ok ())
        | _ -> false);
      Alcotest.(check bool) "only the tail escapes a 0.5 parent" true
        (sweep ~capacity:parent order
        = Some (infinity, 966367642., 536870912.)))
    [
      [ a; b; c ];
      [ a; c; b ];
      [ b; a; c ];
      [ b; c; a ];
      [ c; a; b ];
      [ c; b; a ];
    ]

(* --- admission at the envelope ------------------------------------------ *)

(* An exact reference for knees near 2^31 s and slopes near 2^31 B/s,
   where demand in B/s x ticks reaches 2^114: nonnegative integers as
   base-2^31 limbs, least significant first. *)
let limb_bits = 31
let limb_mask = (1 lsl limb_bits) - 1

let wide () = Array.make 6 0

(* [w += a * b] for 0 <= a, b < 2^62: four partial products, each
   under 2^62 and carried at once so no limb passes 2^62 *)
let add_prod w a b =
  let bump i x =
    w.(i) <- w.(i) + x;
    for j = i to Array.length w - 2 do
      w.(j + 1) <- w.(j + 1) + (w.(j) lsr limb_bits);
      w.(j) <- w.(j) land limb_mask
    done
  in
  let a0 = a land limb_mask and a1 = a lsr limb_bits in
  let b0 = b land limb_mask and b1 = b lsr limb_bits in
  bump 0 (a0 * b0);
  bump 1 (a0 * b1);
  bump 1 (a1 * b0);
  bump 2 (a1 * b1)

let wide_gt a b =
  let rec go i = i >= 0 && (a.(i) > b.(i) || (a.(i) = b.(i) && go (i - 1))) in
  go (Array.length a - 1)

(* A scope given as [(copies, curve)], judged from the definition: at
   each knee tick of either side, demand > capacity, both in B/s x
   ticks; then the tail. The curves are converted as the scheduler
   converts them. Returns the violating knee ticks and the tail
   verdict. *)
let ref_exact ~capacity scope =
  let knee (c : Sc.t) =
    let i = Fp.isc_of_sc c in
    if i.dx = 0 || i.sm1 = i.sm2 then (0, i.sm2, i.sm2)
    else (i.dx, i.sm1, i.sm2)
  in
  let service w n c t =
    let dx, sm1, sm2 = knee c in
    add_prod w (n * sm1) (min t dx);
    add_prod w (n * sm2) (max 0 (t - dx))
  in
  let ticks =
    List.sort_uniq compare
      (List.filter (( < ) 0)
         (List.map
            (fun (_, c) ->
              let dx, _, _ = knee c in
              dx)
            ((1, capacity) :: scope)))
  in
  let bad =
    List.filter
      (fun t ->
        let d = wide () and c = wide () in
        List.iter (fun (n, sc) -> service d n sc t) scope;
        service c 1 capacity t;
        wide_gt d c)
      ticks
  in
  let _, _, cap2 = knee capacity in
  let tail =
    List.fold_left
      (fun s (n, c) ->
        let _, _, sm2 = knee c in
        s + (n * sm2))
      0 scope
  in
  (bad, tail > cap2)

(* [r] holds [scope]; its verdict must be the reference's, and a knee
   witness one of the reference's violating ticks *)
let agrees_exact r ~capacity scope =
  let bad, tail_bad = ref_exact ~capacity scope in
  match Adm.fits r ~capacity ~remove:None ~add:None with
  | Ok () -> bad = [] && not tail_bad
  | Error (t, _, _) when Float.is_finite t ->
      List.mem (Fp.ticks_of_seconds t) bad
  | Error _ -> bad = [] && tail_bad

let max_rate = Fp.max_rate
let near_2_31 k = ldexp 1. 31 -. k

(* Scopes whose slopes sum to about max_rate, with knees a few seconds
   and a few ulps under 2^31 s, against a capacity a few B/s either
   side of the demand: exact fits and one-B/s misses where every
   product passes 2^60. *)
let envelope_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 4 in
  let share = int_of_float max_rate / n in
  let slope =
    oneof [ pure share; int_range (share - 3) share; int_range 0 share ]
  in
  let knee =
    let* k = int_range 1 8 and* u = int_range 0 7 in
    pure (near_2_31 (float_of_int k) -. ldexp (float_of_int u) (-22))
  in
  let curve =
    let* m1 = slope and* m2 = slope and* d = knee in
    pure (1, Sc.make ~m1:(float_of_int m1) ~d ~m2:(float_of_int m2))
  in
  let* scope = list_repeat n curve in
  let total f = List.fold_left (fun s (_, c) -> s +. f c) 0. scope in
  let around x =
    let+ delta = int_range (-2) 2 in
    Float.min max_rate (Float.max 0. (x +. float_of_int delta))
  in
  let* c1 = around (total (fun c -> c.Sc.m1))
  and* c2 = around (total Sc.rate)
  and* d = knee in
  let* capacity = oneofl [ Sc.linear c1; Sc.make ~m1:c1 ~d ~m2:c2 ] in
  pure (scope, capacity)

let envelope_matches_exact =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~long_factor:50
       ~name:"envelope: verdicts = exact integers"
       ~print:(fun (scope, capacity) ->
         Printf.sprintf "capacity %s, curves [%s]" (hex capacity)
           (String.concat "; " (List.map (fun (_, c) -> hex c) scope)))
       envelope_gen
       (fun (scope, capacity) ->
         agrees_exact (Adm.of_list (List.map snd scope)) ~capacity scope))

(* 2^22 - 1 curves at max_rate bending 1 s under 2^31 s: the largest
   scope the envelope allows, its slope sums just under 2^53. *)
let test_admission_envelope_edge () =
  let n = (1 lsl 22) - 1 and d = near_2_31 1. in
  let whole = float_of_int n *. max_rate in
  List.iter
    (fun (shape, c) ->
      let r = Adm.create () in
      for _ = 1 to n do
        Adm.add r c
      done;
      List.iter
        (fun (what, capacity) ->
          Alcotest.(check bool) (shape ^ ", " ^ what) true
            (agrees_exact r ~capacity [ (n, c) ]))
        [
          ("an exact fit", Sc.linear whole);
          ("one B/s short", Sc.linear (whole -. 1.));
          ("against max_rate", Sc.linear max_rate);
        ];
      if shape = "concave" then
        Alcotest.(check bool) "the knee's witness" true
          (Adm.fits r ~capacity:(Sc.linear max_rate) ~remove:None ~add:None
          = Error (d, whole *. d, max_rate *. d)))
    [
      ("concave", Sc.make ~m1:max_rate ~d ~m2:(max_rate /. 2.));
      ("convex", Sc.make ~m1:(max_rate /. 2.) ~d ~m2:max_rate);
    ]

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
          Alcotest.test_case "tail is one integer sum in any order" `Quick
            test_admission_integer_tail;
          sweep_matches_fold;
          envelope_matches_exact;
          Alcotest.test_case "envelope: 2^22 - 1 curves at max_rate" `Quick
            test_admission_envelope_edge;
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
