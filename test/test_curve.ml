(* Tests for the curve algebra (lib/curve): two-piece service curves,
   runtime curves (incl. the Fig. 8 min update) and general piecewise
   functions. The load-bearing properties are checked pointwise against
   brute-force evaluation on sampled abscissae. *)

module Sc = Curve.Service_curve
module Rc = Curve.Runtime_curve
module P = Curve.Piecewise

(* [long_factor]: how many times [count] the long run ([QCHECK_LONG],
   the @fuzz alias) draws *)
let qt ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~long_factor:100 ?print ~name gen prop)

let feq ?(eps = 1e-6) a b =
  Float.abs (a -. b) <= eps *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let sample_xs = [ 0.; 0.1; 0.5; 0.9; 1.0; 1.1; 1.5; 2.0; 3.7; 10.; 100. ]

(* --- Service_curve -------------------------------------------------- *)

let test_sc_requirements_concave () =
  (* umax/dmax > rate: concave, burst first *)
  let s = Sc.of_requirements ~umax:1000. ~dmax:0.01 ~rate:50_000. in
  Alcotest.(check bool) "concave" true (Sc.is_concave s);
  Alcotest.(check (float 1e-9)) "m1" 100_000. (s : Sc.t).Sc.m1;
  Alcotest.(check (float 1e-9)) "S(dmax) = umax" 1000. (Sc.eval s 0.01);
  Alcotest.(check (float 1e-9)) "rate" 50_000. (Sc.rate s)

let test_sc_requirements_convex () =
  (* umax/dmax <= rate: convex with flat first piece *)
  let s = Sc.of_requirements ~umax:1000. ~dmax:0.1 ~rate:50_000. in
  Alcotest.(check bool) "convex" true (Sc.is_convex s);
  Alcotest.(check (float 1e-9)) "m1 = 0" 0. (s : Sc.t).Sc.m1;
  Alcotest.(check (float 1e-9)) "S(dmax) = umax" 1000. (Sc.eval s 0.1);
  Alcotest.(check (float 1e-9)) "flat before d" 0. (Sc.eval s 0.05)

let test_sc_linear () =
  let s = Sc.linear 1000. in
  Alcotest.(check bool) "linear" true (Sc.is_linear s);
  Alcotest.(check (float 1e-9)) "eval" 2500. (Sc.eval s 2.5);
  Alcotest.(check (float 1e-9)) "burst" 0. (Sc.burst s)

let test_sc_validation () =
  let inv f = Alcotest.check_raises "invalid" (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  inv (fun () -> ignore (Sc.make ~m1:(-1.) ~d:0. ~m2:0.));
  inv (fun () -> ignore (Sc.make ~m1:0. ~d:(-1.) ~m2:0.));
  inv (fun () -> ignore (Sc.make ~m1:Float.nan ~d:0. ~m2:0.));
  inv (fun () -> ignore (Sc.of_requirements ~umax:0. ~dmax:1. ~rate:1.));
  inv (fun () -> ignore (Sc.scale (Sc.linear 1.) (-2.)))

let sc_gen =
  QCheck2.Gen.(
    let* m1 = float_bound_inclusive 1e6 in
    let* m2 = float_bound_inclusive 1e6 in
    let* d = float_bound_inclusive 5. in
    return (Sc.make ~m1 ~d ~m2))

let sc_eval_inverse =
  qt "service_curve: inverse is the smallest t with S(t) >= v" sc_gen
    (fun s ->
      List.for_all
        (fun v ->
          let t = Sc.inverse s v in
          if Float.is_finite t then
            Sc.eval s t >= v -. 1e-6
            && (t <= 1e-9 || Sc.eval s (t *. (1. -. 1e-9)) <= v +. 1e-3)
          else Sc.rate s = 0.)
        [ 0.; 1.; 1000.; 123456.; 1e7 ])

let sc_eval_monotone =
  qt "service_curve: eval nondecreasing" sc_gen (fun s ->
      let rec chk = function
        | a :: (b :: _ as rest) -> Sc.eval s a <= Sc.eval s b +. 1e-9 && chk rest
        | _ -> true
      in
      chk sample_xs)

let sc_sum_pointwise =
  qt "service_curve: sum is pointwise when defined"
    QCheck2.Gen.(pair sc_gen sc_gen)
    (fun (a, b) ->
      match Sc.sum a b with
      | None -> true
      | Some s ->
          List.for_all
            (fun x -> feq (Sc.eval s x) (Sc.eval a x +. Sc.eval b x))
            sample_xs)

let sc_scale_pointwise =
  qt "service_curve: scale is pointwise" sc_gen (fun s ->
      let k = 2.5 in
      let sk = Sc.scale s k in
      List.for_all (fun x -> feq (Sc.eval sk x) (k *. Sc.eval s x)) sample_xs)

(* --- Runtime_curve --------------------------------------------------- *)

let test_rc_anchoring () =
  let s = Sc.make ~m1:100. ~d:1. ~m2:10. in
  let c = Rc.of_service_curve s ~x:5. ~y:1000. in
  List.iter
    (fun t ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "value at %g" t)
        (1000. +. Sc.eval s (t -. 5.))
        (Rc.eval c t))
    [ 5.; 5.5; 6.; 7.; 100. ];
  Alcotest.(check (float 1e-6)) "flat before x" 1000. (Rc.eval c 0.)

let test_rc_inverse_flat () =
  (* zero-slope stretches: inverse returns the end of the flat part *)
  let s = Sc.make ~m1:0. ~d:2. ~m2:10. in
  let c = Rc.of_service_curve s ~x:0. ~y:0. in
  Alcotest.(check (float 1e-9)) "inverse at y lands after flat" 2.
    (Rc.inverse c 0.);
  Alcotest.(check (float 1e-9)) "inverse past flat" 3. (Rc.inverse c 10.);
  (* both slopes zero: unreachable values *)
  let z = Rc.of_service_curve Sc.zero ~x:0. ~y:0. in
  Alcotest.(check (float 0.)) "unreachable" infinity (Rc.inverse z 1.)

let test_rc_flatten_translate () =
  let s = Sc.make ~m1:0. ~d:2. ~m2:10. in
  let c = Rc.of_service_curve s ~x:1. ~y:5. in
  let f = Rc.flatten c in
  Alcotest.(check (float 1e-9)) "flattened slope m2 from origin" 15.
    (Rc.eval f 2.);
  let tr = Rc.translate_x c 3. in
  Alcotest.(check (float 1e-9)) "translated" (Rc.eval c 2.) (Rc.eval tr 5.)

(* min_with: the update sequence a deadline curve actually sees — a
   series of (x, y) anchors with nondecreasing x and y. The result must
   equal the pointwise min of all the anchored generator copies. *)
let anchors_gen =
  QCheck2.Gen.(
    let* sc = sc_gen in
    let* steps =
      list_size (int_range 1 6)
        (pair (float_bound_inclusive 3.) (float_bound_inclusive 10_000.))
    in
    return (sc, steps))

let fold_anchors (sc, steps) =
  (* accumulate anchors with nondecreasing x and y, as the scheduler
     guarantees (activations advance in time and in service) *)
  let anchors =
    List.fold_left
      (fun acc (dx, dy) ->
        match acc with
        | (x, y) :: _ -> (x +. dx, y +. dy) :: acc
        | [] -> assert false)
      [ (0., 0.) ]
      steps
    |> List.rev
  in
  let c =
    List.fold_left
      (fun c (x, y) ->
        match c with
        | None -> Some (Rc.of_service_curve sc ~x ~y)
        | Some c -> Some (Rc.min_with c sc ~x ~y))
      None anchors
    |> Option.get
  in
  let brute t =
    List.fold_left
      (fun acc (x, y) -> Float.min acc (y +. Sc.eval sc (t -. x)))
      infinity anchors
  in
  let last = List.fold_left (fun a (x, _) -> Float.max a x) 0. anchors in
  (anchors, c, brute, last)

let rc_min_with_exact_concave =
  qt ~count:500 "runtime_curve: min_with exact for concave generators"
    anchors_gen
    (fun (sc, steps) ->
      QCheck2.assume (Sc.is_concave sc);
      let _, c, brute, last = fold_anchors (sc, steps) in
      (* only queried beyond the last anchor (Section II remark) *)
      List.for_all
        (fun dt -> feq ~eps:1e-6 (Rc.eval c (last +. dt)) (brute (last +. dt)))
        [ 0.; 0.1; 0.5; 1.; 2.; 5.; 20. ])

let rc_min_with_conservative_convex =
  (* convex generators: no two-piece closure (see the .mli); the update
     must be exact at the anchor and never fall below the true min *)
  qt ~count:500 "runtime_curve: min_with conservative for convex"
    anchors_gen
    (fun (sc, steps) ->
      QCheck2.assume (Sc.is_convex sc);
      let anchors, c, brute, last = fold_anchors (sc, steps) in
      let _, y_last = List.nth anchors (List.length anchors - 1) in
      Rc.eval c last <= y_last +. 1e-6
      && List.for_all
           (fun dt ->
             Rc.eval c (last +. dt) >= brute (last +. dt) -. 1e-6)
           [ 0.; 0.1; 0.5; 1.; 2.; 5.; 20. ])

let rc_inverse_of_eval =
  qt "runtime_curve: inverse . eval = id on increasing parts" sc_gen
    (fun sc ->
      QCheck2.assume ((sc : Sc.t).Sc.m1 > 1. && (sc : Sc.t).Sc.m2 > 1.);
      let c = Rc.of_service_curve sc ~x:2. ~y:100. in
      List.for_all
        (fun t ->
          let v = Rc.eval c t in
          feq ~eps:1e-6 (Rc.inverse c v) t)
        [ 2.1; 2.5; 3.; 5.; 10. ])

(* --- Piecewise ------------------------------------------------------- *)

let test_pw_make_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty" true (raises (fun () -> ignore (P.make [])));
  Alcotest.(check bool) "not at 0" true
    (raises (fun () -> ignore (P.make [ (1., 0., 0.) ])));
  Alcotest.(check bool) "non-increasing x" true
    (raises (fun () -> ignore (P.make [ (0., 0., 1.); (0., 1., 1.) ])));
  Alcotest.(check bool) "decreasing" true
    (raises (fun () -> ignore (P.make [ (0., 0., 1.); (1., 0., 1.) ])));
  Alcotest.(check bool) "negative slope" true
    (raises (fun () -> ignore (P.make [ (0., 0., -1.) ])))

let test_pw_eval () =
  let f = P.make [ (0., 0., 10.); (1., 10., 0.); (2., 50., 5.) ] in
  Alcotest.(check (float 1e-9)) "seg 1" 5. (P.eval f 0.5);
  Alcotest.(check (float 1e-9)) "seg 2 flat" 10. (P.eval f 1.5);
  Alcotest.(check (float 1e-9)) "jump" 50. (P.eval f 2.0);
  Alcotest.(check (float 1e-9)) "tail" 55. (P.eval f 3.0);
  Alcotest.(check (float 1e-9)) "before 0" 0. (P.eval f (-1.))

let test_pw_inverse () =
  let f = P.make [ (0., 0., 10.); (1., 10., 0.); (2., 50., 5.) ] in
  Alcotest.(check (float 1e-9)) "within seg 1" 0.5 (P.inverse f 5.);
  Alcotest.(check (float 1e-9)) "on flat" 1.0 (P.inverse f 10.);
  (* values inside the jump land at the jump abscissa *)
  Alcotest.(check (float 1e-9)) "in jump" 2.0 (P.inverse f 30.);
  Alcotest.(check (float 1e-9)) "tail" 4.0 (P.inverse f 60.);
  let flat = P.constant 5. in
  Alcotest.(check (float 0.)) "unreachable" infinity (P.inverse flat 6.)

let pw_gen =
  QCheck2.Gen.(
    let* segs =
      list_size (int_range 0 4)
        (pair (float_range 0.1 3.) (float_bound_inclusive 100.))
    in
    let* s0 = float_bound_inclusive 50. in
    let* y0 = float_bound_inclusive 100. in
    (* build increasing breakpoints with upward jumps *)
    let _, _, acc =
      List.fold_left
        (fun (x, _y, acc) (dx, jump) ->
          let x' = x +. dx in
          let slope = Float.abs jump in
          let y' = P.eval (P.make (List.rev acc)) x' +. jump in
          (x', y', (x', y', slope) :: acc))
        (0., y0, [ (0., y0, s0) ])
        segs
    in
    return (P.make (List.rev acc)))

(* Every segment in hex, so a printed counterexample rebuilds exactly. *)
let pw_print f =
  "["
  ^ String.concat "; "
      (List.map
         (fun (x, y, s) -> Printf.sprintf "(%h, %h, %h)" x y s)
         (P.segments f))
  ^ "]"

let pw_pair_print (a, b) = pw_print a ^ "\n" ^ pw_print b

let pw_sum_pointwise =
  qt "piecewise: sum pointwise" ~print:pw_pair_print
    QCheck2.Gen.(pair pw_gen pw_gen)
    (fun (a, b) ->
      let s = P.sum a b in
      List.for_all (fun x -> feq (P.eval s x) (P.eval a x +. P.eval b x)) sample_xs)

let pw_min_pointwise =
  qt "piecewise: min_curve pointwise" ~print:pw_pair_print
    QCheck2.Gen.(pair pw_gen pw_gen)
    (fun (a, b) ->
      let m = P.min_curve a b in
      List.for_all
        (fun x -> feq ~eps:1e-5 (P.eval m x) (Float.min (P.eval a x) (P.eval b x)))
        sample_xs)

let pw_max_pointwise =
  qt "piecewise: max_curve pointwise" ~print:pw_pair_print
    QCheck2.Gen.(pair pw_gen pw_gen)
    (fun (a, b) ->
      let m = P.max_curve a b in
      List.for_all
        (fun x -> feq ~eps:1e-5 (P.eval m x) (Float.max (P.eval a x) (P.eval b x)))
        sample_xs)

(* A pair whose final segments cross past the last breakpoint, near
   x = 4.6 and y = 140: the crossing's y carries rounding error above an
   absolute 1e-12, so an absolute tie test let that noise pick the
   steeper tail for the minimum (and the shallower for the maximum),
   and the wrong curve ran on to x = 100. *)
let test_pw_tail_crossing () =
  let a =
    P.make
      [
        (0x0p+0, 0x0p+0, 0x1.709edb6df102cp+4);
        (0x1.67fb6e6d43784p+0, 0x1.032c683cf46ccp+5, 0x0p+0);
        (0x1.12b1e9176089ep+2, 0x1.f58a0e7cd15d8p+6, 0x1.73f3da5e57272p+6);
      ]
  and b =
    P.make
      [
        (0x0p+0, 0x1.4063ebf44219ep+6, 0x1.f2fcf3fc8f5fdp+3);
        (0x1.999999999999ap-3, 0x1.4cdd720dc5af8p+6, 0x0p+0);
        (0x1.999999999999ap-2, 0x1.5f3d42bb382cdp+6, 0x1.25fd0ad727d55p+2);
        (0x1.5aa1b8001503p+1, 0x1.789f2a75ec0bp+7, 0x1.679861d954ac3p+6);
      ]
  in
  List.iter
    (fun x ->
      let ya = P.eval a x and yb = P.eval b x in
      Alcotest.(check bool)
        (Printf.sprintf "min at x=%g" x)
        true
        (feq ~eps:1e-5 (P.eval (P.min_curve a b) x) (Float.min ya yb));
      Alcotest.(check bool)
        (Printf.sprintf "max at x=%g" x)
        true
        (feq ~eps:1e-5 (P.eval (P.max_curve a b) x) (Float.max ya yb)))
    sample_xs

let pw_shift =
  qt "piecewise: shift_right" pw_gen (fun f ->
      let g = P.shift_right f 1.5 in
      List.for_all (fun x -> feq (P.eval g (x +. 1.5)) (P.eval f x)) sample_xs)

let test_pw_token_bucket () =
  let tb = P.token_bucket ~sigma:100. ~rho:10. in
  Alcotest.(check (float 1e-9)) "at 0" 100. (P.eval tb 0.);
  Alcotest.(check (float 1e-9)) "at 5" 150. (P.eval tb 5.)

let test_pw_of_service_curve () =
  let s = Sc.make ~m1:100. ~d:2. ~m2:10. in
  let f = P.of_service_curve s in
  List.iter
    (fun x ->
      Alcotest.(check (float 1e-6)) (Printf.sprintf "x=%g" x) (Sc.eval s x)
        (P.eval f x))
    sample_xs

(* hdev against brute force: alpha through beta, worst delay by scanning. *)
let brute_hdev alpha beta =
  let ts = List.init 400 (fun i -> float_of_int i /. 20.) in
  List.fold_left
    (fun acc t ->
      let need = P.eval alpha t in
      let d = P.inverse beta need -. t in
      Float.max acc (Float.max 0. d))
    0. ts

let test_pw_hdev_token_bucket () =
  (* classic result: token bucket (sigma, rho) through rate-R server,
     R >= rho: delay = sigma / R *)
  let alpha = P.token_bucket ~sigma:1000. ~rho:50. in
  let beta = P.linear ~slope:200. in
  Alcotest.(check (float 1e-9)) "sigma/R" 5. (P.hdev alpha beta)

let test_pw_hdev_two_piece () =
  (* concave service curve: burst served at m1 *)
  let alpha = P.token_bucket ~sigma:100. ~rho:10. in
  let beta = P.of_service_curve (Sc.make ~m1:100. ~d:2. ~m2:10.) in
  let got = P.hdev alpha beta in
  Alcotest.(check (float 1e-6)) "vs brute force" (brute_hdev alpha beta) got

let test_pw_hdev_infinite () =
  let alpha = P.linear ~slope:100. in
  let beta = P.linear ~slope:50. in
  Alcotest.(check (float 0.)) "outpaced" infinity (P.hdev alpha beta)

let pw_hdev_brute =
  qt ~count:100 "piecewise: hdev >= brute-force sample"
    QCheck2.Gen.(pair pw_gen pw_gen)
    (fun (alpha, beta) ->
      QCheck2.assume (P.final_slope alpha <= P.final_slope beta);
      let exact = P.hdev alpha beta in
      (not (Float.is_finite exact)) || exact >= brute_hdev alpha beta -. 1e-6)

let test_pw_vdev () =
  (* backlog bound of token bucket through rate server: sigma *)
  let alpha = P.token_bucket ~sigma:1000. ~rho:50. in
  let beta = P.linear ~slope:200. in
  Alcotest.(check (float 1e-9)) "sigma" 1000. (P.vdev alpha beta);
  Alcotest.(check (float 0.)) "outpaced" infinity
    (P.vdev (P.linear ~slope:10.) (P.linear ~slope:5.))

let pw_vdev_brute =
  qt ~count:100 "piecewise: vdev >= brute-force sample"
    QCheck2.Gen.(pair pw_gen pw_gen)
    (fun (alpha, beta) ->
      QCheck2.assume (P.final_slope alpha <= P.final_slope beta);
      let exact = P.vdev alpha beta in
      let ts = List.init 200 (fun i -> float_of_int i /. 10.) in
      let brute =
        List.fold_left
          (fun acc t -> Float.max acc (P.eval alpha t -. P.eval beta t))
          0. ts
      in
      (not (Float.is_finite exact)) || exact >= brute -. 1e-6)

(* --- min-plus convolution -------------------------------------------- *)

let test_convolve_rate_latency () =
  (* two rate-latency curves: latencies add, rates min *)
  let b1 = P.of_service_curve (Sc.make ~m1:0. ~d:0.004 ~m2:1000.) in
  let b2 = P.of_service_curve (Sc.make ~m1:0. ~d:0.006 ~m2:500.) in
  let c = P.convolve_convex b1 b2 in
  Alcotest.(check (float 1e-9)) "flat until latencies sum" 0. (P.eval c 0.01);
  Alcotest.(check (float 1e-6)) "then the min rate" 0.5 (P.eval c 0.011);
  Alcotest.(check (float 1e-9)) "final slope" 500. (P.final_slope c)

let test_convolve_linear_identity () =
  (* convolving with a faster linear curve leaves the slower one *)
  let slow = P.linear ~slope:100. in
  let fast = P.linear ~slope:1e6 in
  let c = P.convolve_convex slow fast in
  Alcotest.(check bool) "equals slow" true (P.equal c slow)

let test_convolve_rejects_concave () =
  let concave = P.of_service_curve (Sc.make ~m1:100. ~d:1. ~m2:10.) in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (P.convolve_convex concave concave);
       false
     with Invalid_argument _ -> true)

let convex_gen =
  QCheck2.Gen.(
    let* m1 = float_bound_inclusive 100. in
    let* extra = float_range 0.001 200. in
    let* d = float_range 0.01 3. in
    return (P.of_service_curve (Sc.make ~m1 ~d ~m2:(m1 +. extra))))

let pw_convolve_is_infimum =
  qt ~count:200 "convolve_convex is the min-plus infimum (sampled)"
    QCheck2.Gen.(pair convex_gen convex_gen)
    (fun (f, g) ->
      let c = P.convolve_convex f g in
      List.for_all
        (fun t ->
          (* brute-force infimum over a split grid *)
          let brute = ref infinity in
          for i = 0 to 100 do
            let s = t *. float_of_int i /. 100. in
            brute := Float.min !brute (P.eval f s +. P.eval g (t -. s))
          done;
          let v = P.eval c t in
          (* exact value must lower-bound every split; the grid infimum
             can overshoot a kink minimum by step x steepest slope *)
          let slack =
            (t /. 100. *. Float.max (P.final_slope f) (P.final_slope g))
            +. 1e-6
          in
          v <= !brute +. 1e-6 && !brute -. v <= slack)
        [ 0.; 0.5; 1.; 2.; 4.; 8. ])

let pw_convolve_commutes =
  qt ~count:100 "convolve_convex commutes"
    QCheck2.Gen.(pair convex_gen convex_gen)
    (fun (f, g) ->
      P.equal ~eps:1e-6 (P.convolve_convex f g) (P.convolve_convex g f))

let test_is_convex () =
  Alcotest.(check bool) "linear" true (P.is_convex (P.linear ~slope:5.));
  Alcotest.(check bool) "rate-latency" true
    (P.is_convex (P.of_service_curve (Sc.make ~m1:0. ~d:1. ~m2:10.)));
  Alcotest.(check bool) "concave" false
    (P.is_convex (P.of_service_curve (Sc.make ~m1:10. ~d:1. ~m2:1.)));
  (* a jump inside the domain breaks convexity; an initial offset does
     not (the curve is convex on its domain) *)
  Alcotest.(check bool) "interior jump" false
    (P.is_convex (P.make [ (0., 0., 1.); (1., 5., 1.) ]));
  Alcotest.(check bool) "offset at 0 is fine" true
    (P.is_convex (P.token_bucket ~sigma:10. ~rho:1.))

let test_pw_equal () =
  let a = P.make [ (0., 0., 10.); (1., 10., 5.) ] in
  let b = P.sum a P.zero in
  Alcotest.(check bool) "sum with zero" true (P.equal a b);
  Alcotest.(check bool) "different" false (P.equal a (P.linear ~slope:10.))

let () =
  Alcotest.run "curve"
    [
      ( "service_curve",
        [
          Alcotest.test_case "requirements concave" `Quick
            test_sc_requirements_concave;
          Alcotest.test_case "requirements convex" `Quick
            test_sc_requirements_convex;
          Alcotest.test_case "linear" `Quick test_sc_linear;
          Alcotest.test_case "validation" `Quick test_sc_validation;
          sc_eval_inverse;
          sc_eval_monotone;
          sc_sum_pointwise;
          sc_scale_pointwise;
        ] );
      ( "runtime_curve",
        [
          Alcotest.test_case "anchoring" `Quick test_rc_anchoring;
          Alcotest.test_case "inverse on flats" `Quick test_rc_inverse_flat;
          Alcotest.test_case "flatten/translate" `Quick
            test_rc_flatten_translate;
          rc_min_with_exact_concave;
          rc_min_with_conservative_convex;
          rc_inverse_of_eval;
        ] );
      ( "piecewise",
        [
          Alcotest.test_case "make validation" `Quick test_pw_make_validation;
          Alcotest.test_case "eval" `Quick test_pw_eval;
          Alcotest.test_case "inverse" `Quick test_pw_inverse;
          Alcotest.test_case "token bucket" `Quick test_pw_token_bucket;
          Alcotest.test_case "of_service_curve" `Quick
            test_pw_of_service_curve;
          Alcotest.test_case "hdev token bucket" `Quick
            test_pw_hdev_token_bucket;
          Alcotest.test_case "hdev two-piece" `Quick test_pw_hdev_two_piece;
          Alcotest.test_case "hdev infinite" `Quick test_pw_hdev_infinite;
          Alcotest.test_case "vdev" `Quick test_pw_vdev;
          Alcotest.test_case "equal" `Quick test_pw_equal;
          pw_sum_pointwise;
          pw_min_pointwise;
          pw_max_pointwise;
          Alcotest.test_case "min/max past a tail crossing" `Quick
            test_pw_tail_crossing;
          pw_shift;
          pw_hdev_brute;
          pw_vdev_brute;
          Alcotest.test_case "convolve rate-latency" `Quick
            test_convolve_rate_latency;
          Alcotest.test_case "convolve linear identity" `Quick
            test_convolve_linear_identity;
          Alcotest.test_case "convolve rejects concave" `Quick
            test_convolve_rejects_concave;
          Alcotest.test_case "is_convex" `Quick test_is_convex;
          pw_convolve_is_infimum;
          pw_convolve_commutes;
        ] );
    ]
