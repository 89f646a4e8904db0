type t = { segs : (float * float * float) array }
(* (x, y, slope) sorted by strictly increasing x; segs.(0) has x = 0;
   the last segment extends to +inf. Invariant: nondecreasing — slopes
   are >= 0 and the y of each segment is >= the closing value of the
   previous one. *)

let make segs =
  match segs with
  | [] -> invalid_arg "Piecewise.make: empty"
  | (x0, _, _) :: _ when x0 <> 0. -> invalid_arg "Piecewise.make: must start at 0"
  | _ ->
      let a = Array.of_list segs in
      Array.iteri
        (fun i (x, y, s) ->
          if not (Float.is_finite x && Float.is_finite y && Float.is_finite s)
          then invalid_arg "Piecewise.make: non-finite component";
          if s < 0. then invalid_arg "Piecewise.make: negative slope";
          if i > 0 then begin
            let px, py, ps = a.(i - 1) in
            if x <= px then
              invalid_arg "Piecewise.make: abscissae must strictly increase";
            let closing = py +. (ps *. (x -. px)) in
            if y < closing -. 1e-9 then
              invalid_arg "Piecewise.make: function would decrease"
          end)
        a;
      { segs = a }

let zero = make [ (0., 0., 0.) ]
let constant c = make [ (0., c, 0.) ]
let linear ~slope = make [ (0., 0., slope) ]
let affine ~y0 ~slope = make [ (0., y0, slope) ]
let token_bucket ~sigma ~rho = affine ~y0:sigma ~slope:rho

let of_service_curve (s : Service_curve.t) =
  if s.d = 0. || s.m1 = s.m2 then linear ~slope:s.m2
  else make [ (0., 0., s.m1); (s.d, s.m1 *. s.d, s.m2) ]

let segments f = Array.to_list f.segs

(* Index of the segment containing t (the last with x <= t). *)
let seg_at f t =
  let n = Array.length f.segs in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi + 1) / 2 in
      let x, _, _ = f.segs.(mid) in
      if x <= t then bsearch mid hi else bsearch lo (mid - 1)
    end
  in
  bsearch 0 (n - 1)

let eval f t =
  if t < 0. then 0.
  else begin
    let x, y, s = f.segs.(seg_at f t) in
    y +. (s *. (t -. x))
  end

let final_slope f =
  let _, _, s = f.segs.(Array.length f.segs - 1) in
  s

let inverse f v =
  let n = Array.length f.segs in
  let rec go i =
    if i = n then infinity
    else begin
      let x, y, s = f.segs.(i) in
      if v <= y then x
      else begin
        let end_val =
          if i + 1 < n then begin
            let x', _, _ = f.segs.(i + 1) in
            y +. (s *. (x' -. x))
          end
          else infinity
        in
        if v <= end_val && s > 0. then x +. ((v -. y) /. s) else go (i + 1)
      end
    end
  in
  let r = go 0 in
  if Float.is_finite r then r
  else if final_slope f > 0. then begin
    (* v beyond every finite segment but the tail climbs to it *)
    let x, y, s = f.segs.(n - 1) in
    x +. ((v -. y) /. s)
  end
  else infinity

let slope_at f t =
  let _, _, s = f.segs.(seg_at f t) in
  s

let breakpoint_xs f = Array.to_list (Array.map (fun (x, _, _) -> x) f.segs)

let dedup_sorted xs =
  List.fold_right
    (fun x acc -> match acc with y :: _ when x = y -> acc | _ -> x :: acc)
    xs []

let merged_xs a b =
  dedup_sorted (List.sort Float.compare (breakpoint_xs a @ breakpoint_xs b))

(* Drop segments collinear with their predecessor. *)
let compress segs =
  match segs with
  | [] -> invalid_arg "Piecewise.compress"
  | first :: rest ->
      let keep (px, py, ps) (x, y, s) =
        not (s = ps && Float.abs (y -. (py +. (ps *. (x -. px)))) <= 1e-12)
      in
      let _, acc =
        List.fold_left
          (fun (prev, acc) seg ->
            if keep prev seg then (seg, seg :: acc) else (prev, acc))
          (first, [ first ])
          rest
      in
      List.rev acc

let sum a b =
  let xs = merged_xs a b in
  make (compress (List.map (fun x -> (x, eval a x +. eval b x, slope_at a x +. slope_at b x)) xs))

let scale f k =
  if k < 0. then invalid_arg "Piecewise.scale: negative factor";
  { segs = Array.map (fun (x, y, s) -> (x, y *. k, s *. k)) f.segs }

let shift_right f d =
  if d < 0. then invalid_arg "Piecewise.shift_right: negative shift";
  if d = 0. then f
  else begin
    let shifted =
      Array.to_list (Array.map (fun (x, y, s) -> (x +. d, y, s)) f.segs)
    in
    make ((0., 0., 0.) :: shifted)
  end

(* Pointwise min/max: within each interval between merged breakpoints
   both curves are single lines, so any crossing is a line intersection;
   add those as extra breakpoints, then pick the lower (resp. upper)
   curve on each refined interval. *)
let combine pick_lower a b =
  let xs = merged_xs a b in
  let crossings =
    let rec pairs = function
      | u :: (w :: _ as rest) ->
          let ya = eval a u and yb = eval b u in
          let sa = slope_at a u and sb = slope_at b u in
          let cs =
            if sa <> sb then begin
              let tc = u +. ((yb -. ya) /. (sa -. sb)) in
              if tc > u +. 1e-15 && tc < w -. 1e-15 then [ tc ] else []
            end
            else []
          in
          cs @ pairs rest
      | _ -> []
    in
    pairs xs
  in
  (* Tail crossing beyond the last breakpoint. *)
  let tail_cross =
    let u = List.nth xs (List.length xs - 1) in
    let ya = eval a u and yb = eval b u in
    let sa = slope_at a u and sb = slope_at b u in
    if sa <> sb then begin
      let tc = u +. ((yb -. ya) /. (sa -. sb)) in
      if tc > u +. 1e-15 then [ tc ] else []
    end
    else []
  in
  let xs = dedup_sorted (List.sort Float.compare (xs @ crossings @ tail_cross)) in
  let seg_of x =
    let ya = eval a x and yb = eval b x in
    let sa = slope_at a x and sb = slope_at b x in
    (* A tie is relative: a crossing's y carries rounding error that
       grows with y, and an absolute bound lets that noise pick the
       wrong tail. On a tie both the value and the slope are the
       picked side's, so the segment never starts above (for min) or
       below (for max) either curve. *)
    if
      Float.abs (ya -. yb)
      <= 1e-9 *. Float.max 1. (Float.max (Float.abs ya) (Float.abs yb))
    then
      if pick_lower then (x, Float.min ya yb, Float.min sa sb)
      else (x, Float.max ya yb, Float.max sa sb)
    else if (ya < yb) = pick_lower then (x, ya, sa)
    else (x, yb, sb)
  in
  make (compress (List.map seg_of xs))

let min_curve = combine true
let max_curve = combine false

let is_convex f =
  let rec go = function
    | (x, y, s) :: ((x2, y2, s2) :: _ as rest) ->
        let closing = y +. (s *. (x2 -. x)) in
        (* continuous (no jump) and slope nondecreasing *)
        Float.abs (y2 -. closing) <= 1e-9 *. Float.max 1. (Float.abs closing)
        && s2 >= s -. 1e-12
        && go rest
    | _ -> true
  in
  go (segments f)

(* Min-plus convolution of convex curves: all segments sorted by slope,
   concatenated from f(0) + g(0). Finite segments carry their x-extent;
   the two final segments merge into one tail at the smaller slope. *)
let convolve_convex f g =
  if not (is_convex f && is_convex g) then
    invalid_arg "Piecewise.convolve_convex: curves must be convex";
  let finite_parts h =
    let rec go = function
      | (x, _, s) :: ((x2, _, _) :: _ as rest) -> (s, x2 -. x) :: go rest
      | _ -> []
    in
    go (segments h)
  in
  let tail_slope h =
    let x, _, s = List.hd (List.rev (segments h)) in
    ignore x;
    s
  in
  let pieces =
    List.sort
      (fun (s1, _) (s2, _) -> Float.compare s1 s2)
      (finite_parts f @ finite_parts g)
  in
  let tail = Float.min (tail_slope f) (tail_slope g) in
  (* segments with slope >= the combined tail slope never appear in the
     infimum: the tail overtakes them *)
  let pieces = List.filter (fun (s, _) -> s < tail) pieces in
  let y0 = eval f 0. +. eval g 0. in
  let segs, x_end, y_end =
    List.fold_left
      (fun (acc, x, y) (s, dx) ->
        ((x, y, s) :: acc, x +. dx, y +. (s *. dx)))
      ([], 0., y0) pieces
  in
  make (compress (List.rev ((x_end, y_end, tail) :: segs)))

(* Every segment's opening and closing ordinate — the corner values at
   which the (pseudo-)inverse changes slope. *)
let corner_values f =
  let rec go = function
    | (x, y, s) :: ((x2, _, _) :: _ as rest) ->
        y :: (y +. (s *. (x2 -. x))) :: go rest
    | [ (_, y, _) ] -> [ y ]
    | [] -> []
  in
  go (segments f)

(* Horizontal deviation, computed byte-wise: the delay of the v-th byte
   through a [beta]-server fed at envelope [alpha] is
   [inverse beta v - inverse alpha v], and both inverses are piecewise
   linear in v with corners exactly at the curves' corner values — so
   the supremum is attained at one of those (or grows without bound in
   the tail, which the slope check rules out). This formulation is
   exact including across jumps, where the t-parameterized form needs
   left limits. *)
let hdev alpha beta =
  if final_slope alpha > final_slope beta then infinity
  else begin
    let cap =
      (* bytes alpha can ever produce; beyond its plateau nothing
         arrives *)
      if final_slope alpha > 0. then None
      else begin
        let x, y, _ = (segments alpha |> List.rev |> List.hd) in
        ignore x;
        Some y
      end
    in
    let vs = corner_values alpha @ corner_values beta in
    let vs = List.filter (fun v -> v >= 0.) vs in
    let vs =
      match cap with
      | Some p -> p :: List.filter (fun v -> v <= p) vs
      | None ->
          (* tail: beta at least as steep as alpha, so the byte delay is
             nonincreasing past the last corner — one probe suffices *)
          let m = List.fold_left Float.max 0. vs in
          (m +. 1.) :: vs
    in
    List.fold_left
      (fun acc v ->
        let d = inverse beta v -. inverse alpha v in
        Float.max acc (Float.max 0. d))
      0. vs
  end

(* Vertical deviation: alpha - beta is piecewise linear in t with
   corners at both curves' breakpoints; on each interval the supremum is
   at the opening point or the left limit of the closing one (jumps make
   the two differ). The tail past the last corner is nonincreasing by
   the slope check. *)
let vdev alpha beta =
  if final_slope alpha > final_slope beta then infinity
  else begin
    let xs = merged_xs alpha beta in
    let gap_at t = eval alpha t -. eval beta t in
    let rec go acc = function
      | u :: (w :: _ as rest) ->
          let left_limit =
            gap_at u +. ((slope_at alpha u -. slope_at beta u) *. (w -. u))
          in
          go (Float.max acc (Float.max (gap_at u) left_limit)) rest
      | [ u ] -> Float.max acc (gap_at u)
      | [] -> acc
    in
    Float.max 0. (go 0. xs)
  end

let equal ?(eps = 1e-9) a b =
  final_slope a = final_slope b
  &&
  let xs = merged_xs a b in
  let mids =
    let rec go = function
      | u :: (w :: _ as rest) -> ((u +. w) /. 2.) :: go rest
      | _ -> []
    in
    go xs
  in
  List.for_all (fun x -> Float.abs (eval a x -. eval b x) <= eps) (xs @ mids)
