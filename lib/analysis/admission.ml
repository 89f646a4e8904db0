module P = Curve.Piecewise
module Sc = Curve.Service_curve

let has_knee (c : Sc.t) = c.d > 0. && c.m1 <> c.m2

(* The sum of [curves] in one sweep over their knees. A curve runs at
   m1 until d and at m2 after it ([P.of_service_curve]: linear at m2
   when d = 0 or m1 = m2), so the sum's slope changes only at the
   sorted, distinct knees: O(n log n), where a pairwise [P.sum] fold
   re-merges and re-validates the whole accumulated curve n times.

   Every slope is a sum of rates, never a running difference, so
   rounding cannot drive one negative: between knees it is the linear
   curves' rates plus the m2s of the knees behind and the m1s of those
   ahead. The first and the tail slope are the in-order sums a pairwise
   fold computes, bit for bit — the tail decides asymptotic verdicts,
   and a fully allocated link can fit or not depending on the order of
   summation. A knee where the slope does not change is dropped, as
   [P.sum]'s compression does. *)
let sum_curves curves =
  let cs = Array.of_list curves in
  let first = ref 0. and tail = ref 0. and linear = ref 0. and n = ref 0 in
  for i = 0 to Array.length cs - 1 do
    let c : Sc.t = cs.(i) in
    tail := !tail +. c.m2;
    if has_knee c then begin
      first := !first +. c.m1;
      incr n
    end
    else begin
      first := !first +. c.m2;
      linear := !linear +. c.m2
    end
  done;
  let n = !n in
  let knees = Array.make n Sc.zero in
  let k = ref 0 in
  Array.iter
    (fun c ->
      if has_knee c then begin
        knees.(!k) <- c;
        incr k
      end)
    cs;
  (* siblings often share one delay bound, so the knees tend to arrive
     in order already, and a merge sort does not exploit that *)
  let in_order = ref true in
  for i = 1 to n - 1 do
    if knees.(i).d < knees.(i - 1).d then in_order := false
  done;
  if not !in_order then
    Array.stable_sort (fun (a : Sc.t) (b : Sc.t) -> Float.compare a.d b.d) knees;
  let ahead = Array.make (n + 1) 0. in
  for i = n - 1 downto 0 do
    ahead.(i) <- ahead.(i + 1) +. knees.(i).m1
  done;
  (* (x, y, s): the last kept segment; [behind]: the m2s of knees < i *)
  let segs = ref [ (0., 0., !first) ] in
  let x = ref 0. and y = ref 0. and s = ref !first in
  let i = ref 0 and behind = ref 0. in
  while !i < n do
    let d = knees.(!i).d in
    while !i < n && knees.(!i).d = d do
      behind := !behind +. knees.(!i).m2;
      incr i
    done;
    let s' = if !i = n then !tail else !linear +. !behind +. ahead.(!i) in
    if s' <> !s then begin
      y := !y +. (!s *. (d -. !x));
      x := d;
      s := s';
      segs := (d, !y, s') :: !segs
    end
  done;
  P.make (List.rev !segs)

let violating_breakpoint ~capacity curves =
  let demand = sum_curves curves in
  let xs =
    List.sort_uniq Float.compare
      (List.map (fun (x, _, _) -> x) (P.segments demand)
      @ List.map (fun (x, _, _) -> x) (P.segments capacity))
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

let usc_violating_breakpoint ~rsc ~usc =
  violating_breakpoint ~capacity:(P.of_service_curve usc) [ rsc ]
