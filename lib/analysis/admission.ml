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

(* --- running sums ------------------------------------------------------ *)

module Running = struct
  module Fmap = Map.Make (Float)

  (* One distinct knee time's share of the sum: its curves' m1s and m2s,
     and how many curves share it (the entry goes when that reaches 0). *)
  type knee = { s1 : float; s2 : float; k : int }

  type t = {
    mutable count : int;
    mutable nlinear : int;
    mutable linear : float; (* the knee-less curves' rates *)
    mutable knees : knee Fmap.t;
    (* sum of m1 + m2 over every curve summed or taken out since the
       last [reset]: a bound on any partial sum an accumulator held *)
    mutable weight : float;
    mutable updates : int; (* adds and removes since the last [reset] *)
  }

  let create () =
    {
      count = 0;
      nlinear = 0;
      linear = 0.;
      knees = Fmap.empty;
      weight = 0.;
      updates = 0;
    }

  let stale r ~walk = r.updates > r.count && r.updates > walk

  (* [sign] is 1 to add [c], -1 to take it out; a sum that empties
     becomes exactly 0 again, with no rounding residue. *)
  let bump knees (c : Sc.t) sign =
    let f = float_of_int sign in
    Fmap.update c.d
      (function
        | None -> Some { s1 = f *. c.m1; s2 = f *. c.m2; k = sign }
        | Some e when e.k + sign = 0 -> None
        | Some e ->
            Some
              {
                s1 = e.s1 +. (f *. c.m1);
                s2 = e.s2 +. (f *. c.m2);
                k = e.k + sign;
              })
      knees

  let change r (c : Sc.t) sign =
    r.count <- r.count + sign;
    r.updates <- r.updates + 1;
    r.weight <- r.weight +. c.m1 +. c.m2;
    if has_knee c then r.knees <- bump r.knees c sign
    else begin
      r.nlinear <- r.nlinear + sign;
      r.linear <-
        (if r.nlinear = 0 then 0. else r.linear +. (float_of_int sign *. c.m2))
    end

  let add r c = change r c 1
  let remove r c = change r c (-1)

  let reset r curves =
    r.count <- 0;
    r.nlinear <- 0;
    r.linear <- 0.;
    r.knees <- Fmap.empty;
    r.weight <- 0.;
    List.iter (add r) curves;
    r.updates <- 0

  let of_list curves =
    let r = create () in
    reset r curves;
    r

  (* The error bound both the running sums and the fold stay inside:
     each float operation errs by at most epsilon/2 of a value no larger
     than [weight] times the abscissa, and neither side performs more
     than [count + updates + knees] of them per accumulator. *)
  let slack_rate ~terms ~weight =
    2. *. float_of_int terms *. epsilon_float *. weight

  (* [fits]' sweep state, in one all-float record so that no step
     boxes a float. *)
  type sweep = {
    mutable ahead1 : float; (* the m1s of the knees at or after t *)
    mutable behind2 : float; (* the m2s of the knees before t *)
    mutable base : float; (* sum of (m1 - m2) * d over the knees before t *)
    mutable fits : float; (* 1. while every margin has beaten the slack *)
  }

  let no_knee = { s1 = 0.; s2 = 0.; k = 0 }

  let fits r ~(capacity : Sc.t) ~remove ~add =
    (* the change, made to a copy: the knee map is persistent *)
    let v = { r with count = r.count } in
    Option.iter (fun c -> change v c (-1)) remove;
    Option.iter (fun c -> change v c 1) add;
    let cap_knee = has_knee capacity in
    let knees =
      if cap_knee && not (Fmap.mem capacity.d v.knees) then
        Fmap.add capacity.d no_knee v.knees
      else v.knees
    in
    let linear = v.linear in
    let slack =
      slack_rate
        ~terms:(v.count + v.updates + Fmap.cardinal knees + 2)
        ~weight:(v.weight +. capacity.m1 +. capacity.m2)
    in
    let s = { ahead1 = 0.; behind2 = 0.; base = 0.; fits = 1. } in
    Fmap.iter (fun _ e -> s.ahead1 <- s.ahead1 +. e.s1) knees;
    Fmap.iter
      (fun t e ->
        let demand = ((linear +. s.ahead1 +. s.behind2) *. t) +. s.base in
        let cap =
          if cap_knee && t > capacity.d then
            (capacity.m1 *. capacity.d) +. (capacity.m2 *. (t -. capacity.d))
          else if cap_knee then capacity.m1 *. t
          else capacity.m2 *. t
        in
        (* written so that a NaN margin does not fit *)
        if not (cap -. demand > slack *. t) then s.fits <- 0.;
        s.ahead1 <- s.ahead1 -. e.s1;
        s.behind2 <- s.behind2 +. e.s2;
        s.base <- s.base +. ((e.s1 -. e.s2) *. t))
      knees;
    s.fits = 1. && capacity.m2 -. (linear +. s.behind2) > slack

  let drift (r : t) ~against:(fresh : t) =
    let tol =
      slack_rate
        ~terms:(r.count + r.updates + Fmap.cardinal r.knees)
        ~weight:r.weight
    in
    let near a b = Float.abs (a -. b) <= tol in
    if r.count <> fresh.count || r.nlinear <> fresh.nlinear then
      Some
        (Printf.sprintf "%d curves (%d linear), a rebuild sums %d (%d linear)"
           r.count r.nlinear fresh.count fresh.nlinear)
    else if not (near r.linear fresh.linear) then
      Some
        (Printf.sprintf "linear rate %h, a rebuild sums %h" r.linear
           fresh.linear)
    else if
      not
        (Fmap.equal
           (fun a b -> a.k = b.k && near a.s1 b.s1 && near a.s2 b.s2)
           r.knees fresh.knees)
    then
      Some
        (Printf.sprintf "%d knees, a rebuild has %d with other sums"
           (Fmap.cardinal r.knees) (Fmap.cardinal fresh.knees))
    else None
end
