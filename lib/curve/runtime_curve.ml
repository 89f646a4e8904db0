type t = { x : float; y : float; dx : float; dy : float; m1 : float; m2 : float }

let of_service_curve (s : Service_curve.t) ~x ~y =
  { x; y; dx = s.d; dy = s.m1 *. s.d; m1 = s.m1; m2 = s.m2 }

(* [eval] and [inverse] run per packet on the scheduler's hot path;
   force-inline them so their float arguments and results stay unboxed
   in classic (non-flambda) ocamlopt. *)
let[@inline always] eval c t =
  if t <= c.x then c.y
  else if t <= c.x +. c.dx then c.y +. (c.m1 *. (t -. c.x))
  else c.y +. c.dy +. (c.m2 *. (t -. c.x -. c.dx))

let[@inline always] inverse c v =
  if v < c.y then c.x
  else if v <= c.y +. c.dy then
    if c.dy = 0. then c.x +. c.dx else c.x +. ((v -. c.y) /. c.m1)
  else if c.m2 > 0. then c.x +. c.dx +. ((v -. c.y -. c.dy) /. c.m2)
  else if v = c.y +. c.dy then c.x +. c.dx
  else infinity

(* Fig. 8 / rtsc_min. [c] and the fresh curve rooted at (x, y) share
   their generator [s], hence their slopes; see the .mli precondition.

   Convex ([m1 <= m2]): the two curves are parallel translates, so the
   minimum is simply whichever lies lower — and they do not cross.

   Concave ([m1 > m2]): the fresh curve starts below ([y <= c(x)] is the
   interesting case) but climbs faster in its first piece; the minimum
   follows the fresh curve until it overtakes [c], then follows [c]. The
   crossing distance is [(c(x) - y) / (m1 - m2)] past the point where
   [c] is already in its second piece, giving a first segment of length
   [dx] that may exceed the generator's [d]. *)
let min_with c (s : Service_curve.t) ~x ~y =
  if s.m1 <= s.m2 then begin
    (* convex *)
    if eval c x < y then c else { c with x; y }
  end
  else begin
    let y1 = eval c x in
    if y1 <= y then c
    else begin
      let y2 = eval c (x +. s.d) in
      let sc_dy = s.m1 *. s.d in
      if y2 >= y +. sc_dy then of_service_curve s ~x ~y
      else begin
        let dx = (y1 -. y) /. (s.m1 -. s.m2) in
        let dx = if c.x +. c.dx > x then dx +. (c.x +. c.dx -. x) else dx in
        { x; y; dx; dy = s.m1 *. dx; m1 = s.m1; m2 = s.m2 }
      end
    end
  end

let translate_x c delta = { c with x = c.x +. delta }
let flatten c = { c with dx = 0.; dy = 0. }
