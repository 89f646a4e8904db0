(* Kernel-style shifted-integer curve arithmetic. See the .mli for the
   representation, the error bounds and the overflow envelope; see
   DESIGN.md §12 for the derivations. lib/hfsc keeps in-unit copies of
   the four hot functions (seg_x2y/seg_y2x/x2y/y2x) because the dev
   profile's -opaque disables cross-module inlining; those copies must
   stay in sync with this module (the scheduler differential suite
   exercises both sides against each other). *)

let tick_shift = 30
let tick_hz = 1073741824. (* 2^30 *)
let sm_shift = 30
let ism_shift = 12
let sm_mask = (1 lsl sm_shift) - 1
let ism_mask = (1 lsl ism_shift) - 1
let ht_infinity = max_int

let ticks_of_seconds s = int_of_float (s *. tick_hz)

let knee_ticks d = int_of_float (Float.round (d *. tick_hz))

let seconds_of_ticks k =
  if k >= ht_infinity then infinity else float_of_int k /. tick_hz

(* Round-to-nearest on the slope conversions: halves the worst-case
   slope quantization versus truncation, and both schedulers go
   through these same two functions so they agree bit-exactly. *)
let m2sm m =
  let v = Float.round (m *. ldexp 1. (sm_shift - tick_shift)) in
  if v >= float_of_int max_int then ht_infinity else int_of_float v

let m2ism m =
  if m <= 0. then ht_infinity
  else
    let v = Float.round (ldexp 1. (tick_shift + ism_shift) /. m) in
    if v >= float_of_int max_int then ht_infinity else int_of_float v

(* The split multiply: exact floor((x * sm) / 2^shift) without ever
   forming the 2^62-overflowing product x * sm. *)
let[@inline always] seg_x2y x sm =
  ((x asr sm_shift) * sm) + (((x land sm_mask) * sm) asr sm_shift)

let[@inline always] seg_y2x y ism =
  if ism >= ht_infinity then ht_infinity
  else ((y asr ism_shift) * ism) + (((y land ism_mask) * ism) asr ism_shift)

type isc = { sm1 : int; ism1 : int; dx : int; dy : int; sm2 : int; ism2 : int }

let isc_of_sc (s : Service_curve.t) =
  let sm1 = m2sm s.m1 and sm2 = m2sm s.m2 in
  let dx = knee_ticks s.d in
  {
    sm1;
    ism1 = m2ism s.m1;
    dx;
    (* dy from the quantized slope, not [m1 *. d]: evaluation must hit
       the breakpoint the segments themselves reach *)
    dy = seg_x2y dx sm1;
    sm2;
    ism2 = m2ism s.m2;
  }

let isc_concave i = i.sm1 > i.sm2

let min_rate = 0.5
let max_rate = ldexp 1. 31
let max_breakpoint = ldexp 1. 31

(* The label ["WHAT CURVE"] is built only when a check refuses. *)
let check_breakpoint what curve (s : Service_curve.t) =
  if s.d >= max_breakpoint then
    invalid_arg
      (Printf.sprintf
         "%s %s: breakpoint d=%gs out of range (must be under 2^31 s)" what
         curve s.d);
  let m = Float.max s.m1 s.m2 in
  if m > max_rate then
    invalid_arg
      (Printf.sprintf
         "%s %s: rate %g B/s out of range (over 2^31 B/s its fixed-point \
          products overflow)"
         what curve m)

let check_sc what curve (s : Service_curve.t) =
  if s.m2 < min_rate then
    invalid_arg
      (Printf.sprintf
         "%s %s: long-run rate %g B/s out of range (under %g B/s it rounds \
          to 0 in fixed point)"
         what curve s.m2 min_rate);
  check_breakpoint what curve s

type t = {
  x : int;
  y : int;
  dx : int;
  dy : int;
  sm1 : int;
  ism1 : int;
  sm2 : int;
  ism2 : int;
}

let of_isc (i : isc) ~x ~y =
  { x; y; dx = i.dx; dy = i.dy; sm1 = i.sm1; ism1 = i.ism1; sm2 = i.sm2; ism2 = i.ism2 }

let[@inline always] x2y c t =
  if t <= c.x then c.y
  else if t <= c.x + c.dx then c.y + seg_x2y (t - c.x) c.sm1
  else c.y + c.dy + seg_x2y (t - c.x - c.dx) c.sm2

let[@inline always] y2x c v =
  if v < c.y then c.x
  else if v <= c.y + c.dy then
    if c.dy = 0 then c.x + c.dx else c.x + seg_y2x (v - c.y) c.ism1
  else if c.sm2 > 0 then c.x + c.dx + seg_y2x (v - c.y - c.dy) c.ism2
  else ht_infinity (* flat tail: v > y + dy is never reached *)

(* Branch-for-branch port of Runtime_curve.min_with (Fig. 8 /
   rtsc_min), with the crossing division done as a two-step
   quotient/remainder so [(y1 - y) lsl sm_shift] is never formed:
   [(q lsl s) + ((r lsl s) / d)] equals [(a lsl s) / d] exactly for
   nonnegative [a = q*d + r]. *)
let min_with c (s : isc) ~x ~y =
  if s.sm1 <= s.sm2 then begin
    (* convex: parallel translates; take whichever lies lower *)
    if x2y c x < y then c else { c with x; y }
  end
  else begin
    let y1 = x2y c x in
    if y1 <= y then c
    else begin
      let y2 = x2y c (x + s.dx) in
      if y2 >= y + s.dy then of_isc s ~x ~y
      else begin
        let a = y1 - y in
        let dsm = s.sm1 - s.sm2 in
        let dx = ((a / dsm) lsl sm_shift) + (((a mod dsm) lsl sm_shift) / dsm) in
        let dx = if c.x + c.dx > x then dx + (c.x + c.dx - x) else dx in
        {
          x;
          y;
          dx;
          dy = seg_x2y dx s.sm1;
          sm1 = s.sm1;
          ism1 = s.ism1;
          sm2 = s.sm2;
          ism2 = s.ism2;
        }
      end
    end
  end

let translate_x c delta = { c with x = c.x + delta }
let flatten c = { c with dx = 0; dy = 0 }

let pp ppf c =
  Format.fprintf ppf "{(%d,%d) dx=%d dy=%d sm1=%d sm2=%d}" c.x c.y c.dx c.dy
    c.sm1 c.sm2
