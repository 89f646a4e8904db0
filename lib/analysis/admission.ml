module Sc = Curve.Service_curve
module Fp = Curve.Fixed_point
module Imap = Map.Make (Int)

(* One distinct knee tick's share of the sum: its curves' sm1s and sm2s,
   and how many curves share it (the entry goes when that reaches 0). *)
type knee = { s1 : int; s2 : int; k : int }

type t = {
  mutable count : int;
  mutable linear : int; (* the knee-less curves' sm *)
  mutable knees : knee Imap.t;
}

let create () = { count = 0; linear = 0; knees = Imap.empty }

(* [c] as [Fp.isc_of_sc] converts it for the scheduler: [(dx, sm1,
   sm2)], with [dx = 0] when the knee vanishes there (d rounds to 0
   ticks, or both slopes round to one) and the curve runs at sm2. A
   linear curve needs only its sm2. *)
let convert (c : Sc.t) =
  let sm2 = Fp.m2sm c.m2 in
  if c.d = 0. || c.m1 = c.m2 then (0, sm2, sm2)
  else
    let sm1 = Fp.m2sm c.m1 and dx = Fp.knee_ticks c.d in
    if dx = 0 || sm1 = sm2 then (0, sm2, sm2) else (dx, sm1, sm2)

(* [sign] is 1 to add [c], -1 to take it out *)
let change r c sign =
  let dx, sm1, sm2 = convert c in
  r.count <- r.count + sign;
  if dx = 0 then r.linear <- r.linear + (sign * sm2)
  else
    r.knees <-
      Imap.update dx
        (function
          | None -> Some { s1 = sign * sm1; s2 = sign * sm2; k = sign }
          | Some e when e.k + sign = 0 -> None
          | Some e ->
              Some
                {
                  s1 = e.s1 + (sign * sm1);
                  s2 = e.s2 + (sign * sm2);
                  k = e.k + sign;
                })
        r.knees

let add r c = change r c 1
let remove r c = change r c (-1)

let of_list curves =
  let r = create () in
  List.iter (add r) curves;
  r

let equal a b =
  a.count = b.count && a.linear = b.linear && Imap.equal ( = ) a.knees b.knees

(* Demand and capacity at a tick, in B/s x ticks, reach 2^114 (slope
   sums under 2^53, ticks under 2^61), so the sweep keeps them exact as
   [hi * 2^61 + lo] with 0 <= lo < 2^61, updated in place: the value is
   negative exactly when [hi] is. *)
type wide = { mutable hi : int; mutable lo : int }

let bits = 61
let mask = (1 lsl bits) - 1
let wide () = { hi = 0; lo = 0 }

(* [lo] may lie anywhere in (-2^61, 2^62): [asr] and [land] carry it *)
let set w hi lo =
  w.hi <- hi + (lo asr bits);
  w.lo <- lo land mask

let copy ~into w = set into w.hi w.lo

(* [w <- w + a * t] for |a| < 2^55 and 0 <= t < 2^61, from 31-bit
   halves so that no partial product reaches 2^62 *)
let add_mul w a t =
  let m = abs a in
  let a0 = m land 0x7fff_ffff and a1 = m lsr 31 in
  let t0 = t land 0x7fff_ffff and t1 = t lsr 31 in
  let p0 = a0 * t0 and mid = (a1 * t0) + (a0 * t1) in
  let lo = (p0 land mask) + ((mid land 0x3fff_ffff) lsl 31) in
  let hi = (2 * a1 * t1) + (mid lsr 30) + (p0 lsr bits) + (lo lsr bits) in
  let lo = lo land mask in
  if a < 0 then set w (w.hi - hi) (w.lo - lo) else set w (w.hi + hi) (w.lo + lo)

(* [w <- w - x] *)
let sub w x = set w (w.hi - x.hi) (w.lo - x.lo)

let lt a b = a.hi < b.hi || (a.hi = b.hi && a.lo < b.lo)

(* [slope * t + offset] in bytes, for the witness's text *)
let bytes slope t offset =
  let w = wide () in
  copy ~into:w offset;
  add_mul w slope t;
  ldexp (ldexp (float_of_int w.hi) bits +. float_of_int w.lo) (-30)

let no_knee = { s1 = 0; s2 = 0; k = 0 }

(* The knee of [knees] with the largest excess of demand over the
   capacity [(cdx, csm1, csm2)], the earlier on a tie, as (t, demand,
   capacity); [None] when every knee fits. *)
let worst_knee ~linear knees (cdx, csm1, csm2) =
  let cap_knee = cdx > 0 in
  let knees =
    if cap_knee && not (Imap.mem cdx knees) then Imap.add cdx no_knee knees
    else knees
  in
  if Imap.is_empty knees then None
  else begin
    (* past its knee the capacity is sm2 * t + (sm1 - sm2) * dx *)
    let cap_base = wide () and none = wide () in
    if cap_knee then add_mul cap_base (csm1 - csm2) cdx;
    let ahead1 = ref (Imap.fold (fun _ e a -> a + e.s1) knees 0) in
    let behind2 = ref 0 in
    (* [base]: sum of (sm1 - sm2) * dx over the knees behind; [margin]:
       capacity - demand at the knee; [worst]: the smallest negative
       margin, met at tick [at] (0: none yet) with the demand's and the
       capacity's slopes [slope_at] and [cslope_at] and [base] then
       [worst_base] *)
    let base = wide () and margin = wide () and worst = wide () in
    let worst_base = wide () in
    let at = ref 0 and slope_at = ref 0 and cslope_at = ref 0 in
    Imap.iter
      (fun tick e ->
        let slope = linear + !ahead1 + !behind2 in
        let past = cap_knee && tick > cdx in
        let cslope = if past || not cap_knee then csm2 else csm1 in
        copy ~into:margin (if past then cap_base else none);
        sub margin base;
        add_mul margin (cslope - slope) tick;
        if margin.hi < 0 && (!at = 0 || lt margin worst) then begin
          copy ~into:worst margin;
          copy ~into:worst_base base;
          at := tick;
          slope_at := slope;
          cslope_at := cslope
        end;
        ahead1 := !ahead1 - e.s1;
        behind2 := !behind2 + e.s2;
        add_mul base (e.s1 - e.s2) tick)
      knees;
    let t = !at in
    if t = 0 then None
    else
      Some
        ( float_of_int t /. Fp.tick_hz,
          bytes !slope_at t worst_base,
          bytes !cslope_at t (if cap_knee && t > cdx then cap_base else none) )
  end

let fits r ~capacity ~remove ~add =
  (* the change, made to a copy: the knee map is persistent *)
  let v = { r with count = r.count } in
  Option.iter (fun c -> change v c (-1)) remove;
  Option.iter (fun c -> change v c 1) add;
  let ((_, _, csm2) as cap) = convert capacity in
  match worst_knee ~linear:v.linear v.knees cap with
  | Some w -> Error w
  | None ->
      let tail = Imap.fold (fun _ e a -> a + e.s2) v.knees v.linear in
      if tail > csm2 then Error (infinity, float_of_int tail, float_of_int csm2)
      else Ok ()
