(** Shifted-integer ("fixed-point") two-piece curve arithmetic — the
    kernel idiom of production H-FSC implementations (ALTQ, Linux
    [sch_hfsc]), specialized here for {!Runtime_curve}'s role on the
    scheduler hot path.

    Wall-clock seconds are mapped to integer {e ticks} at [2^30] ticks
    per second (a power of two, so the seconds-to-ticks scaling of any
    dyadic rational is exact). Slopes are kept in two precomputed
    shifted forms so curve evaluation and inversion are
    multiply-and-shift, never a division:

    - [sm], bytes per tick scaled by [2^sm_shift] — with [sm_shift]
      equal to the tick shift (30) this is simply bytes/second rounded
      to the nearest integer (quantum 1 B/s);
    - [ism], ticks per byte scaled by [2^ism_shift] (the inverse
      slope), with [ht_infinity] standing in for the inverse of a zero
      slope.

    {b Proven error bounds} (asserted by [test/test_fixedpoint.ml],
    documented in DESIGN.md §12) for a slope [m] in B/s:

    - forward: [|seg_x2y x (m2sm m) - x·m/tick_hz| <= x/tick_hz/2 + 1]
      bytes — half a byte per elapsed second of slope quantization
      plus under one byte of split-multiply floor;
    - inverse: [|seg_y2x y (m2ism m) - y·tick_hz/m| <= y/2^(ism_shift+1) + 1]
      ticks — under a nanosecond per [2^(ism_shift+1)] bytes.

    The arithmetic never overflows provided every
    [elapsed-ticks × sm] and [byte-delta × ism] product stays below
    [2^62]. {!seg_x2y}'s low-bits product [(dt land mask)·sm] alone
    reaches [2^30·sm], so it overflows for any [dt] once a slope
    reaches [2^32] B/s (≈ 34 Gbit/s): [seg_x2y (2^30-1) (m2sm 4.4e9)]
    is negative. {!check_sc} and {!check_breakpoint} therefore refuse
    any slope above {!max_rate} ([2^31] B/s, ≈ 17 Gbit/s), and [Hfsc]
    refuses link rates above it. Within that bound the products fit
    for rates sustained over a backlog period, and for curves of rate
    ≥ 1 KB/s over byte deltas up to [2^36] (≈ 64 GB) — far beyond
    anything the simulator or benches produce. All quantities are
    nonnegative.

    Both [Hfsc] and the linear-scan reference [Hfsc_ref] perform {e all}
    time/service arithmetic through this module (or verbatim in-unit
    copies of its hot functions), which is what keeps their
    differential tests bit-exact; the float {!Runtime_curve} remains
    the exactness oracle that the property tests compare against. *)

val tick_hz : float
(** [2. ** 30.], ticks per second as a float. *)

val sm_shift : int
(** [30]: scaling of the forward slope [sm]. *)

val ism_shift : int
(** [12]: scaling of the inverse slope [ism]. *)

val ht_infinity : int
(** [max_int] — "never": the inverse of a zero slope, unreachable
    service targets. *)

(** {2 Scalar conversions} *)

val ticks_of_seconds : float -> int
(** Floor; for nonnegative times. Floor (rather than rounding) keeps
    the eligibility test conservative: a leaf is reported eligible at
    wall-clock [t] only if its eligible tick has truly arrived. *)

val seconds_of_ticks : int -> float
(** Exact for all reachable tick values (they sit far below [2^53]);
    [ht_infinity] maps to [infinity]. *)

val knee_ticks : float -> int
(** A breakpoint in seconds to ticks, round-to-nearest: the [dx] of
    {!isc_of_sc}. *)

val m2sm : float -> int
(** Slope (B/s) to shifted forward slope, round-to-nearest. *)

val m2ism : float -> int
(** Slope (B/s) to shifted inverse slope, round-to-nearest;
    [ht_infinity] when the slope is zero (or so small the inverse
    would not fit). *)

val seg_x2y : int -> int -> int
(** [seg_x2y dt sm] = service earned over [dt] ticks at slope [sm],
    as the overflow-avoiding split multiply
    [(dt asr s)·sm + ((dt land mask)·sm) asr s]. Exactly
    [floor (dt·sm / 2^sm_shift)] for nonnegative inputs. *)

val seg_y2x : int -> int -> int
(** [seg_y2x dy ism] = ticks to earn [dy] bytes at inverse slope
    [ism]; the mirror split multiply, [ht_infinity] if [ism] is. *)

(** {2 Internal service curves} *)

type isc = {
  sm1 : int;
  ism1 : int;
  dx : int;  (** ticks of the first segment *)
  dy : int;  (** [seg_x2y dx sm1] — quantization-consistent rise *)
  sm2 : int;
  ism2 : int;
}
(** A {!Service_curve.t} with both slopes pre-shifted and the
    breakpoint in ticks — computed once per configuration change,
    read on every activation. *)

val isc_of_sc : Service_curve.t -> isc

(** {2 Representable curves} *)

val min_rate : float
(** [0.5] B/s: the smallest slope {!m2sm} does not round to 0. *)

val max_rate : float
(** [2^31] B/s (≈ 17 Gbit/s): the largest slope whose products stay
    below [2^62] (see the overflow envelope above). *)

val check_breakpoint : string -> string -> Service_curve.t -> unit
(** [check_breakpoint what curve s] raises [Invalid_argument] naming
    ["what curve"] (e.g. ["Hfsc.add_class usc"]; the label is built only
    on a refusal) and containing "out of range" unless the breakpoint [s.d] lies
    under [2^31] s (about 68 years), so that its tick count ([2^61] at
    most) still fits an [int] once added to a curve anchor, and
    neither slope [s.m1] nor [s.m2] exceeds {!max_rate}. At [2^32] s
    the tick count itself overflows and the curve is served as
    garbage; from [2^32] B/s {!seg_x2y} overflows. For every curve,
    upper-limit curves included. *)

val check_sc : string -> string -> Service_curve.t -> unit
(** {!check_breakpoint}, and the same refusal when the long-run rate
    [s.m2] is under {!min_rate}: it would quantize to a zero slope, an
    infinite deadline or virtual time the scheduler cannot order. For
    real-time and link-sharing curves; [m1 = 0] stays legal (convex
    curves use it). *)

val isc_concave : isc -> bool
(** Concavity of the {e quantized} curve ([sm1 > sm2]) — the branch
    the runtime minimum must take to stay internally consistent. *)

(** {2 Runtime two-piece curves}

    The integer mirror of {!Runtime_curve}: origin [(x, y)] in
    (ticks, bytes), first segment of [dx] ticks rising [dy] bytes at
    [sm1], then slope [sm2] forever. *)

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

val of_isc : isc -> x:int -> y:int -> t

val x2y : t -> int -> int
(** Mirror of {!Runtime_curve.eval}. *)

val y2x : t -> int -> int
(** Mirror of {!Runtime_curve.inverse}; [ht_infinity] where the float
    version returns [infinity]. *)

val min_into : int array -> int -> isc -> x:int -> y:int -> unit
(** [min_into a i s ~x ~y] is the runtime minimum in place: the curve
    whose anchor is [a.(i)], [a.(i+1)], [a.(i+2)], [a.(i+3)] (x, y, dx,
    dy) over the slopes of its generator [s] becomes its minimum with
    [s] anchored at [(x, y)]. Mirror of {!Runtime_curve.min_with}
    (Fig. 8 / [rtsc_min]), branch-for-branch, on the quantized slopes;
    allocates nothing. *)

val min_with : t -> isc -> x:int -> y:int -> t
(** {!min_into} on a fresh copy of [c]'s anchor. The same precondition
    applies: [c] and the fresh curve share their generator [s], whose
    slopes the result carries. *)

val translate_x : t -> int -> t
val flatten : t -> t
val pp : Format.formatter -> t -> unit
