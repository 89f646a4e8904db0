(** Nondecreasing piecewise-linear functions on [0, +inf).

    The general curve algebra behind the "analyzes" of the paper:
    arrival curves (token buckets), service curves of any number of
    pieces, their sums and minima, and the two network-calculus
    deviations — horizontal (delay bound) and vertical (backlog bound).
    The scheduler itself never uses this module (it sticks to the O(1)
    two-piece {!Runtime_curve}); the analysis and fluid-model libraries
    do.

    A curve is a finite sequence of segments [(x, y, slope)]: from
    abscissa [x] the function is [y + slope * (t - x)] until the next
    segment. Upward jumps between segments are allowed (a token bucket
    jumps to sigma at 0); the function is right-continuous and
    nondecreasing. The last segment extends to +inf. *)

type t

val make : (float * float * float) list -> t
(** [make segs] builds a curve from [(x, y, slope)] triples.

    @raise Invalid_argument if the list is empty, abscissae are not
    strictly increasing starting at 0, any slope is negative, or the
    function would decrease at a segment boundary. *)

val zero : t
val constant : float -> t
val linear : slope:float -> t

val token_bucket : sigma:float -> rho:float -> t
(** Jump to [sigma] at 0, then slope [rho] — the arrival envelope of a
    ([sigma], [rho])-regulated source. *)

val of_service_curve : Service_curve.t -> t
val segments : t -> (float * float * float) list
val eval : t -> float -> float
(** [eval f t]; 0 for [t < 0]. *)

val inverse : t -> float -> float
(** Smallest [t] with [eval f t >= v]; [infinity] if unreached. *)

val final_slope : t -> float

val slope_at : t -> float -> float
(** Slope of the segment containing [t] (right side at breakpoints). *)

val sum : t -> t -> t
val min_curve : t -> t -> t
(** Pointwise minimum (computes segment crossings exactly). *)

val max_curve : t -> t -> t
(** Pointwise maximum. *)

val scale : t -> float -> t
(** Multiply values by a factor [>= 0]. *)

val shift_right : t -> float -> t
(** [shift_right f d] is [t -> f (t - d)] (0 before [d]), for [d >= 0]. *)

val is_convex : t -> bool
(** Continuous with nondecreasing slopes (no upward jumps). *)

val convolve_convex : t -> t -> t
(** Min-plus convolution [(f (+) g)(t) = inf_s (f s + g (t - s))] of two
    {e convex} curves: the classic segment merge — both curves'
    segments, sorted by increasing slope, laid end to end from
    [f 0 + g 0]. This is the end-to-end service curve of two servers in
    tandem (each guaranteeing one of the curves), the basis of
    "pay bursts only once" multi-hop bounds.

    @raise Invalid_argument if either curve is not convex (general
    piecewise min-plus convolution is out of scope — service curves in
    this repository are convex or concave two-piece, and tandem analysis
    composes the convex ones; for concave [f], [g] with [f 0 = g 0 = 0]
    the convolution is simply [min_curve f g]). *)

val hdev : t -> t -> float
(** [hdev alpha beta] — horizontal deviation
    [sup_t (inf {d >= 0 | beta (t + d) >= alpha t})]: the worst-case
    delay of a flow with arrival curve [alpha] through a server
    guaranteeing service curve [beta]. [infinity] when [alpha]
    eventually outpaces [beta]. *)

val vdev : t -> t -> float
(** [vdev alpha beta] — vertical deviation [sup_t (alpha t - beta t)]:
    the worst-case backlog. *)

val equal : ?eps:float -> t -> t -> bool
(** Pointwise equality up to [eps] (default 1e-9) at all breakpoints of
    both curves and midpoints between them, plus equal final slopes. *)
