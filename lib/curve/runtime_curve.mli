(** Runtime curves — the deadline, eligible and virtual curves of the
    H-FSC algorithm (Sections IV-B, IV-C and V, Fig. 8).

    A runtime curve is a two-piece linear function anchored at an
    arbitrary origin [(x, y)]: slope [m1] for [dx] along the x-axis
    (rising by [dy = m1 *. dx]), then slope [m2] forever. For [t <= x]
    the curve is the constant [y]. The x-axis is wall-clock time for
    deadline/eligible curves and virtual time for virtual curves; the
    y-axis is cumulative service in bytes.

    The central operation is {!min_with}: when a class becomes active at
    time [a] having received [c] bytes (of real-time — resp. total —
    service), its curve becomes the pointwise minimum of the old curve
    and [c + S(. - a)] (equations (7) and (12) of the paper). For the
    two curve shapes used (concave; convex with flat first piece) this
    minimum is again two-piece linear — the closure property Section V
    relies on for O(1) updates.

    Values are immutable; updates return fresh curves. *)

type t = private {
  x : float;  (** origin abscissa (wall-clock or virtual time) *)
  y : float;  (** origin ordinate (bytes of service) *)
  dx : float;  (** x-extent of the first segment *)
  dy : float;  (** y-extent of the first segment, [m1 *. dx] *)
  m1 : float;  (** first-segment slope (bytes per x-unit) *)
  m2 : float;  (** second-segment slope *)
}

val of_service_curve : Service_curve.t -> x:float -> y:float -> t
(** [of_service_curve s ~x ~y] is the curve [t -> y + S (t - x)]. *)

val eval : t -> float -> float
(** [eval c t] — the [rtsc_x2y] of the reference implementation. *)

val inverse : t -> float -> float
(** [inverse c v] is the time at which the curve reaches [v]:
    the abscissa of the {e end} of the flat stretch at value [v] if the
    curve is locally flat (so deadlines of zero-slope stretches fall
    after the stretch), [c.x] if [v < c.y], and [infinity] if the curve
    never reaches [v] (both slopes can be 0). The [rtsc_y2x] of the
    reference implementation; for strictly increasing curves it is the
    exact functional inverse of {!eval}. *)

val min_with : t -> Service_curve.t -> x:float -> y:float -> t
(** [min_with c s ~x ~y] is the pointwise minimum of [c] and
    [of_service_curve s ~x ~y], for [t >= x] (the only region the
    algorithm subsequently queries — Section II's remark that only the
    portion beyond the new activation is used).

    Precondition: [c] was produced by [of_service_curve s ...] followed
    by [min_with _ s ...] updates with the {e same} [s] — each class
    updates its curves only ever against its own service curve, which is
    what makes the result two-piece linear (Fig. 8).

    Exactness: for a {e concave} [s] the result is the exact pointwise
    minimum. For a convex [s] the two-piece family is not closed under
    minima (Section V notes closure only for convex curves with a flat
    first piece, and even there a re-anchored copy can dip under an old
    curve's ramp): following the reference implementation, the update
    then keeps whichever curve is lower {e at the anchor}. The result is
    exact at the anchor and never below the true minimum elsewhere —
    i.e. a conservative deadline curve, biased toward scheduling
    real-time service slightly earlier, by at most the service the class
    was pre-funded ahead of its curve. *)

val translate_x : t -> float -> t
(** [translate_x c delta] shifts the whole curve along the x-axis by
    [delta] (used to renormalize virtual curves when a class's
    accumulated virtual-time offset is folded away). *)

val flatten : t -> t
(** [flatten c] drops the first segment ([dx = dy = 0]): the one-piece
    curve from [(x, y)] with slope [m2]. This is the eligible curve of a
    class with a {e convex} service curve (end of Section IV-B): a
    convex curve's future demand is what forces early eligibility, and
    its envelope is the second slope from the activation point. *)
