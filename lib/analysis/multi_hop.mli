(** End-to-end delay bounds across a tandem of service-curve servers —
    the natural multi-node extension of the paper's per-link guarantees
    (network-calculus concatenation: servers in series jointly guarantee
    the min-plus convolution of their curves, so the arrival burst is
    "paid only once"). *)

val convexify : Curve.Service_curve.t -> Curve.Service_curve.t
(** The largest convex two-piece curve below the given one: concave
    curves collapse to their long-run rate ([linear (rate s)]); convex
    curves are unchanged. The safe per-hop curve to convolve
    in {!bound}. *)

val bound :
  alpha:Curve.Piecewise.t ->
  hops:(Curve.Service_curve.t * float) list ->
  lmax:int ->
  float
(** [bound ~alpha ~hops ~lmax] — worst-case end-to-end delay of a flow
    with arrival envelope [alpha] through hops [(service curve, link
    rate)]: the horizontal deviation against the convolved (convexified)
    curves plus one [lmax] packetization term per hop (Theorem 2 applies
    at each link).

    @raise Invalid_argument on empty [hops] or non-positive [lmax]. *)

val sum_of_per_hop_bounds :
  alpha:Curve.Piecewise.t ->
  hops:(Curve.Service_curve.t * float) list ->
  lmax:int ->
  float
(** The naive alternative — each hop analyzed in isolation with the
    output burstiness of the previous one propagated forward
    ([alpha_{i+1} = alpha_i + burst growth]). Always at least {!bound};
    the gap is the "pay bursts only once" advantage, demonstrated in
    experiment E12. *)
