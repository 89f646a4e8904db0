(** Admission control for service-curve schedulers (Section II): SCED —
    and hence H-FSC's real-time criterion — can guarantee curves
    [S_1..S_n] on a link with linear service curve [R·t] iff
    [sum_i S_i(t) <= R·t] for all [t]. *)

val violating_breakpoint :
  capacity:Curve.Piecewise.t ->
  Curve.Service_curve.t list ->
  (float * float * float) option
(** Where (if anywhere) [sum curves] escapes [capacity]:
    [Some (t, demand, capacity_at_t)] at the breakpoint of either side
    with the largest excess, or [(infinity, demand_rate, capacity_rate)]
    when the breakpoints all fit but the asymptotic rates do not; [None]
    when admissible. Since both sides are piecewise linear, checking
    breakpoints plus final slopes is exact — this is the report the
    runtime control plane attaches to a rejected command. The same
    test checks leaves' real-time curves against the link
    ([capacity] = [R·t]) and children's fair curves against their
    parent's ([capacity] = the parent's fsc). *)

(** {2 Upper-limit feasibility}

    An upper-limit curve caps the {e total} service a class may
    receive, while the real-time curve is a floor on the service it
    {e must} receive — so a configuration is feasible only when
    [rsc(t) <= usc(t)] for all [t]. A usc that dips below the rsc makes
    the guarantee unkeepable: once the cap binds, the class's deadlines
    pass while it is ineligible for service, and the real-time
    criterion's per-leaf bound (Theorem 1) no longer holds. Both curves
    are two-piece linear, so checking every breakpoint of either curve
    plus the asymptotic slopes is an exact test (same argument as
    {!violating_breakpoint}). Classes without one of the two curves are
    trivially feasible. *)

val usc_violating_breakpoint :
  rsc:Curve.Service_curve.t ->
  usc:Curve.Service_curve.t ->
  (float * float * float) option
(** Where (if anywhere) [rsc] escapes above [usc]:
    [Some (t, rsc_at_t, usc_at_t)] at the worst breakpoint,
    [(infinity, rsc_rate, usc_rate)] when only the asymptotic rates
    conflict, [None] when the pair is feasible. *)

(** {2 Running sums}

    The curves one admission scope sums — every leaf's rsc on a link,
    or one parent's children's fsc — kept as an aggregate a class op
    updates in O(log K), K the number of distinct knee times, instead
    of re-folding the whole scope: the count of curves, the knee-less
    curves' summed rate, and for each distinct knee [d] the sums of
    the m1s and m2s of the curves that bend there.

    The aggregate only ever answers "clearly fits". Rounding makes its
    sums differ from {!violating_breakpoint}'s in the last bits, and
    that fold's verdict can turn on the order of summation, so
    {!fits} demands every margin beat a slack bounding both sides'
    error: [2 (n + u + K + 2) epsilon_float W] per unit of time, where
    [n] counts the curves, [u] the updates since the last {!reset}, and
    [W] sums [m1 + m2] over every curve summed, taken out or weighed
    (the capacity and the change included). Anything short of that —
    every refusal among it — is the fold's to judge, so verdicts and
    refusal texts are the fold's, bit for bit. *)

module Running : sig
  type t

  val create : unit -> t
  (** The empty sum. *)

  val of_list : Curve.Service_curve.t list -> t

  val reset : t -> Curve.Service_curve.t list -> unit
  (** Rebuild from scratch, clearing the drift and the update count. *)

  val add : t -> Curve.Service_curve.t -> unit
  val remove : t -> Curve.Service_curve.t -> unit
  (** [remove] takes out a curve an earlier [add] put in: the same
      value, knee time included. A sum that empties is exactly 0. *)

  val stale : t -> walk:int -> bool
  (** Whether the owner should rebuild, by a [reset] that walks [walk]
      items to collect the curves: once the [add]s and [remove]s since
      the last [reset] outnumber both the curves summed and [walk]. That
      keeps drift bounded at amortised O(1) per update. *)

  val fits :
    t ->
    capacity:Curve.Service_curve.t ->
    remove:Curve.Service_curve.t option ->
    add:Curve.Service_curve.t option ->
    bool
  (** [true] only when the sum, with [remove] taken out and [add] put
      in (virtually: [t] is unchanged), stays under [capacity] by more
      than the slack at every knee of either side and in the tail
      slope — so {!violating_breakpoint} over the same curves, in any
      order, returns [None]. [false] says nothing: ask the fold. O(K),
      and it allocates O(log K) words whatever the number of curves. *)

  val drift : t -> against:t -> string option
  (** [None] when [t] and a rebuild of the same curves agree: equal
      counts and knee times, and sums within the slack. Otherwise what
      differs — the audit's report. *)
end
