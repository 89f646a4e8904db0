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
