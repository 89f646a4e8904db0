(** Admission control for service-curve schedulers (Section II): SCED —
    and hence H-FSC's real-time criterion — can guarantee curves
    [S_1..S_n] on a link with linear service curve [R·t] iff
    [sum_i S_i(t) <= R·t] for all [t]. The same test checks children's
    fair curves against their parent's and a class's real-time curve
    against its own upper limit, each against a two-piece capacity.

    {b In the scheduler's integers.} Each curve is converted once, as
    {!Curve.Fixed_point.isc_of_sc} converts it for the scheduler: both
    slopes to whole bytes per second ([sm1], [sm2]), the knee to [dx]
    ticks. A curve whose knee vanishes there ([dx = 0], or [sm1 = sm2])
    is linear at [sm2]. Admission therefore judges the slopes the
    scheduler runs, not the float ones it was given.

    {b One aggregate per scope} — every leaf's rsc on a link, or one
    parent's children's fsc: the count of its curves, the knee-less
    curves' summed [sm], and for each distinct knee tick the sums of the
    [sm1]s and [sm2]s of the curves that bend there (an entry goes when
    its last curve does). Integer sums are exact, so an aggregate kept
    by {!add} and {!remove} always {!equal}s one rebuilt from scratch,
    and the verdict depends on the multiset of curves only, never on
    the order they arrived in.

    {b Envelope.} Exactness needs every slope at most
    {!Curve.Fixed_point.max_rate} ([2^31] B/s, which [check_sc] and
    [check_breakpoint] enforce before admission) and fewer than [2^22]
    curves in a scope: then every slope sum stays under [2^53], exact
    as an [int] and as a float. Knees lie under [2^31] s, [2^61] ticks.
    Demand and capacity at a tick, in B/s × ticks, then stay under
    [2^114]; {!fits} holds them as two [int]s, so no step rounds or
    overflows. *)

type t

val create : unit -> t
(** The empty sum. *)

val of_list : Curve.Service_curve.t list -> t

val add : t -> Curve.Service_curve.t -> unit
(** O(log K), K the number of distinct knee ticks. *)

val remove : t -> Curve.Service_curve.t -> unit
(** Takes out a curve an earlier {!add} put in; O(log K). *)

val equal : t -> t -> bool
(** Exact equality: the same counts, knee ticks and sums. *)

val fits :
  t ->
  capacity:Curve.Service_curve.t ->
  remove:Curve.Service_curve.t option ->
  add:Curve.Service_curve.t option ->
  (unit, float * float * float) result
(** Whether the sum, with [remove] taken out and [add] put in
    (virtually: [t] is unchanged), stays under [capacity]. Both sides
    are piecewise linear, so one sweep over each knee tick of either
    side, in key order, and then the tail slopes is a complete test.

    [Error (t, demand, capacity_at_t)] names the knee with the largest
    excess, the earlier one on a tie, in seconds and bytes; when every
    knee fits but the tail does not, [(infinity, demand_rate,
    capacity_rate)] in B/s. This is the report the runtime control
    plane attaches to a refused command.

    Every comparison is exact: the tail's is between two slope sums,
    a knee's between demand and capacity in B/s × ticks. So an exact
    fit fits, and one multiset of curves always gets the same verdict
    and the same witness. O(K), and it allocates O(log K) words
    whatever the number of curves. *)
