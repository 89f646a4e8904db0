(** The signature {!Hfsc} and its linear-scan oracle {!Hfsc_ref} share;
    [Hfsc] adds {!Hfsc.table}, which the oracle has no counterpart for. *)

module type S = sig
  type t
  type cls

  (** Which criterion served a packet — exposed for instrumentation. *)
  type criterion = Realtime | Linkshare

  type vt_policy =
    | Vt_mean  (** joining class gets [(vmin + vmax) / 2] — the paper's
                   choice (Section IV-C), giving bounded sibling
                   discrepancy. Default. *)
    | Vt_min  (** joining class gets [vmin] — ablation; spread grows with
                  the number of siblings. *)
    | Vt_max  (** joining class gets [vmax] — ablation, ditto. *)

  type eligible_policy =
    | Eligible_paper
        (** Eligible curve = deadline curve for concave service curves;
            its [m2]-slope envelope for convex ones (end of Section IV-B).
            Default. *)
    | Eligible_deadline
        (** Ablation: eligible curve = deadline curve always. For convex
            curves this under-provisions the real-time criterion — future
            rate increases are not pre-funded — and leaf guarantees can be
            violated; exercised by the E9 bench to show why the paper's
            rule matters. *)

  type drop_policy = Ds.Fifo_queue.drop_policy = Tail_drop | Drop_longest
  (** The one drop-policy type, shared with {!Sched.Hls}. *)

  val create :
    ?vt_policy:vt_policy ->
    ?eligible_policy:eligible_policy ->
    link_rate:float ->
    unit ->
    t
  (** [create ~link_rate ()] builds a scheduler for a link of [link_rate]
      bytes/second. The root class is created implicitly with a linear
      fair service curve of that rate. A rate-capped class may carry at
      most 1 ms of unused upper-limit allowance forward as a burst. The
      aggregate backlog starts unlimited under {!Tail_drop}; see
      {!set_aggregate_limit} and {!set_drop_policy}.

      @raise Invalid_argument unless [link_rate] is finite and lies
      between {!Curve.Fixed_point.min_rate} and
      {!Curve.Fixed_point.max_rate}. *)

  val root : t -> cls

  val add_class :
    t ->
    parent:cls ->
    name:string ->
    ?rsc:Curve.Service_curve.t ->
    ?fsc:Curve.Service_curve.t ->
    ?usc:Curve.Service_curve.t ->
    ?qlimit:int ->
    ?qlimit_bytes:int ->
    unit ->
    cls
  (** Adds a class under [parent]. [rsc] is the real-time service curve
      (leaf classes only — adding a child to a class with an [rsc]
      raises); [fsc] the fair (link-sharing) service curve, defaulting to
      [rsc] (at least one of the two must be given); [usc] an optional
      upper-limit curve making the class non-work-conserving; [qlimit]
      ([qlimit_bytes]) the drop-tail packet (byte) limit of the leaf
      queue.

      @raise Invalid_argument on a parent with an [rsc], a parent that
      already received packets as a leaf, a class with neither curve, or
      a curve the fixed-point arithmetic cannot represent
      ({!Curve.Fixed_point.check_sc} on [rsc] and [fsc],
      {!Curve.Fixed_point.check_breakpoint} on [usc]; the message says
      "out of range"). *)

  val check_curves :
    string ->
    rsc:Curve.Service_curve.t option ->
    fsc:Curve.Service_curve.t option ->
    usc:Curve.Service_curve.t option ->
    unit
  (** [check_curves what ~rsc ~fsc ~usc] is {!add_class}'s and
      {!modify_class}'s refusal of curves the fixed-point arithmetic cannot
      represent, on its own: it raises [Invalid_argument] naming [what]
      and saying "out of range", before anything is built. *)

  val remove_class : t -> cls -> unit
  (** Remove a passive leaf (or childless interior) class from the
      hierarchy, as kernel implementations allow between traffic.
      A parent left childless becomes usable as a leaf again. Costs
      O(1) plus the classes sharing its name: the class table unlinks it
      from its siblings' ring.

      @raise Invalid_argument if the class is the root, still has
      children, or has queued packets. *)

  val modify_class :
    t ->
    cls ->
    ?rsc:Curve.Service_curve.t ->
    ?fsc:Curve.Service_curve.t ->
    ?usc:Curve.Service_curve.t ->
    ?qlimit:int ->
    ?qlimit_bytes:int ->
    unit ->
    unit
  (** Change a class's curves and leaf queue limits, with {!add_class}'s
      labels; only what is given changes. Every part of the change is
      checked before any part is made, so a refusal leaves the class
      exactly as it was.

      New curves need a passive class (no queued packets, not active in
      the hierarchy) and take effect from its next backlogged period;
      an [rsc] on an interior class is rejected as in {!add_class}. New
      limits need a leaf; existing backlog is never dropped, they apply
      to later arrivals, so a limits-only change is safe on a live
      class.

      @raise Invalid_argument if curves are given for an active class,
      an [rsc] for an interior class, a curve is unrepresentable (as in
      {!add_class}), limits are given for the root or an interior class,
      or a limit is not positive. *)

  (** {2 Queue bounds and drop accounting} *)

  val queue_limit_pkts : cls -> int
  val queue_limit_bytes : cls -> int

  val set_aggregate_limit : t -> ?pkts:int -> ?bytes:int -> unit -> unit
  (** Update the scheduler-wide backlog bounds (only the given bounds
      change); [max_int] means unlimited. Existing backlog is never
      dropped.

      @raise Invalid_argument on a non-positive bound. *)

  val aggregate_limit_pkts : t -> int
  val aggregate_limit_bytes : t -> int
  val set_drop_policy : t -> drop_policy -> unit
  val drop_policy : t -> drop_policy

  val set_drop_hook : t -> (float -> cls -> Pkt.Packet.t -> unit) -> unit
  (** [set_drop_hook t f] arranges for [f now cls pkt] to be called once
      per dropped packet: for a refused arrival [cls] is the destination
      leaf, for a {!Drop_longest} eviction the victim. One hook per
      scheduler; setting replaces. The default hook does nothing. *)

  val enqueue : t -> now:float -> cls -> Pkt.Packet.t -> bool
  (** [enqueue t ~now cls p] queues [p] at leaf [cls]; [false] means the
      packet was dropped — by the class's queue limits, or by the
      aggregate limit under {!Tail_drop} (under {!Drop_longest} other
      classes' tail packets may be evicted instead). Every drop is
      reported to the {!set_drop_hook} hook and counted against the
      queue that lost the packet.

      @raise Invalid_argument if [cls] is not a leaf of [t]. *)

  val dequeue : t -> now:float -> (Pkt.Packet.t * cls * criterion) option
  (** Select and remove the next packet to transmit at time [now]. [None]
      when the backlog is empty, or when every backlogged class is
      rate-capped by an upper-limit curve until some later instant — see
      {!next_ready_time}. *)

  val dequeue_into : t -> now:float -> Pkt.Served.t -> bool
  (** [dequeue_into t ~now s] is {!dequeue} writing its result into the
      caller's record instead of an option: on [true], [s] holds the
      packet, its leaf's {!id} and whether the real-time criterion
      served it; on [false] (where {!dequeue} answers [None]) [s] is
      untouched. Zero words of allocation ({!dequeue} allocates 6 for
      its option-of-tuple); the differential suite asserts it serves
      the same sequence as {!dequeue} over fuzzed op streams. *)

  val next_ready_time : t -> now:float -> float option
  (** [None] iff the backlog is empty; otherwise the earliest [t' >= now]
      at which {!dequeue} can return a packet ([now] itself when one is
      servable immediately). Only upper-limit curves can push this past
      [now]. *)

  val backlog_pkts : t -> int
  val backlog_bytes : t -> int

  (** {2 Class introspection} *)

  val name : cls -> string

  val id : cls -> int
  (** Small dense identifier: 0 for the root, then creation order. Ids of
      removed classes are not reused, so an id indexes stably into
      caller-side per-class arrays (the runtime telemetry does this). *)

  val is_leaf : cls -> bool
  val parent : cls -> cls option
  val children : cls -> cls list
  val classes : t -> cls list
  (** All classes including the root, in creation order. *)

  val class_of_id : t -> int -> cls
  (** [class_of_id t i] is the class whose {!id} is [i]: a bounds check,
      a liveness check and a load in the scheduler's id-indexed
      {!Ds.Class_table}, where {!remove_class} marks the id removed. Runtime layers address classes by id and
      resolve them here, so [t] is the only owner of the mapping.

      @raise Invalid_argument if [i] is out of range or names a removed
      class. *)

  val find_class : t -> string -> cls option
  (** The earliest-created live class of that name. *)

  val queue_length : cls -> int
  val queue_bytes : cls -> int

  val total_bytes : cls -> float
  (** Bytes of service received under either criterion (leaf: transmitted
      bytes; interior: sum over subtree). *)

  val realtime_bytes : cls -> float
  (** Bytes of service the real-time criterion accounted to this leaf
      (the [c] of the algorithm); 0 for interior classes. *)

  val drops : cls -> int

  val virtual_time : cls -> float
  (** Current virtual time — meaningful relative to siblings only. *)

  val rsc : cls -> Curve.Service_curve.t option
  val fsc : cls -> Curve.Service_curve.t option
  val usc : cls -> Curve.Service_curve.t option

  val audit : t -> string list
  (** Validate every internal invariant the datapath depends on: ED-tree
      ordering, balance and cached min-deadline aggregates; eligible
      time never past the deadline; per-class VT-tree ordering and
      cached min-fit aggregates; active-children membership against the
      [nactive] counters; backlog counters against the leaf queues; no
      negative (overflowed) time or service values; name-resolution
      bindings. Returns one human-readable line
      per violation — [[]] means the scheduler is consistent. O(n log n);
      call it between operations, not from inside the drop hook. *)

  val pp_hierarchy : Format.formatter -> t -> unit
  (** Render the class tree with per-class curves and counters. *)

  val debug_state : cls -> string
  (** One-line dump of the class's internal scheduling state (virtual
      time, offsets, curve origins) — for tests and debugging only; the
      format is unspecified. *)
end
