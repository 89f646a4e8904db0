(** Per-class counters and a preallocated event trace for a live
    scheduler.

    Both are designed so the steady-state dequeue path stays
    allocation-free (the PR 1 property): counters are records of
    [mutable int] fields only — a mixed int/float record would box a
    float on every store — and the trace is a fixed-capacity ring in
    struct-of-arrays layout (one unboxed [float array] column for
    timestamps, [int array] columns for the rest), so recording an
    event is six array stores and two integer bumps, with no per-event
    allocation. Exporters and the decoder allocate freely; they are
    control-plane operations.

    Record layout (one event = 6 machine words, ring index [i]):
    [ts.(i)] departure/arrival time (unboxed float); [kind.(i)] 0 =
    enqueue, 1 = real-time dequeue, 2 = link-sharing dequeue, 3 = drop;
    [cls.(i)] the {!Hfsc.id} of the class; then [flow], [size] (bytes)
    and [seq] of the packet. When the ring wraps, the oldest events are
    overwritten; {!recorded_total} keeps counting so the decoder can
    report how many were lost.

    {b Domain ownership.} The counters and the trace ring are mutable
    state owned by the domain that owns the engine recording into them
    — a worker domain in the multicore router — and must not be read
    concurrently. A {!snapshot}, by contrast, is immutable pure data
    (no mutable fields, no closures): once built it may be sent across
    domains and compared structurally, which is exactly how
    [Mc_router.snapshot] implements its cross-domain consistent read
    (the owning worker builds the snapshot between operations and ships
    the finished value back). A snapshot copies every class's counters
    and decodes the whole ring, so it is a read for tests and
    exporters, not for a hot loop: the daemon's trace spill instead
    reads the live ring in place with {!iter_since}, on the owning
    domain ([Engine.drain_trace]), at O(new events) a drain. *)

type counters = {
  mutable enq_pkts : int;
  mutable enq_bytes : int;
  mutable rt_pkts : int;  (** dequeues under the real-time criterion *)
  mutable rt_bytes : int;
  mutable ls_pkts : int;  (** dequeues under the link-sharing criterion *)
  mutable ls_bytes : int;
  mutable drop_pkts : int;
  mutable deadline_misses : int;
      (** real-time dequeues whose in-scheduler sojourn exceeded the
          delay the class's rsc promises a packet of that size arriving
          at the start of a backlogged period ([u -> S^-1(u)]) — an
          observable upper-bound proxy for a Theorem 1 violation, not
          the exact per-backlog deadline. *)
  mutable hiwater_pkts : int;  (** backlog high-water of the class queue *)
  mutable hiwater_bytes : int;
}

type kind = Enq | Deq_rt | Deq_ls | Drop

type event = {
  ts : float;
  kind : kind;
  cls_id : int;
  flow : int;
  size : int;
  seq : int;
}
(** A decoded trace record. *)

type t

val create : ?trace_capacity:int -> ?tracing:bool -> unit -> t
(** [trace_capacity] (default 4096 events) is fixed for the lifetime of
    [t]; [tracing] (default [true]) can be toggled later.

    @raise Invalid_argument on a non-positive capacity. *)

val ensure_class : t -> id:int -> unit
(** Grow the per-class tables to cover class [id] (control-plane
    path; idempotent). *)

val set_rsc : t -> id:int -> Curve.Service_curve.t option -> unit
(** Install the curve deadline misses are judged against ([None]
    disables miss accounting for the class). *)

val counters : t -> id:int -> counters
(** The live counter record of class [id] (shared, not a copy).

    @raise Invalid_argument if [id] was never announced via
    {!ensure_class}. *)

val set_tracing : t -> bool -> unit

(** {2 Hot-path hooks} — allocation-free; [id] is {!Hfsc.id}. *)

val note_enqueue :
  t ->
  id:int ->
  now:float ->
  size:int ->
  flow:int ->
  seq:int ->
  qlen:int ->
  qbytes:int ->
  unit
(** After a successful enqueue; [qlen]/[qbytes] are the queue depth
    after the push (high-water tracking). *)

val note_drop :
  t -> id:int -> now:float -> size:int -> flow:int -> seq:int -> unit

val note_dequeue :
  t ->
  id:int ->
  now:float ->
  size:int ->
  flow:int ->
  seq:int ->
  arrival:float ->
  realtime:bool ->
  unit

(** {2 Decoder and exporters} *)

val trace_capacity : t -> int

val recorded_total : t -> int
(** Events ever recorded, including ones the ring has overwritten. *)

val dropped_events : t -> int
(** Events the ring has overwritten — [recorded_total] minus what the
    decoder can still replay. Zero until the ring wraps. *)

val events : t -> event list
(** Decode the ring, oldest surviving event first. *)

val kind_of_code : int -> kind option
(** The kind the ring's integer code names ([Enq] = 0, [Deq_rt] = 1,
    [Deq_ls] = 2, [Drop] = 3 — also the on-disk encoding of
    {!Trace_log}'s binary records); [None] on an unknown code (a
    corrupt record). *)

val iter_since :
  t ->
  since:int ->
  f:
    (ts:float ->
    kind:int ->
    cls:int ->
    flow:int ->
    size:int ->
    seq:int ->
    unit) ->
  int
(** Replay, oldest first, every event whose global index (its position
    in {!recorded_total} order, starting at 0) is [>= since] and still
    survives in the ring, as raw column values — no per-event
    allocation, the spill sink's hot path. Returns {!recorded_total},
    the cursor for the next call; events overwritten before the call
    (indices below [recorded_total - trace_capacity]) are gone, and the
    caller can count them from the cursor gap. *)

val event_to_string : event -> string

val counters_fields : counters -> (string * Json_lite.t) list
(** The counter record as JSON object fields (keys are the field
    names). *)

val trace_text : t -> string
(** One line per surviving event, oldest first, preceded by a [#]
    comment line counting dropped events when the ring has wrapped. *)

(** {2 Snapshots}

    A consistent, immutable copy of everything the telemetry knows at
    one instant — per-class counters, ring occupancy and the decoded
    trace — the read surface the control plane exposes for counters
    (see {!Runtime.Engine.snapshot}): callers get a value they can
    inspect at leisure while the hot path keeps mutating the live
    records underneath. Its cost is O(classes + ring capacity). *)

type snapshot = {
  per_class : (int * counters) list;
      (** class id and a {e copy} of its counters, ascending id *)
  snap_tracing : bool;
  snap_capacity : int;
  snap_recorded : int;  (** {!recorded_total} at snapshot time *)
  snap_dropped : int;  (** {!dropped_events} at snapshot time *)
  snap_events : event list;  (** decoded ring, oldest surviving first *)
}

val snapshot : t -> snapshot

val snapshot_counters : snapshot -> id:int -> counters option
(** Lookup by class id; [None] when the id was never announced. *)
