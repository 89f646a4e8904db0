(** Hierarchical surplus round-robin — the million-class scale tier.

    After "A Round-Robin Packet Scheduler for Hierarchical Max-Min
    Fairness" (arXiv:2108.09864): every interior class runs deficit
    round-robin over an intrusive circular ring of its {e active}
    children (subtree holds at least one packet), and a dequeue walks
    the rotor chain root to leaf, serves the head packet, then charges
    its size back up the path — serve-then-charge ("surplus" DRR), so
    no head-size peek is needed before committing to a child. Per
    dequeue the cost is O(depth) integer adds: no trees to rebalance,
    no curve arithmetic, no per-packet allocation. Long-run throughput
    among persistently backlogged siblings converges to the ratio of
    their quanta (hierarchical max-min); what H-FSC adds on top —
    real-time deadline guarantees, decoupled delay/rate — is exactly
    what this engine trades away for scale.

    The surface deliberately mirrors {!Hfsc} (dense ids, queue and
    aggregate limits with the same eviction policies, a drop hook, one
    check-then-store class mutator, a dequeue into the shared
    {!Pkt.Served} record from instance-held out-params), so
    {!Runtime.Backend} can drive either through one record.

    {b Domain ownership.} A [t] is a single-domain mutable object —
    no internal synchronisation, one owning domain at a time, exactly
    like {!Hfsc}. *)

type t
type cls

type drop_policy = Ds.Fifo_queue.drop_policy = Tail_drop | Drop_longest
(** The one drop-policy type, shared with {!Hfsc}. *)

val create : unit -> t
(** A scheduler holding only its root (named ["root"], id 0), with an
    unlimited aggregate backlog under {!Tail_drop}: see
    {!set_aggregate_limit} and {!set_drop_policy}. *)

val root : t -> cls

val default_quantum : int
(** 1500 bytes — one MTU per round when no quantum is given. *)

val max_quantum : int
(** Per-class quantum ceiling ([2{^30}] bytes). *)

val max_round_bytes : int
(** Admission bound on {!quantum_sum_under} ([2{^40}] bytes): the
    per-round service a node hands out, and therefore the worst-case
    wait of a newly backlogged child. The scheduler itself does not
    enforce it — the control plane's admission hook does. *)

val quantum_sum_under : cls -> int
(** Sum of the children's quanta — maintained incrementally, O(1). *)

val add_class :
  t ->
  parent:cls ->
  name:string ->
  ?quantum:int ->
  ?qlimit_pkts:int ->
  ?qlimit_bytes:int ->
  unit ->
  cls
(** Ids are dense (creation order, starting after the root's 0) and
    never reused.

    @raise Invalid_argument on a duplicate name, a non-positive or
    over-{!max_quantum} quantum, a parent with queued packets, or a
    parent that already served packets as a leaf. *)

val remove_class : t -> cls -> unit
(** O(1): the class table unlinks the class from its siblings' ring and
    frees its name.

    @raise Invalid_argument on the root, a class with children, a
    class with queued packets, or an active class. *)

val modify_class :
  t ->
  cls ->
  ?quantum:int ->
  ?qlimit_pkts:int ->
  ?qlimit_bytes:int ->
  unit ->
  unit
(** Change a class's quantum and leaf queue limits, with {!add_class}'s
    labels; only what is given changes. Every part is checked before
    any part is made (the parent's {!quantum_sum_under} included), so
    a refusal leaves the class as it was. A new quantum takes effect
    at the class's next arrival grant.

    @raise Invalid_argument on a quantum for the root, an
    out-of-range quantum, limits for the root or an interior class, or
    a non-positive limit. *)

val queue_limit_pkts : cls -> int
val queue_limit_bytes : cls -> int

val set_aggregate_limit : t -> ?pkts:int -> ?bytes:int -> unit -> unit
(** [max_int] means unlimited. @raise Invalid_argument on non-positive
    values. *)

val set_drop_policy : t -> drop_policy -> unit
val drop_policy : t -> drop_policy

val set_drop_hook : t -> (float -> cls -> Pkt.Packet.t -> unit) -> unit
(** Called for every lost packet — refused arrival or eviction — with
    the drop time, the losing class and the packet. *)

(** {2 The data path} — allocation-free in steady state *)

val enqueue : t -> now:float -> cls -> Pkt.Packet.t -> bool
(** [false] when the class queue or the aggregate bound refuses the
    packet (counted, reported to the drop hook). [now] only timestamps
    drop-hook callbacks — round-robin state is time-free.

    @raise Invalid_argument on a non-leaf class. *)

val dequeue : t -> now:float -> (Pkt.Packet.t * cls) option
(** Serve one packet by the rotor chain; [None] iff idle (the
    scheduler is work-conserving: backlogged means servable). *)

val dequeue_into : t -> now:float -> Pkt.Served.t -> bool
(** {!dequeue} into the caller's record: on [true] it holds the
    packet, the leaf's {!id} and a [false] real-time flag; [false]
    iff idle, leaving the record untouched. Zero words of allocation
    (mirrors {!Hfsc.dequeue_into}). *)

val next_ready_time : t -> now:float -> float option
(** [Some now] when backlogged, [None] when idle — no rate caps. *)

val backlog_pkts : t -> int
val backlog_bytes : t -> int

(** {2 Introspection} *)

val name : cls -> string
val id : cls -> int
val is_leaf : cls -> bool
val parent : cls -> cls option
val children : cls -> cls list
val classes : t -> cls list
(** Creation order, root first. *)

val class_of_id : t -> int -> cls
(** [class_of_id t i] is the class whose {!id} is [i]: a bounds check,
    a liveness check and a load in the scheduler's id-indexed
    {!Ds.Class_table}, where {!remove_class} marks the id removed. Runtime layers address classes by
    id and resolve them here, so [t] is the only owner of the mapping
    (as {!Hfsc.class_of_id}).

    @raise Invalid_argument if [i] is out of range or names a removed
    class. *)

val find_class : t -> string -> cls option

val table : t -> cls Ds.Class_table.t
(** The scheduler's class table, for a caller that reads classes by id
    ({!Runtime.Backend}), as {!Hfsc.table}. Read it only. *)

val queue_length : cls -> int
val queue_bytes : cls -> int
val quantum : cls -> int
val served_bytes : cls -> float
(** Bytes ever served from this subtree (exact: far below 2{^53}). *)

val drops : cls -> int

val audit : t -> string list
(** Structural invariants (subtree counters vs queues, ring
    consistency, active iff backlogged, deficit bounds, quantum sums);
    empty means healthy. *)
