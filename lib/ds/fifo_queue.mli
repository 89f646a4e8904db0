(** Per-class packet FIFO with byte accounting and drop-tail limits.

    Every leaf class of every scheduler in this repository owns one of
    these. Backed by a growable ring whose length is a power of two (an
    index wraps with a mask). A slot holds the packet itself, with no
    option cell around it, so once the ring has grown [push] and
    {!take} allocate nothing. All operations O(1) amortized except
    [drop_tail], {!take} and {!head}, which are O(1) exactly. *)

type t

(** What happens when an arriving packet would exceed a scheduler's
    {e aggregate} backlog bounds (a queue's own limits always tail-drop
    the arrival). Every scheduler built on these queues ([Hfsc],
    [Hfsc_ref], [Sched.Hls]) re-exports this one type. *)
type drop_policy =
  | Tail_drop  (** the arriving packet is dropped. Default. *)
  | Drop_longest
      (** tail packets of the leaf with the most queued bytes are
          evicted until the arrival fits (ties to the smallest class
          id); the arrival is dropped only if no queue holds two or
          more packets. Queue heads are never evicted, so scheduling
          state needs no repair and real-time deadlines are
          unaffected. {!Class_table} picks the victim for [Hfsc] and
          [Sched.Hls] (the top of its heap); [Hfsc_ref] scans its
          leaves. *)

val create : ?limit_pkts:int -> ?limit_bytes:int -> unit -> t
(** [create ?limit_pkts ?limit_bytes ()] is an empty queue.
    [limit_pkts] is the drop-tail bound on the number of queued packets
    (default: 10_000, mirroring a generous kernel qlimit);
    [limit_bytes] bounds the queued byte total (default: unlimited). *)

val length : t -> int
(** Number of queued packets. *)

val bytes : t -> int
(** Sum of the sizes of queued packets. *)

val is_empty : t -> bool

val limit_pkts : t -> int
val limit_bytes : t -> int

val set_limits : ?pkts:int -> ?bytes:int -> t -> unit
(** Update the drop bounds in place. Existing backlog is never dropped
    by this call; the new bounds apply to subsequent [push]es.
    @raise Invalid_argument on a non-positive limit. *)

val can_accept : t -> int -> bool
(** [can_accept q size] is [true] iff a packet of [size] bytes would be
    admitted by [push] right now. Does not count a drop. *)

val count_drop : t -> unit
(** Charge one drop to this queue without touching its contents (used
    when the scheduler refuses a packet before it reaches [push]). *)

val push : t -> Pkt.Packet.t -> bool
(** [push q p] appends [p]; returns [false] (and drops [p]) iff the
    queue is at its packet or byte limit. *)

val take : t -> Pkt.Packet.t
(** Remove and return the head packet.
    @raise Invalid_argument if the queue is empty. *)

val head : t -> Pkt.Packet.t
(** Head packet without removing it.
    @raise Invalid_argument if the queue is empty. *)

val drop_tail : t -> Pkt.Packet.t
(** Remove and return the {e newest} packet, counting it as a drop.
    The head packet is never touched unless it is the only one.
    @raise Invalid_argument if the queue is empty. *)

val clear : t -> unit
val drops : t -> int
(** Number of packets dropped ([push] refusals, [drop_tail] evictions
    and [count_drop] charges) since creation. *)

val iter : (Pkt.Packet.t -> unit) -> t -> unit
(** Head-to-tail iteration. *)
