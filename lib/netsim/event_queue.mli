(** Simulator event queue: int-coded events by time, FIFO within a
    timestamp.

    A binary min-heap over (time, insertion sequence) whose payload is
    an [int] — the simulator packs an event's kind and index into it.
    The heap is a struct of arrays (times unboxed in a [Float.Array],
    sequence numbers and payloads in [int array]s), so once its arrays
    have grown to the peak event count, {!add} and {!take} allocate
    nothing. Insertion sequence numbers ({e stamps}) are assigned in
    call order, so events with equal times are taken in the order they
    were added.

    A caller that keeps some events outside the queue can still order
    them among the queued ones: it draws each one's stamp with
    {!stamp} when it would have added it, and takes it before the
    queue's top exactly when its (time, stamp) pair is smaller than
    the top's time (index 0 of {!times}) and {!next_stamp}. *)

type t

val create : unit -> t

val add : t -> float -> int -> unit
(** [add q time ev] queues payload [ev] at [time].

    @raise Invalid_argument if [time] is NaN (it would order before and
    after everything at once and corrupt the heap). *)

val times : t -> Float.Array.t
(** The heap's time column, unboxed: on a nonempty queue, index 0 is
    the earliest event's time (the rest is in heap order, and indices
    from {!length} on are stale). The array is the queue's own and is
    replaced when the queue grows, so read it again after an {!add}.
    A caller reads the top's time as a flat float, which a
    [float]-returning call could only hand over boxed. *)

val next_stamp : t -> int
(** Stamp of the earliest event; [max_int] when the queue is empty. *)

val stamp : t -> int
(** Draw the stamp the next {!add} would have used, without adding
    anything: the drawn stamp orders after every event added before
    the call and before every event added after it. *)

val take : t -> int
(** Remove the earliest event and return its payload; its time is
    index 0 of {!times} read just before.

    @raise Invalid_argument on an empty queue. *)

val length : t -> int
val is_empty : t -> bool
