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
    ({!next_time}, {!next_stamp}). *)

type t

val create : unit -> t

val add : t -> float -> int -> unit
(** [add q time ev] queues payload [ev] at [time].

    @raise Invalid_argument if [time] is NaN (it would order before and
    after everything at once and corrupt the heap). *)

val next_time : t -> float
(** Time of the earliest event; [infinity] when the queue is empty (an
    event queued at [infinity] reads the same: tell them apart with
    {!is_empty}). *)

val next_stamp : t -> int
(** Stamp of the earliest event; [max_int] when the queue is empty. *)

val stamp : t -> int
(** Draw the stamp the next {!add} would have used, without adding
    anything: the drawn stamp orders after every event added before
    the call and before every event added after it. *)

val take : t -> int
(** Remove the earliest event and return its payload; its time is the
    {!next_time} read just before.

    @raise Invalid_argument on an empty queue. *)

val length : t -> int
val is_empty : t -> bool
