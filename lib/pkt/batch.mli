(** The served-packet batch: what one batched dequeue hands back.

    Section V's dequeue picks a leaf class, takes its head packet and
    notes which criterion served it; a batch holds that triple for up
    to [capacity] dequeues as parallel arrays — the packet, the leaf's
    dense class id (the [id] every scheduler numbers its classes by)
    and a real-time flag ([false] for link-sharing, and always [false]
    on a round-robin scheduler) — plus a fill count. Every scheduler's
    [dequeue_batch] writes it directly, and every layer above passes
    the same value up, so a drained packet is never copied and costs
    zero words of allocation. *)

type t = {
  pkts : Packet.t array;
  ids : int array;
  rt : bool array;
  mutable count : int;
}
(** The three arrays share one length, the capacity. A scheduler's
    fill loop writes slots [0 .. n - 1] and sets [count] to [n];
    everyone else reads through the checked accessors below. *)

val create : ?capacity:int -> unit -> t
(** A fresh batch ([capacity] defaults to 64 slots).

    @raise Invalid_argument on a non-positive capacity. *)

val capacity : t -> int

val count : t -> int
(** Number of valid slots after the most recent fill. *)

val pkt : t -> int -> Packet.t
val id : t -> int -> int
val realtime : t -> int -> bool
(** Slot accessors.

    @raise Invalid_argument outside [0 .. count - 1]. *)
