(** The served-packet record: what one dequeue hands back.

    Section V's dequeue picks a leaf class, takes its head packet and
    notes which criterion served it; this record holds that triple —
    the packet, the leaf's dense class id (the [id] every scheduler
    numbers its classes by) and a real-time flag ([false] for
    link-sharing, and always [false] on a round-robin scheduler).
    Every scheduler's [dequeue_into] fills the caller's record in
    place and every layer above reads the same record, so a served
    packet is never copied and costs zero words of allocation. *)

type t = {
  mutable o_pkt : Packet.t;
  mutable o_id : int;
  mutable o_rt : bool;
}
(** Valid after a [dequeue_into] that returned [true]; a [false]
    leaves the previous contents. *)

val create : unit -> t
(** A record holding a placeholder packet, id 0, link-sharing. *)
