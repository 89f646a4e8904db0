(** Common packet-scheduler interface.

    Every discipline in this repository — H-FSC itself and all the
    baselines it is evaluated against — is packed into this one record
    so the simulator, benches and experiments can drive them
    interchangeably. Packets carry their flow id; how flows map to
    internal sessions/classes is fixed when the concrete scheduler is
    constructed.

    {b Domain ownership.} The record itself carries no synchronisation:
    all closures of one [t] must be called from a single domain at a
    time. A closure may internally cross domains — [Mc_router.adapter]
    builds a [t] whose operations are each one turn of a worker domain
    (the caller waits for the reply), while [enqueue] only posts the
    packet, to ride with the next turn — but that is the
    implementation's contract, invisible here: callers always treat a
    [t] as a plain single-domain value. *)

type served = {
  pkt : Pkt.Packet.t;
  cls : string;  (** name of the class/session that was served *)
  criterion : string;  (** discipline-specific tag, e.g. ["rt"]/["ls"] *)
}

type t = {
  name : string;
  enqueue : now:float -> Pkt.Packet.t -> bool;
      (** [false] = refused now (queue limit or unknown flow). A
          scheduler that answers before deciding returns [true] and
          reports its later refusals in {!deferred_drops}. *)
  dequeue : now:float -> served option;
  dequeue_many : (now:float -> max:int -> served list) option;
      (** A replacement for {!dequeue_burst}'s singles loop: must
          return exactly what [max] consecutive {!dequeue} calls at the
          same [now] would (batch-equals-singles). Every discipline and
          adapter in the library sets [None]; only towerbench's
          measuring probes set it, to wrap the poll they time. *)
  next_ready : now:float -> float option;
      (** [None] iff idle; [Some ts] = earliest instant a dequeue can
          succeed (equals [now] for work-conserving disciplines with
          backlog). *)
  backlog_pkts : unit -> int;
  backlog_bytes : unit -> int;
  deferred_drops : (unit -> int) option;
      (** [None] when every refusal is reported by {!enqueue}'s own
          [false]. [Some f]: [f ()] is the running total of packets
          the scheduler refused after {!enqueue} had answered [true]
          for them (the multicore router's fire-and-forget enqueue),
          covering every enqueue issued before the call: the multicore
          router applies every posted enqueue before it counts. It may
          cost a round trip: read it at accounting time, not per
          packet. *)
}

val work_conserving_next_ready :
  backlog:(unit -> int) -> now:float -> float option
(** The [next_ready] of every work-conserving discipline: [Some now]
    when backlogged, [None] otherwise. *)

val dequeue_burst : t -> now:float -> max:int -> served list
(** Up to [max] consecutive dequeues at the same [now], in service
    order, stopping early at the first [None] ({!dequeue_many} instead,
    when set). {!Netsim.Sim} polls every link through this with
    [max = 1]: one packet per transmit completion. *)
