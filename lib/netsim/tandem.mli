(** A tandem of links: each link has its own scheduler; packets leaving
    link i immediately enter link i+1's scheduler. The multi-node
    setting the paper's per-link guarantees compose over (see
    {!Analysis.Multi_hop} for the matching end-to-end bounds,
    demonstrated by experiment E12).

    A tandem is a {!Sim} topology: one multi-link simulation whose links
    are the hops (named [hop0], [hop1], ...), with the simulator's own
    event loop and transmitters. Each flow enters at one hop, the one
    its sources were added at; a departure hook carries each packet on
    to the next hop, restamping its arrival time for that hop's
    scheduler.

    End-to-end delay of a packet = departure from the last link minus
    its original arrival. Per-hop departures are also observable via
    {!on_hop_departure}. *)

type t

val create : hops:(float * Sched.Scheduler.t) list -> unit -> t
(** [create ~hops] — [(link_rate, scheduler)] per hop, first hop first.

    @raise Invalid_argument on empty [hops] or a rate that is not
    finite and positive. *)

val add_source : t -> Source.t -> unit
(** Sources feed the first hop: [add_source_at ~hop:0]. *)

val add_source_at : t -> hop:int -> Source.t -> unit
(** Cross traffic injected directly at a later hop; its packets do not
    continue past that hop's own position unless the downstream
    schedulers know their flow (end-to-end stats only cover packets that
    entered at hop 0).

    @raise Invalid_argument on an out-of-range hop, or when the
    source's flow already enters at another hop. *)

val on_hop_departure :
  t -> (hop:int -> now:float -> Sched.Scheduler.served -> unit) -> unit
(** Fired as a packet leaves any hop, before the tandem carries it on
    to the next one; latest registered first. *)

val run : t -> until:float -> unit
val run_until_idle : t -> max_time:float -> unit
val now : t -> float

val end_to_end_delay : t -> int -> Stats.Delay.t option
(** Delay statistics of a flow across the whole tandem. *)

val delivered_bytes : t -> float
(** Bytes that left the last hop. *)

val drops : t -> int
(** Enqueue refusals summed over all hops ({!Sim.enqueue_drops}): every
    [false] a hop's {!Sched.Scheduler.enqueue} answered, plus each hop's
    {!Sched.Scheduler.deferred_drops} read now. A packet a later hop
    refuses after answering [true] is only counted here: the tandem's
    record of its hop-0 arrival time, kept from its hop-0 departure on,
    is never matched by a last-hop departure and is never removed. It
    affects no statistic. *)
