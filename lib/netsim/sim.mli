(** The discrete-event engine: sources feed one or more schedulers,
    each feeding its own output link.

    This is the substitute for the paper's simulator/testbed (see
    DESIGN.md): each link transmits one packet at a time at its own
    rate; whenever a link goes idle it asks {e its} scheduler for the
    next packet — precisely the enqueue/dequeue driver a kernel
    interface would be, replicated per interface. Departure time of a
    packet is when its last bit leaves (the convention of Section VI);
    per-flow delay, throughput and traces are {!on_departure} hooks a
    caller attaches before {!run}.

    The classic single-link form ({!create}) is a one-link router with
    the identity route; every accessor below defaults to link 0, so
    single-link code reads exactly as before. Multi-link simulations
    ({!create_multi}) supply a [route] function mapping each arriving
    packet to the index of the link that owns it — typically
    [Runtime.Router.link_of_flow] composed with {!link_index}. A
    departure hook ({!on_link_departure}) may offer the departed packet
    to another link ({!enqueue}); {!Tandem} is that topology.

    Non-work-conserving schedulers (H-FSC with upper-limit curves) are
    supported through {!Sched.Scheduler.next_ready}: a poll event is
    scheduled per link for the instant its scheduler says it can next
    emit.

    {b Domain ownership.} The simulator is single-domain: the event
    queue and per-link transmitters are owned by the domain that calls
    {!run}, and every scheduler closure and hook is invoked from that
    domain. Driving a scheduler whose state lives on another domain is
    the {e closure's} job, not the simulator's — [Mc_router.adapter]
    returns a {!Sched.Scheduler.t} whose operations run as one
    mutex-guarded turn of the link's worker: dequeues and polls wait
    for the reply, enqueues are posted without waiting and answer
    [true], their refusals counted by the worker and read back through
    {!Sched.Scheduler.deferred_drops}. The worker applies every posted
    enqueue before its next call, so the simulator stays oblivious and
    the schedule stays deterministic.

    {b Cost.} Arrivals, polls and callbacks are ints in an
    {!Event_queue} (kind and index packed together), and sources are
    pulled in place ({!Source.pull}). A transmit completion is no
    event: the packet on a wire, its completion time and its
    {!Event_queue.stamp} wait in its link's one slot, and the run
    takes whichever comes first in (time, stamp) order, the earliest
    busy link's completion or the queue's top. A packet therefore
    costs the heap its arrival's add and take only. The per-link float
    state is unboxed, so a packet's own simulator work allocates little
    beyond the {!Pkt.Packet.t} itself (DESIGN.md §17). *)

type t

val create :
  link_rate:float ->
  sched:Sched.Scheduler.t ->
  unit ->
  t
(** One link named ["link0"], every packet routed to it.

    Each link has at most one packet on the wire: when it is idle it
    polls its scheduler for one packet
    ([Sched.Scheduler.dequeue_burst ~max:1]), keeps that packet's
    completion time in its own state, and polls again when that
    packet's last bit has left.

    @raise Invalid_argument (from {!create_multi}) unless [link_rate]
    is finite and positive. *)

val create_multi :
  links:(string * float * Sched.Scheduler.t) list ->
  route:(Pkt.Packet.t -> int option) ->
  unit ->
  t
(** [(name, rate, sched)] per link; link indices follow list order.
    [route] is consulted once per arrival; [None] (or an out-of-range
    index) counts the packet as an enqueue drop — no link owns it.

    @raise Invalid_argument on an empty link list or a rate that is
    not finite and positive. *)

val add_source : t -> Source.t -> unit
(** Register a source; its first arrival is scheduled immediately.
    Also legal from an {!at} callback. The simulation owns the source
    from then on: it keeps the pending arrival in the source, so
    register each source once and do not pull it elsewhere. *)

val on_link_departure :
  t -> (link:int -> now:float -> Sched.Scheduler.served -> unit) -> unit
(** Register a callback fired as each packet finishes transmission,
    with the index of the link it left. Callbacks fire latest
    registered first, before the link asks its scheduler for more
    work; one may {!enqueue} the packet on another link (a tandem's
    next hop). *)

val on_departure : t -> (now:float -> Sched.Scheduler.served -> unit) -> unit
(** {!on_link_departure} without the link index. *)

val enqueue : t -> link:int -> Pkt.Packet.t -> bool
(** Offer a packet to link [link]'s scheduler at the current time and
    start the link if it is idle — what an arrival routed to [link]
    does. Answers the scheduler's verdict; a refusal ([false]) counts
    in {!enqueue_drops}. Sources need no call: their arrivals are
    routed and offered by the simulator itself.

    @raise Invalid_argument on an unknown link index. *)

val at : t -> float -> (now:float -> unit) -> unit
(** [at t when f] schedules [f] to run as an ordinary event at absolute
    simulated time [when] — the mid-run reconfiguration hook: the
    callback may mutate any scheduler (add/modify/delete classes
    through the runtime control plane) between packets, and the
    simulator re-polls every link afterwards in case the change opened
    or closed service.

    @raise Invalid_argument if [when] is NaN or before the current
    time. *)

val run : t -> until:float -> unit
(** Process all events up to and including time [until]. May be called
    repeatedly with increasing horizons. *)

val run_until_idle : t -> max_time:float -> unit
(** Run until no event is pending and every scheduler is idle, or
    [max_time] is reached. *)

(** {2 Link faults}

    Both setters model a link-layer change at the current simulated
    time; call them from an {!at} callback to schedule one. [link] is
    the link index (default 0, the sole link of a classic {!create}
    simulation). A packet already on the wire is unaffected — it
    completes at the departure time computed when its transmission
    started (the rate change or outage applies from the next packet
    on), which keeps replays deterministic. Faulting one link never
    touches another: each link's dequeue loop, poll state and
    accounting are its own. *)

val set_link_rate : ?link:int -> t -> float -> unit
(** Change a link's transmission rate (bytes/second) for subsequent
    packets. The scheduler's own notion of capacity (its fair-curve
    root) is not touched: a lowered link rate models exactly the
    overload a misconfigured or degraded link produces.

    @raise Invalid_argument unless finite and positive, or on an
    unknown link index. *)

val set_link_up : ?link:int -> t -> bool -> unit
(** Take a link down ([false]: nothing more is dequeued from it) or
    back up ([true]: its dequeueing resumes immediately). Idempotent. *)

val link_rate : ?link:int -> t -> float
val link_up : ?link:int -> t -> bool

(** {2 Link directory and per-link accounting} *)

val n_links : t -> int

val link_index : t -> string -> int option
(** Index of the link created under [name]. *)

val link_name : t -> int -> string

val link_utilization : t -> int -> float
(** Fraction of [0, now] link [i] spent transmitting; a packet still
    on the wire counts only for the part already sent. *)

val link_transmitted_bytes : t -> int -> float

val now : t -> float

val transmitted_bytes : t -> float
(** Total across all links. *)

val enqueue_drops : t -> int
(** Packets refused by a scheduler (queue limits) or unroutable: every
    [false] {!Sched.Scheduler.enqueue} answered, plus each link's
    {!Sched.Scheduler.deferred_drops} read now — for the multicore
    adapter one synchronous query per link, so call it at accounting
    time, not per packet. *)

val utilization : t -> float
(** Mean over links of the fraction of [0, now] spent transmitting —
    equals the single link's utilization in a classic simulation. *)
