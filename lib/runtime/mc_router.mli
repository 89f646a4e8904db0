(** The multicore router: the same device as {!Router} — same command
    grammar, same typed errors, same reply strings, same directory and
    sharded classifier — with every link's engine running on one of [N]
    OCaml domains instead of the caller's.

    {b Architecture.} PR 5's link-ownership rule is cashed in as a
    domain boundary. Each link gets a pair of lock-free SPSC rings
    ({!Ds.Spsc_ring}): an input ring carrying packets, dequeue requests
    and control operations from the producer (caller) domain to the
    owning worker, and an output ring carrying dequeued packets back.
    The flow→link directory stays on the producer side; the worker
    serves its ring through {!Engine.enqueue_flow} and
    {!Engine.dequeue_batch}, so per-link scheduling state never crosses
    domains. Workers spin briefly when idle, then park on a condition
    variable; the producer wakes a parked worker after posting.

    {b One data path.} Packets move only through {!adapter}, the
    {!Sched.Scheduler.t} that {!Netsim.Sim} drives: its enqueue posts
    the packet and does not wait, and the worker counts what such posts
    refuse; its dequeues and polls wait for the worker's reply.

    {b Control plane.} {!Command} operations are posted into the owning
    domain's ring with a completion handshake (a mutex/condvar cell):
    the call blocks until the worker has executed
    {!Engine.exec_op} and replies. Transactional semantics and typed
    error codes therefore survive the domain hop unchanged — the
    control logic itself is {!Router_core}, shared with the sequential
    router, so replies are bit-identical by construction.
    {!Engine.snapshot} becomes a snapshot-request operation: the worker
    copies its telemetry between packets and ships the immutable
    snapshot back, giving a consistent cross-domain read without a
    seqlock on the hot path.

    {b Ordering and determinism.} Each link's ring is FIFO and each
    link has exactly one owning worker, so a link observes enqueues,
    dequeues and commands in exactly the order the producer issued
    them — the same order the sequential router would have applied
    them. Under the single-producer discipline below, every per-link
    packet trace and every reply string is bit-identical to
    {!Router}'s; the [@domains] differential fuzz pins this.

    {b Caller discipline.} A value of this type is {e not} thread-safe:
    all calls — the adapters' closures included — must come from the
    domain that created it (the single producer of every ring). Every
    call that waits returns before the next is issued, so each link
    has at most one request in flight and one completion cell. *)

type t

val create :
  ?trace_capacity:int ->
  ?tracing:bool ->
  ?audit_every:int ->
  domains:int ->
  unit ->
  t
(** An empty router whose [domains] worker domains ([>= 1]) are spawned
    immediately; links are assigned to workers round-robin at creation.
    Each link's input ring holds 1024 messages and its output ring 512
    packets, the largest single dequeue batch. The engine knobs are
    those of {!Router.create}.

    @raise Invalid_argument if [domains < 1]. *)

val of_config :
  ?trace_capacity:int ->
  ?tracing:bool ->
  ?audit_every:int ->
  domains:int ->
  Config.t ->
  t
(** One link per [link] statement, in file order, as
    {!Router.of_config}. *)

val domains : t -> int
val add_link :
  ?backend:Config.backend ->
  t ->
  name:string ->
  link_rate:float ->
  (string, Engine.error) result
(** As {!Router.add_link}: create a link running [backend] (default
    hfsc), attached round-robin to a worker domain. *)

val link_names : t -> string list
(** Links in creation order. *)

val link_count : t -> int
val link_of_flow : t -> int -> string option

val exec : t -> now:float -> Command.t -> (string, Engine.error) result
(** Same routing rules and reply strings as {!Router.exec}; the engine
    hop is a ring handshake. *)

val audit : t -> string list
val snapshot : t -> link:string -> Telemetry.snapshot option
(** The cross-domain consistent read: the owning worker copies its
    telemetry between operations and ships the immutable snapshot.
    [None] for an unknown or downed link. *)

(** {2 Graceful degradation}

    A failure inside one link's worker-side service — an engine
    exception under a command, a posted packet whose enqueue raised,
    even the worker domain dying — must not tear down whoever drives the
    router (PR 9's daemon serves many links from one process). Instead
    the producer {e latches the link down} on first observation: every
    subsequent command on it answers a typed {!Engine.Link_failed}
    error, its {!adapter} refuses packets and answers its polls
    degraded ([false], [None], [0], [[]]), its
    queries degrade ([audit] reports the failure, [stats] shows a
    [down] marker, a checkpoint keeps the [link add] but nothing
    below), and {e every other link keeps serving}. The latch is
    sticky: a downed link never comes back within this process —
    recovery is a restart from the journal (see {!Daemon.run}'s
    [durable]). {!stop} latches every link down the same way, so a call
    on a stopped router answers degraded instead of waiting for a
    worker that is gone. *)

val link_down : t -> link:string -> string option
(** Why this link is down ([Printexc.to_string] of the latched
    failure), or [None] if it is healthy or unknown. Observing a parked
    failure through any operation — including this one — latches it. *)

exception Injected_failure
(** What {!inject_failure} makes the worker raise. *)

val inject_failure : t -> link:string -> bool
(** Test hook: make the owning worker fail serving this link (it raises
    {!Injected_failure} in its service loop), then observe and latch the
    failure, leaving the link down exactly as a real engine fault
    would. [false] if the link is unknown. The worker itself survives —
    its other links are untouched. *)

(** {2 The data path} *)

val adapter : t -> link:string -> Sched.Scheduler.t option
(** Package one link for {!Netsim.Sim}: the returned closures post into
    the owning domain's rings. The simulator itself stays on the
    producer domain; only the scheduling work moves.

    - [enqueue] is fire-and-forget: it posts the packet and answers
      [true] at once ([false], posting nothing, if the link is already
      down). The worker applies it before any later operation on the
      link, so the schedule is the synchronous one.
    - [deferred_drops] is [Some]: the link's refusal count — every
      packet a posted enqueue refused, one whose engine call raised
      included. On a healthy link it is one synchronous
      query, queued behind every posted enqueue, hence exact. Once the
      link is down, or after {!stop}, it is read without asking the
      worker and never raises. It then covers the posted enqueues the
      worker has served so far: all of them after {!inject_failure} or
      {!stop}, while packets a dead worker never served count nowhere.
      It never decreases.
    - dequeues and polls block for the reply; [dequeue_many] is set, so
      a transmit-ring fill (up to 512 packets) is one round trip. *)

(** {2 Exporters} *)

val stats_json : t -> Json_lite.t
val stats_text : t -> string

val checkpoint : t -> (float * Command.t) list
(** As {!Router.checkpoint} (same {!Router_core} code): the device as a
    replayable script, via one query per link. A downed link
    contributes its [link add] only. *)

val config_fingerprint : t -> string
(** As {!Router.config_fingerprint} — bit-identical to the sequential
    router's for the same configuration, which is exactly what the
    crash-recovery differential tests compare. *)

val stop : t -> (string * Engine.t) list
(** Stop every worker (draining its rings first), join the domains,
    and return each link's engine — now owned by the caller again, safe
    to inspect directly (the differential tests fingerprint them
    against the sequential router's). Idempotent. A failure the
    producer never got to observe — a worker death, a posted packet
    whose enqueue raised on a link never touched again — is re-raised
    here so it cannot vanish; one already surfaced as a
    {!Engine.Link_failed} reply is not raised twice. Every link,
    including one added afterwards, is then down: commands answer
    {!Engine.Link_failed}, [snapshot] [None], and the adapters refuse
    packets and answer [None], [0] and [[]]. *)
