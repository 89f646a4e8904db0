(** The control-plane engine: executes {!Command}s against a {e live}
    scheduler backend — one that may hold backlog while the hierarchy
    changes — with admission control in front and {!Telemetry} behind.

    The engine is written against {!Backend}: the record {!Backend.t}
    for what the per-link schedulers do differently (class parameters,
    admission, class mutators, the packet path), and the shared class
    views ({!Backend.cls_name}, {!Backend.queue_length}, ...) that read
    every scheduler's class table the same way. The default backend is
    the paper's H-FSC ({!Backend.of_hfsc}); the scale tier is the O(1)
    hierarchical round-robin ({!Backend.of_hls}). Everything below —
    command execution, telemetry, checkpointing, the data path — is
    backend-agnostic, and classes are addressed by the backend's dense
    [int] ids rather than by scheduler-specific class values.

    {b Admission rule} (per backend, checked before every add/modify).
    For H-FSC, the fluid-flow SCED feasibility condition (Section II,
    applied at every two-piece breakpoint): a command that adds or
    changes curves is rejected unless

    - the real-time curves of all leaves (with the change applied) sum
      to at most the link's service curve [R·t], and
    - under every interior class, the children's fair service curves
      sum to at most the parent's own fair service curve.

    Both sides are piecewise linear, so checking each breakpoint plus
    the asymptotic rates is a complete test, made on the whole-B/s
    slopes and tick knees the scheduler runs; a rejection reports the
    violating breakpoint (time, demand, capacity). A third rule guards upper
    limits: a class's ulimit curve must dominate its own rsc, else the
    real-time criterion would promise service the ulimit forbids.

    For round-robin, the analogue is O(1) arithmetic: a quantum must be
    positive and at most {!Sched.Hls.max_quantum}, and the quanta of
    the children under any one parent must sum to at most
    {!Sched.Hls.max_round_bytes}.

    Commands that would violate the scheduler's structural invariants
    (modifying an active class, deleting a backlogged one) are rejected
    with the scheduler's own reason. {b Every command is transactional}:
    it either applies in full or leaves the scheduler bit-identical to
    before — each refusal is decided before anything changes.

    {b Domain ownership.} An [Engine.t] — and everything reachable from
    it: the backend's scheduler, its intrusive trees or rings, the flow
    map, the filter list, the telemetry counters and trace ring —
    carries no internal synchronisation and must be confined to one
    domain at a time. The sequential {!Router} keeps every engine on
    the caller's domain; {!Mc_router} transfers each engine to its
    worker domain with its first call (before any operation runs) and
    back to the caller at {!Mc_router.stop}, with every intervening
    access made {e by} the owning worker on behalf of posted packets
    and calls. The values
    designed to cross domains are immutable results
    ({!Telemetry.snapshot}, response strings, {!error}) and a spill
    sink lent to {!drain_trace} for one call, while the lender waits
    for the reply. *)

type t

(** Rejections are typed so scripts and tests can distinguish operator
    error from admission pressure from structural refusals. The type
    lives in {!Backend} (it is shared by every backend) and is
    re-exported here by equation, so matching through either module
    works. *)
type error_code = Backend.error_code =
  | Parse_error  (** the line never reached the engine *)
  | Unknown_class
  | Duplicate_class
  | Unknown_flow
  | Duplicate_flow
  | Admission_realtime  (** leaves' rsc sum exceeds the link *)
  | Admission_linkshare
      (** children's fsc sum exceeds the parent (hfsc), or children's
          quanta overflow the per-round bound (rr) *)
  | Admission_ulimit  (** a class's ulimit dips below its rsc *)
  | Class_active  (** refused because the class holds state right now *)
  | Structural  (** wrong place in the hierarchy (root, interior, ...) *)
  | Bad_value  (** a numeric argument out of range *)
  | Unknown_link  (** a [link NAME] scope names no known link *)
  | Duplicate_link  (** [link add] of a name already in use *)
  | Cross_link_filter
      (** a filter scoped to one link targets a flow owned by another *)
  | Link_failed
      (** the link's worker domain is poisoned; the link is marked down
          and refuses commands while the rest of the router keeps
          serving (see {!Mc_router}) *)

type error = Backend.error = { code : error_code; message : string }

val error_code : error -> error_code
val error_message : error -> string

val error_code_name : error_code -> string
(** Stable kebab-case name, for logs and JSON. *)

val parse_error : string -> error
(** Wrap a {!Command.parse} failure in the same error type. *)

val errf : error_code -> ('a, unit, string, ('b, error) result) format4 -> 'a

exception Audit_failure of string list
(** Raised by the periodic debug audit (see [audit_every]) — each
    string is one violated invariant. *)

val create :
  ?trace_capacity:int ->
  ?tracing:bool ->
  ?audit_every:int ->
  link_rate:float ->
  Hfsc.t ->
  flow_map:(int * Hfsc.cls) list ->
  unit ->
  t
(** Wrap an existing H-FSC scheduler. [link_rate] is in bytes/second
    (the admission capacity); [flow_map] seeds the flow-to-leaf routing
    that [add class ... flow N] extends at runtime. [audit_every n]
    (with [n > 0]) runs {!audit} after every [n]-th operation —
    command, enqueue or dequeue — raising {!Audit_failure} on the first
    violation; the default [0] disables it and costs one branch per
    operation. Installs the scheduler's drop hook, so every drop is
    counted in {!Telemetry} against the class that lost the packet. *)

val create_backend :
  ?trace_capacity:int ->
  ?tracing:bool ->
  ?audit_every:int ->
  Backend.t ->
  flow_map:(int * int) list ->
  unit ->
  t
(** The general form {!create} reduces to: wrap any backend — e.g.
    [Backend.of_hls ~link_rate sched] for round-robin — with the flow
    map given in dense class ids. *)

val create_link :
  ?trace_capacity:int ->
  ?audit_every:int ->
  link_rate:float ->
  Backend.kind ->
  t
(** A class-less engine over a fresh scheduler of the given backend:
    what [link add] creates on either router. *)

val backend : t -> Backend.t
val backend_kind : t -> Backend.kind

val scheduler : t -> Hfsc.t
(** The wrapped {!Hfsc.t} — the escape hatch for hfsc-only consumers.
    @raise Invalid_argument on a non-hfsc backend. *)

val snapshot : t -> Telemetry.snapshot
(** An immutable copy of everything telemetry knows right now —
    per-class counters, trace-ring occupancy, decoded events. This and
    {!drain_trace} are the engine's {e only} read surfaces for counters
    and traces; the live {!Telemetry.t} stays private so the hot path
    owns it alone. *)

val drain_trace : t -> Trace_log.Sink.t -> int
(** {!Trace_log.Sink.drain} of this engine's event ring: append the
    events the sink has not seen, O(new events). Call it on the domain
    that owns the engine (a router reaches it through its port's
    call). *)

val link_rate : t -> float
(** The admission capacity this engine was created with (bytes/s). *)

val flow_class : t -> int -> int option
(** Current leaf class id for a flow id (changes as commands run). *)

val flows : t -> int list
(** All currently mapped flow ids, ascending. O(F log F): for a full
    walk (audit, fingerprint, a router's initial directory), never per
    command. *)

val flow_count : t -> int
(** [List.length (flows t)], in O(1). *)

val class_flows : t -> string -> int list
(** The flows mapped to the named class, ascending; [[]] for an unknown
    class. Costs O(flows of that class): the engine indexes its flow map
    by class, which is how a class delete (and {!checkpoint_ops}) learns
    a class's flows without scanning the map. A router asks this before
    a [delete class] to know which directory entries the delete will
    unmap. *)

val rules : t -> Classify.Rules.t
(** The compiled filter table, rebuilt after every attach/detach — a
    router classifies through these per-link tables in link creation
    order. *)

val has_filter : t -> int -> bool
(** Whether any attached filter targets flow [flow]. *)

val filter_count : t -> int

(** {2 Link views} — the class views are {!Backend}'s, over
    {!backend}. *)

val next_ready_time : t -> now:float -> float option
val backlog_pkts : t -> int
val backlog_bytes : t -> int

val checkpoint_ops : t -> Command.op list
(** The control plane as a replayable script: executing these ops, in
    order, against a fresh engine with the same link rate and backend
    rebuilds the hierarchy, curves or quanta, queue limits, flow map,
    aggregate limit/policy and filters exactly. Classes come in
    creation order (parents before children); on an hfsc backend rsc
    {e and} fsc are spelled out (so [add_class]'s fsc-defaults-to-rsc
    cannot skew a replay) while an rr backend emits each class's
    quantum; leaves always carry their [qlimit]; one [Set_limit]
    re-asserts the aggregate bound; filters re-attach in match order.
    Dynamic state — backlog, virtual times, deficits, telemetry, trace
    ring — is deliberately not captured: a checkpoint restores
    configuration, not packets in flight. *)

val config_fingerprint : t -> string
(** Hex digest of exactly the state {!checkpoint_ops} captures (floats
    rendered exactly; an rr backend stamps its kind and quanta into the
    digested text, an hfsc backend's text is unchanged from the
    pre-interface engine). Two engines agree on this digest iff their
    control planes are identical; it deliberately excludes virtual
    times, backlog and telemetry so a recovered engine can be compared
    against a replay oracle even though neither holds the pre-crash
    packets. *)

val add_hex_float : Buffer.t -> float -> unit
(** [Printf.sprintf "%h"] of a float, written into a buffer without the
    format interpreter — the fingerprint's float writer. *)

val add_quoted : Buffer.t -> string -> unit
(** [Printf.sprintf "%S"] of a string, written into a buffer — the
    name writer of the fingerprint and of the class ops' replies. *)

val exec_op : t -> now:float -> Command.op -> (string, error) result
(** Execute one operation at time [now], ignoring link addressing —
    the engine {e is} the link. [Ok] carries a human-readable response
    (stats tables, trace dumps, confirmations); [Error] the typed
    reason — admission rejections include the violating breakpoint in
    the message. The scheduler is never left half-modified. The router
    verbs ([Link_add]/[Link_delete]/[Link_list]) are rejected with
    {!Structural}: link management belongs to {!Router}. *)

val exec : t -> now:float -> Command.t -> (string, error) result
(** {!exec_op} on the command's operation when its target is
    [Default_link]; a [link NAME] scope is rejected with
    {!Unknown_link} — a bare engine has no link namespace. *)

val audit : t -> string list
(** The backend's own audit (e.g. {!Hfsc.audit}) plus the engine's
    invariants (every mapped flow points at a live leaf, and the
    per-class flow index is exactly the inverse of the flow map).
    O(classes + flows). Empty means healthy. *)

(** {2 The data path} — thin allocation-free wrappers over the backend
    that keep telemetry. *)

val enqueue : t -> now:float -> int -> Pkt.Packet.t -> bool
(** Enqueue to a leaf by class id; [false] when refused (counted as a
    drop against that class). *)

val enqueue_flow : t -> now:float -> Pkt.Packet.t -> bool
(** Route by the packet's flow id; [false] if the flow is unmapped or
    the class queue is full (counted as a drop when mapped). *)

val dequeue : t -> now:float -> (Pkt.Packet.t * int * Hfsc.criterion) option
(** The backend's dequeue (the returned packet is the scheduler's own,
    not a copy) plus counter and trace updates and the periodic-audit
    tick — the returned class is its dense id; an rr backend always
    reports {!Hfsc.Linkshare}. The packet also stays in the backend's
    [out] record. test_runtime's allocation test and towerbench's
    [telemetry.*] trace rows measure this function against the bare
    scheduler. *)

val adapter : t -> Sched.Scheduler.t
(** Package the engine for {!Netsim.Sim} — the one H-FSC (and rr)
    adapter: every simulated H-FSC is an engine wrapped by this, so the
    simulator measures the same path the router and daemon run. Its
    [dequeue] shares {!dequeue}'s one function and reads the packet
    from the backend's [out] record; [dequeue_many] is [None]. *)

(** {2 Exporters} *)

val stats_json : t -> Json_lite.t
(** Schema [hfsc-runtime-stats/1]: link rate, one record per class
    (identity, curves — plus the quantum, and a top-level
    ["backend": "rr"] marker, on a round-robin backend — queue depth,
    all telemetry counters), and the trace ring's occupancy. The hfsc
    output is unchanged from the pre-interface engine. *)

val stats_text : t -> ?cls:string -> unit -> (string, error) result
(** The [stats] command body: a table over all classes, or one class's
    counters; [Error] on an unknown class name. *)
