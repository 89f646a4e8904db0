(** The multi-link control plane: N named links, each backed by its own
    {!Engine} (and therefore its own {!Hfsc.t}, telemetry and filter
    table), behind one classifier and one command surface.

    {b Link ownership rule.} Every per-link structure — the intrusive
    ED/VT trees, the flow map, the filter list, the telemetry rings —
    is owned by exactly one engine, and the router never reaches into
    them directly: all state changes flow through {!Engine.exec_op} on
    the owning engine. What the router adds on top is the {e device}
    view: a flow-to-link directory (each flow id lives on at most one
    link, device-wide), a sharded classifier
    ({!Classify.Shard}: per-link rule tables searched in link creation
    order, first match wins), and command routing.

    {b Command routing.} A {!Command.t} whose target is [link NAME]
    goes to that link's engine. An unscoped command goes to the sole
    link when the router has exactly one — which makes a one-link
    router behave {e bit-identically} to a bare engine, the migration
    guarantee the differential tests pin down. With several links, an
    unscoped command is resolved as follows:

    - [stats] and [trace dump] aggregate over all links (per-link
      headers); [trace on]/[trace off] apply to every link;
    - [attach filter flow N] routes to the link owning flow [N];
      [detach filter flow N] likewise, falling back to the link that
      actually holds such a filter;
    - structural operations ([add]/[modify]/[delete class], [limit])
      are ambiguous and rejected with {!Engine.Unknown_link} — scope
      them with [link NAME].

    The [link add]/[link delete]/[link list] verbs address the router
    itself. Errors reuse {!Engine.error} verbatim — one shared enum,
    extended (not forked) with the link-addressing codes
    [Unknown_link], [Duplicate_link] and [Cross_link_filter].

    {b Domain ownership.} This router is single-domain: the [t], its
    directory, its classifier shard and all of its engines live on the
    calling domain, and nothing here synchronises. It is the default
    and the semantic reference. {!Mc_router} is the same control plane
    (both are instances of [Router_core]) with each engine owned by a
    worker domain behind SPSC rings; its replies are bit-identical to
    this router's by construction. *)

type t

val create :
  ?trace_capacity:int -> ?tracing:bool -> ?audit_every:int -> unit -> t
(** An empty router (no links). The optional knobs are remembered and
    applied to every engine the router creates, including links added
    later via [link add]. *)

val of_config :
  ?trace_capacity:int -> ?tracing:bool -> ?audit_every:int -> Config.t -> t
(** One link per [link] statement of the configuration, in file
    order. *)

val of_engines :
  ?trace_capacity:int ->
  ?tracing:bool ->
  ?audit_every:int ->
  (string * Engine.t) list ->
  t
(** A router over already-built engines (e.g. {!Engine.create} with a
    [flow_map]), in list order; the knobs apply to links added later.
    The directory is filled from each engine's flow map once, here.
    @raise Invalid_argument on a duplicate link name or a flow mapped by
    two engines. *)

val add_link :
  ?backend:Config.backend ->
  t ->
  name:string ->
  link_rate:float ->
  (string, Engine.error) result
(** Create a link (a fresh scheduler + engine) named [name] with the
    given rate in bytes/second, running [backend] (default hfsc; the
    backend is fixed for the link's lifetime). Fails with
    {!Engine.Duplicate_link} on a name collision and {!Engine.Bad_value}
    on a non-positive rate. This is what the [link add] command
    calls. *)

val links : t -> (string * Engine.t) list
(** Links in creation order — also the classifier's shard order. *)

val find_link : t -> string -> Engine.t option
val link_count : t -> int

val link_of_flow : t -> int -> string option
(** The link owning a flow id, if any (device-wide directory). *)

val flow_class : t -> int -> (string * int) option
(** Owning link and current leaf class id for a flow id. *)

val classify : t -> Pkt.Header.t -> (string * int) option
(** Route a header through the sharded classifier: first matching
    filter across links in creation order names the owning link; the
    matched flow's leaf class comes from that link's engine. *)

val exec : t -> now:float -> Command.t -> (string, Engine.error) result
(** Execute one command, routed per the rules above. Transactionality
    is inherited from the engines: a rejected command leaves every
    scheduler bit-identical to before. *)

val exec_script :
  ?lenient:bool ->
  t ->
  (float * Command.t) list ->
  (float * Command.t * (string, Engine.error) result) list
(** As {!Engine.exec_script}: strict by default (stop at the first
    error, which is included), [~lenient:true] replays every line. *)

val audit : t -> string list
(** Every engine's {!Engine.audit} (prefixed with its link name) plus
    the router's own invariants: the flow directory and the per-engine
    flow maps agree in both directions, and every directory entry
    names a live link. Empty means healthy. The directory is a cache
    that commands update in place (an [add class ... flow N] maps N, a
    [delete class] unmaps exactly the class's flows); this check is
    what catches it drifting from the engines. *)

val checkpoint : t -> (float * Command.t) list
(** The whole device as a replayable script: each link's [link add]
    followed by that link's {!Engine.checkpoint_ops} scoped to it, in
    link-creation order. Replaying it into a fresh (empty) router
    rebuilds this configuration exactly; dynamic state (backlog,
    virtual times, telemetry) is deliberately absent. This is what
    {!Journal} checkpoints persist. *)

val config_fingerprint : t -> string
(** Hex digest over every link's {!Engine.config_fingerprint}, keyed
    by link name (sorted, so it is insensitive to link-creation
    history but sensitive to any configuration difference). The
    recovery acceptance check compares this between a restarted daemon
    and a sequential replay oracle. *)

(** {2 The data path} *)

val enqueue_flow : t -> now:float -> Pkt.Packet.t -> bool
(** Route by the packet's flow id through the device-wide directory to
    the owning link's engine; [false] if the flow is unmapped anywhere
    or the class queue refuses it. Dequeue has no router-level
    counterpart by design: each link drains independently (its own
    transmitter), via its engine handle from {!links} — batched, with
    {!Engine.dequeue_batch}, when the link models a transmit ring. *)

(** {2 Exporters} *)

val stats_json : t -> Json_lite.t
(** Schema [hfsc-router-stats/1]: one record per link embedding that
    engine's [hfsc-runtime-stats/1] document. *)

val stats_text : t -> string
(** Per-link stats tables with [== link NAME ==] headers. *)
