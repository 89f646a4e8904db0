(** The soak harness: a long churn of packets, faults and control-plane
    operations against a {e live daemon}, with every safety net armed.

    One run wires together the whole operational stack this repository
    has grown: a multi-link {!Runtime.Router}, a
    {!Netsim.Sim.create_multi} simulation feeding every link from
    Poisson/on-off/CBR sources, {!Netsim.Faults.random_timeline}s
    flapping each link and injecting malformed control lines, the
    periodic invariant auditor ([audit_every]) armed so any structural
    corruption aborts the run, binary trace spill
    ({!Runtime.Trace_log}) capturing every telemetry event to disk, and
    a churn client on a {e separate domain} driving the daemon over its
    real Unix socket — add/modify/delete classes, stats, audits, spill
    control — while the packets fly.

    The domain split mirrors production: the simulator, daemon and
    engines share the serving domain (the daemon's [idle] hook advances
    the simulation one slice at a time between socket reads); the
    client owns nothing but its socket. The only values crossing
    domains are atomics and socket bytes.

    The default parameters are runtest-sized (a sub-second slice); the
    [hfsc_sim soak] command scales them up to the multi-minute,
    millions-of-packets shape. *)

type report = {
  sk_links : int;
  sk_flows : int;
  sk_seconds : float;  (** simulated horizon *)
  sk_departures : int;  (** packets that finished transmission *)
  sk_enqueue_drops : int;
  sk_fault_events : int;  (** timeline events injected *)
  sk_requests : int;  (** socket requests the churn client sent *)
  sk_ok : int;  (** ... answered [ok] *)
  sk_err : int;  (** ... answered [err] (expected: admission, garbage) *)
  sk_audit_checks : int;  (** [audit] requests issued *)
  sk_audit_failures : int;  (** invariant violations across all audits *)
  sk_spilled : (string * int * int) list;  (** link, records, lost *)
  sk_histogram : Runtime.Trace_log.Histogram.t;
      (** delay histogram aggregated from the spilled binary traces *)
}

val run :
  ?links:int ->
  ?flows_per_link:int ->
  ?seconds:float ->
  ?seed:int ->
  ?socket:string ->
  ?spill:string ->
  ?audit_every:int ->
  ?log:(string -> unit) ->
  unit ->
  report
(** Run one soak. Defaults: 3 links, 4 flows per link, 1.0 simulated
    second, seed 7, a fresh socket and spill path under the temp
    directory (both removed afterwards when defaulted, kept when
    given), [audit_every = 4096]. [log] receives progress lines
    (default: silent).

    @raise Runtime.Engine.Audit_failure if the armed auditor trips on
    the data path — a soak {e crash}, deliberately not caught.
    @raise Failure if the churn client saw a malformed reply. *)

val report_text : report -> string
(** Human-readable summary: counters, per-link spill totals, and the
    delay histogram table. *)

val healthy : report -> (unit, string) result
(** The pass/fail gate the tests and [hfsc_sim soak] share: zero audit
    failures, at least one audit actually ran, packets flowed, every
    link spilled at least one record, and the histogram aggregated at
    least one delay sample. [Error] names the first violated clause. *)

(** {2 The kill/restart crash soak}

    The durability counterpart to {!run}: a churn client in {e this}
    process drives a durable daemon ({!Runtime.Daemon.run} with a state
    directory) running in a {e forked child}, SIGKILLs it mid-churn,
    restarts it from the state directory, and requires that recovery
    lost nothing. Each cycle: start the daemon, check its recovered
    fingerprint equals the one recorded just before the previous kill,
    send a deterministic batch of [at]-stamped mutating commands, run
    the auditor, record the fingerprint, kill. The last
    cycle stops cleanly ([shutdown]), then one more restart proves a
    clean journal recovers bit-identically, stopped via SIGTERM to
    prove the signal-driven graceful path. Finally every acknowledged
    command is replayed, in order, into a fresh sequential router — the
    oracle — whose {!Runtime.Router.config_fingerprint} must equal the
    daemon's. *)

type crash_report = {
  cr_cycles : int;
  cr_kills : int;  (** SIGKILLs delivered *)
  cr_commands : int;  (** mutating commands acknowledged (and recovered) *)
  cr_rotations : int list;
      (** journal rotations during each churn cycle, in order; each is
          at least 1 or the run fails *)
  cr_fingerprint : string;  (** the final daemon's configuration *)
  cr_oracle : string;  (** the sequential replay oracle's (equal) *)
}

val run_crash :
  ?links:int ->
  ?cycles:int ->
  ?ops_per_cycle:int ->
  ?state_dir:string ->
  ?socket:string ->
  ?log:(string -> unit) ->
  unit ->
  (crash_report, string) result
(** Run one kill/restart soak. Defaults: 2 links, 3 cycles, 12 op
    rounds per cycle, fresh temp state directory and socket (removed
    afterwards when defaulted, kept when given).
    [Error] names the first broken guarantee: a lost or phantom
    command, a failed audit, a refused recovery, a fingerprint
    diverging from the oracle, or a churn cycle during which the
    daemon (at [checkpoint_every = 8], a floor under its byte rule)
    never rotated its journal. Defaults are runtest-sized (the [@crash]
    alias); [hfsc_sim crash] scales them up. *)

val crash_report_text : crash_report -> string
