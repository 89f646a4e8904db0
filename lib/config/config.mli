(** Text configuration for H-FSC hierarchies and workloads — the
    moral equivalent of altq.conf, plus traffic sources so a whole
    simulation is one file (see [bin/hfsc_sim.exe simulate]).

    Line-oriented; [#] starts a comment; keywords and key/value pairs
    are whitespace-separated. Rates accept [bps]/[Kbit]/[Mbit]/[Gbit]
    (decimal multipliers, bits per second) or [Bps]/[KBps]/[MBps]
    (bytes); times accept [s]/[ms]/[us]; sizes are bytes.

    {v
    # a 45 Mbit link shared by two departments
    link rate 45Mbit

    class cmu  parent root fsc 25Mbit
    class pitt parent root fsc 20Mbit

    # leaf with a real-time guarantee: 160-byte packets within 5 ms
    class audio parent cmu flow 1 rsc umax 160 dmax 5ms rate 64Kbit
    class video parent cmu flow 2 rsc umax 1000 dmax 10ms rate 2Mbit
    class data  parent cmu flow 3 fsc 22.936Mbit qlimit 500
    class pdata parent pitt flow 4 fsc 20Mbit ulimit 20Mbit

    # bound the total backlog; evict from the longest queue on overflow
    limit pkts 1000 bytes 1500000 policy longest

    source cbr    flow 1 rate 64Kbit pkt 160
    source cbr    flow 2 rate 2Mbit  pkt 1000
    source poisson flow 3 rate 20Mbit pkt 1000 seed 42
    source onoff  flow 4 rate 40Mbit pkt 1000 on 500ms off 500ms seed 7
    v}

    Class syntax: [class NAME parent PARENT (flow N)? CURVES...
    (qlimit N)? (qbytes N)?] — [qlimit]/[qbytes] bound the leaf's queue
    in packets/bytes — where each curve is one of
    - [rsc umax BYTES dmax TIME rate RATE] — the Fig. 7 mapping;
    - [rsc m1 RATE d TIME m2 RATE] — explicit two-piece curve;
    - [fsc RATE] or [fsc m1 RATE d TIME m2 RATE] — link-sharing curve;
    - [ulimit RATE] or [ulimit m1 RATE d TIME m2 RATE] — upper limit.
    A class with a [flow] is a leaf fed by that flow id.

    A link statement may end with [backend hfsc|rr] (default [hfsc]).
    On an [rr] link classes take no curves; instead an optional
    [quantum BYTES] sets the deficit-round-robin share (default
    [Sched.Hls.default_quantum]). [qlimit]/[qbytes] work on both
    backends; curve clauses on an rr link (or [quantum] on an hfsc
    link) are refused with [bad-value].

    Source syntax: [source KIND flow N rate RATE pkt BYTES ...] with
    KIND one of [cbr], [poisson] (needs [seed]), [onoff] (needs
    [on]/[off]/[seed]), [greedy] (alias of cbr), [burst] (needs
    [count] and [at]); all accept [start]/[stop].

    Limit syntax (at most one statement):
    [limit (pkts N|none)? (bytes N|none)? (policy tail|longest)?] —
    the scheduler-wide backlog bound and the drop policy applied when
    an arrival would exceed it ([tail] refuses the arrival, [longest]
    evicts from the longest leaf queue).

    {b Strict admission.} A configuration is loaded by running its
    device statements as control commands (see {!t}), so it passes the
    admission control every live command passes: leaf real-time
    curves must fit under the link (Section II), children's fair
    curves under their parent's, an upper limit over its class's rsc,
    and rr quanta within the per-round bound. There is no warn-only
    mode: an inadmissible file does not load. The load error names the
    file line, the typed error code and the reason, as in
    [line 3: admission-realtime: real-time guarantees infeasible ...];
    a statement the command parser rejects reports [parse-error]. *)

type t = {
  commands : (int * string) list;
      (** every device statement in the command grammar
          ({!Runtime.Command}), with its 1-based file line, in build
          order *)
  sources : until:float -> Netsim.Source.t list;
      (** instantiate fresh sources, capping open-ended ones at
          [until] *)
  source_flows : (int * int) list;
      (** [(line, flow)] of every source statement, in file order *)
}
(** A parsed configuration. The device is not built here:
    [Runtime.Router.of_config] runs [commands] one at a time through
    [Command.parse] and [exec], the path every socket, journal and
    checkpoint line takes, so a config meets the same admission
    control.

    {b The rewrite.} [link [NAME] rate RATE [backend B]] becomes
    [link add NAME rate RATE [backend B]]; [class ...] becomes
    [link NAME add class ...]; [limit ...] becomes [link NAME limit ...].

    {b Multi-link files}: each link gets its own [link NAME rate RATE]
    statement, and the class and limit statements that follow bind to
    the most recent link — the file reads as sections. The first link
    may stay anonymous (it is named ["link0"]); every later one needs a
    name, and [add]/[delete]/[list] are reserved. Flow ids are
    device-wide: each may map to a leaf on at most one link. Sources
    are device-wide too and may feed any link's flows. A file with a
    single link keeps the historical order-insensitive semantics
    (classes may precede the link statement). *)

val parse : string -> (t, string) result
(** Parse configuration text. Errors carry a line number: a malformed
    source, an unknown statement, a missing or unnamed [link], a class
    or limit before any link, a second [limit] in one section. Class
    and limit attributes are judged later, by the command parser. *)

val load : string -> (t, string) result
(** [parse] the contents of a file. *)

val parse_rate : string -> (float, string) result
(** Parse a rate token to bytes/second (exposed for tests and the
    CLI). A rate that is not finite once scaled by its unit (e.g.
    [1e308GBps]) is an [Error]. *)

val parse_time : string -> (float, string) result
(** Parse a time token to seconds. *)

val parse_curve_tokens :
  string list -> (Curve.Service_curve.t * string list, string) result
(** Parse one curve specification from the front of a token list,
    returning the curve and the remaining tokens. Accepts the same
    three forms as class statements: a bare [RATE], [m1 R d T m2 R],
    or [umax B dmax T rate R] (Fig. 7). Exposed so the runtime control
    plane's command language shares this grammar. *)
