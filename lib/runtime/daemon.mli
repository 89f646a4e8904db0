(** The operable daemon: a Unix-domain-socket REPL over the runtime
    control plane, turning [hfsc_sim] from a script replayer into a
    long-lived process an operator (or the soak harness) reconfigures
    and observes while it runs.

    {b Wire protocol.} Line-oriented requests, length-prefixed replies.
    A request is one ['\n']-terminated line: either a {!Command} line
    in the exact script grammar — an optional [at TIME] prefix, then
    [add class ...], [link NAME stats], [trace dump], ... — or one of
    the daemon's own meta verbs:

    {v
    ping                      liveness probe
    audit                     run the device-wide invariant auditor
    stats-json                the JSON stats document (router schema)
    fingerprint               configuration fingerprint (hex digest)
    spill start PATH          start binary trace spill (one file per
                              link: PATH when the device has one link,
                              PATH.<link> otherwise)
    spill stop                close the spill files, report totals
    spill status              written/lost counts per link
    quit                      close this connection
    shutdown                  stop the daemon (all connections close)
    v}

    {b Input hardening.} A request line longer than 4096 bytes is
    answered with [err bad-value]; if the stream has no newline at all
    within that bound the connection is also closed (there is no way to
    resync). A line containing a NUL byte is rejected the same way but
    the connection survives — its framing is intact. Requests arriving
    one byte at a time are fine: lines are cut from a per-connection
    buffer, never from a single [read].

    {b Spill failures} stop the spill, never the daemon: an unopenable
    path refuses [spill start] with [err bad-value]; a failed write
    closes every spill file, and the next [spill status] or [spill
    stop] answers [err bad-value] with the reason.

    Every request gets exactly one reply:

    {v
    ok <len>\n<len bytes of body>\n
    err <code> <len>\n<len bytes of message>\n
    v}

    where [<code>] is {!Engine.error_code_name} of the typed error —
    the same enum scripts see from {!Router.exec_script}, so a socket
    client can switch on [admission-realtime] vs [unknown-class]
    exactly like an offline replay; the body is the {e exact} reply
    string the control plane produced (this is what makes a socket
    session bit-comparable to {!Router.exec_script}, which the daemon
    tests pin). A blank or comment-only line replies [ok 0].

    {b Time.} A command with an [at TIME] prefix executes at that
    simulated time; one without executes at [clock ()] (default: wall
    seconds since daemon start). Deterministic replays therefore prefix
    every line.

    {b Ownership.} The daemon, its backend's control plane and its
    spill sinks live on the domain that calls {!serve} — connections
    are multiplexed with [select] on that one domain. No engine state
    crosses domains here: {!Mc_router} keeps each engine behind its
    rings, and a spill sink is drained by the link's own engine through
    one port call ({!Engine.drain_trace}) while the serving domain
    waits. *)

(** What the daemon serves: a router's control plane, {!Router_core},
    over either port — the sequential router's direct engines or the
    multicore router's rings. Every request runs the same core
    function either way. A single engine is served as a one-link
    router ({!Router.of_engines}), which is bit-identical to the bare
    engine. *)
type backend = Backend : 'p Router_core.t -> backend

val backend_of_router : Router.t -> backend
val backend_of_mc_router : Mc_router.t -> backend

type t

val create : ?clock:(unit -> float) -> socket:string -> backend -> t
(** Bind and listen on the Unix-domain socket at path [socket] (an
    existing socket file there is replaced; a listen backlog of 8).
    [clock] supplies [now] for commands without an [at] prefix; it is
    called on the serving domain once per such command, before the
    command runs.

    @raise Unix.Unix_error if the path cannot be bound (too long,
    bad directory, ...). *)

val serve : ?idle:(unit -> bool) -> t -> unit
(** Serve until a client sends [shutdown] or [idle] returns [false].
    [idle] (default [fun () -> true]) runs after every multiplexer
    wake-up — at least every 50 ms — on the serving domain; it is the
    hook the soak harness advances its simulation from. Spill sinks
    are drained after every executed command and on every wake-up;
    a drain costs O(events recorded since the last one), however many
    classes the link has. On return all connections and spill files
    are closed and the socket file is unlinked; {!serve} may be called
    again. *)

val shutdown_requested : t -> bool

val spill_totals : t -> (string * int * int) list
(** [(link, written, lost)] of the most recent spill session (live if
    one is active) — what [spill stop] reports, kept readable after
    {!serve} returns so harnesses can assert on it. *)

(** {2 Durability}

    [run ~durable:DIR] is {!create} + {!serve} with a crash-safe state
    directory kept by the daemon: on entry the directory is
    recovered through {!Journal.recover} — latest intact checkpoint
    replayed into the (empty) backend, recorded digest verified against
    the rebuilt {!Router.config_fingerprint}, journal tail replayed —
    and a fresh generation is started. From then on every {e accepted}
    mutating command is appended to the journal, by the same exec path
    that runs it, before its reply is sent. The
    journal rotates into a new checkpoint once {e both} hold: it has at
    least [checkpoint_every] records, and its bytes since the last
    checkpoint are at least that checkpoint's size
    ({!Journal.footprint}). Each checkpoint byte is thus paid for by a
    journal byte: at most about two bytes reach the disk per byte
    journaled, at any configuration size, and a rotate's cost per write
    is proportional to the record, not to the configuration. SIGKILL at
    any instant loses at most the command whose reply was never sent;
    SIGTERM or a [shutdown] request stops the serve loop, flushes any
    active trace spill, and fsyncs + closes the journal. *)

type recovery_info = {
  ri_generation : int;  (** generation now being written *)
  ri_checkpoint : int;  (** commands replayed from the checkpoint *)
  ri_tail : int;  (** commands replayed from the journal tail *)
  ri_truncated : bool;  (** a torn journal tail was discarded *)
  ri_fingerprint : string;
      (** {!Router.config_fingerprint} after recovery *)
}

val run :
  ?clock:(unit -> float) ->
  ?idle:(unit -> bool) ->
  ?sigterm:bool ->
  ?checkpoint_every:int ->
  ?durable:string ->
  socket:string ->
  backend ->
  (recovery_info option, string) result
(** Serve [backend] on [socket] until [shutdown], [idle () = false], or
    — when [sigterm] (default [true]) — SIGTERM. With [?durable:DIR]
    the backend {b must be freshly created and empty}: recovery replays
    into it strictly, and any refused command or digest mismatch
    returns [Error] without serving (a state directory must never be
    half-applied). [checkpoint_every] (default 256) is the floor of the
    rotation rule above: a rotate needs at least that many journal
    records and as many journal bytes as the current checkpoint, so a
    future recovery replays at most max([checkpoint_every] records, one
    checkpoint's bytes) plus one record of tail. Returns
    [Ok (Some info)] describing the recovery when durable, [Ok None]
    otherwise. *)

(** {2 Client}

    The matching line client, used by the daemon tests, the soak
    harness and [hfsc_sim ctl]. Blocking; one outstanding request at a
    time. *)

module Client : sig
  type conn

  exception Timeout
  (** A deadline passed in {!request} expired mid-read. Distinct from
      protocol errors ([Failure]) and peer shutdown ([End_of_file]): a
      timed-out connection is in an unknown framing state and should be
      closed, where a protocol [Error (code, msg)] reply leaves it
      reusable. *)

  val connect : ?retries:int -> ?backoff:float -> string -> conn
  (** Connect to the daemon socket. With [retries] (default 0) a
      [Unix.Unix_error] — nothing listening yet, socket file briefly
      absent while the daemon restarts — is retried up to that many
      times, sleeping [backoff] seconds (default 0.05) doubled after
      each attempt.

      @raise Unix.Unix_error when the final attempt fails. *)

  val request : ?timeout:float -> conn -> string -> (string, string * string) result
  (** Send one request line, read one reply: [Ok body] for [ok],
      [Error (code, message)] for [err]. With [timeout] (seconds), the
      whole reply must arrive within the deadline.

      @raise Timeout if the deadline expires.
      @raise End_of_file if the daemon closed the connection. *)

  val close : conn -> unit
end
