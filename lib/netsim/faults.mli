(** Deterministic fault injection for simulation runs.

    A fault {!timeline} is plain data — a time-sorted list of events —
    turned into ordinary {!Sim.at} callbacks by {!schedule}, so a run
    with faults is exactly as replayable as one without: same seed,
    same timeline, same packet-level outcome. The vocabulary covers the
    failure modes a router-scale deployment actually sees: link rate
    flaps and outages (degraded or dead interfaces), arrival bursts
    (flash crowds), and malformed control commands (broken tooling or
    hostile operators). *)

type event =
  | Set_rate of float  (** change the link rate to this (bytes/s) *)
  | Outage of float  (** take the link down for this many seconds *)
  | Burst of { flow : int; pkt_size : int; count : int }
      (** back-to-back arrival burst on an existing flow *)
  | Command of string
      (** a control-plane line (possibly malformed) handed to the
          [on_command] callback of {!schedule} — the engine under test
          must reject garbage without corrupting the scheduler *)

type timeline = (float * event) list
(** Absolute event times in seconds; {!schedule} accepts any order, the
    event queue serializes them. *)

val schedule :
  ?on_command:(now:float -> string -> unit) ->
  ?link:int ->
  Sim.t ->
  timeline ->
  unit
(** Install every event of the timeline into the simulator's event
    queue up front. [Outage] schedules both the down and the up edge.
    [Command] events are dispatched to [on_command] (dropped silently
    when it is not given — a scheduler-only simulation has no control
    plane). [link] (default 0) is the link index the rate flaps and
    outages apply to — in a multi-link simulation a timeline faults
    exactly one link, leaving the others' wire state untouched;
    bursts and commands are device-wide. *)

val random_timeline :
  seed:int ->
  horizon:float ->
  link_rate:float ->
  flows:int list ->
  timeline
(** A reproducible mixed timeline over [0, horizon): rate flaps between
    10% and 150% of [link_rate], outages of 2–10% of the horizon,
    bursts on the given flows, and malformed control commands from a
    fixed pool. Driven entirely by [seed]; equal arguments give equal
    timelines. *)

val bad_commands : string array
(** The fixed pool of malformed / hostile control lines used by
    {!random_timeline} — exposed so fuzz harnesses can reuse the same
    vocabulary of garbage. *)

