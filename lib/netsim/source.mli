(** Synthetic traffic sources.

    Each source emits one flow as a pull-based stream of arrivals; the
    simulator pulls the next arrival after scheduling the previous one.
    All randomized sources take an explicit [seed] so every experiment
    is reproducible. These replace the traces of the paper's testbed:
    audio/video are CBR (per-packet/per-frame), data is Poisson or
    exponential/Pareto on-off, FTP is a greedy backlog.

    A source holds its pending arrival itself, the time unboxed: {!pull}
    advances to the next arrival and {!time}/{!size} read it. {!cbr}
    (hence {!saturating}) and {!poisson} pull natively, without
    building an option or tuple (a Poisson pull still allocates the
    boxed result of [Random.State.float]); the other constructors are
    option-returning generators behind the same interface. *)

type t

val flow : t -> int

val pull : t -> bool
(** Advance to the next arrival; [false] when the source is exhausted
    (and stays so). Times are nondecreasing. *)

val time : t -> float
(** Absolute time of the arrival the last successful {!pull} produced;
    unspecified before one. *)

val size : t -> int
(** Its size in bytes. *)

val next : t -> (float * int) option
(** {!pull} then [(time, size)] as an option: the same stream, for
    callers that want a value. Mixing the two on one source interleaves
    a single stream. *)

val cbr :
  flow:int -> rate:float -> pkt_size:int -> ?start:float -> ?stop:float ->
  unit -> t
(** Constant bit rate: a [pkt_size] packet every [pkt_size/rate] s. *)

val poisson :
  flow:int -> rate:float -> pkt_size:int -> seed:int -> ?start:float ->
  ?stop:float -> unit -> t
(** Poisson arrivals with mean byte rate [rate]: exponential
    interarrivals of mean [pkt_size/rate]. *)

val on_off_exp :
  flow:int -> peak_rate:float -> pkt_size:int -> mean_on:float ->
  mean_off:float -> seed:int -> ?start:float -> ?stop:float -> unit -> t
(** Exponential on-off: CBR at [peak_rate] during ON periods
    (mean [mean_on] s), silent during OFF periods (mean [mean_off] s). *)

val on_off_pareto :
  flow:int -> peak_rate:float -> pkt_size:int -> mean_on:float ->
  mean_off:float -> shape:float -> seed:int -> ?start:float ->
  ?stop:float -> unit -> t
(** Pareto on-off with tail index [shape] (> 1): the heavy-tailed burst
    model behind self-similar aggregate traffic. *)

val burst : flow:int -> pkt_size:int -> count:int -> at:float -> t
(** [count] packets all arriving at time [at] — an instantly-backlogged
    (greedy/FTP-like) source for a bounded experiment. *)

val saturating :
  flow:int -> rate:float -> pkt_size:int -> ?start:float -> ?stop:float ->
  unit -> t
(** CBR intended to exceed the flow's fair share so its queue never
    drains — greedy without unbounded queue growth. *)

val script : flow:int -> (float * int) list -> t
(** Explicit arrival list (must be sorted by time). *)

val adaptive :
  flow:int ->
  pkt_size:int ->
  init_rate:float ->
  min_rate:float ->
  max_rate:float ->
  ?increase:float ->
  ?delay_target:float ->
  ?start:float ->
  ?stop:float ->
  unit ->
  t * (delay:float -> unit)
(** A rate-adaptive (AIMD) source — the "adaptive application" of the
    paper's Section III-B fairness argument: it probes for spare
    bandwidth and backs off on congestion, so it only thrives under a
    scheduler that does not punish past use of excess capacity.

    Returns the source and a feedback function: report each delivered
    packet's delay (wire it to {!Sim.on_departure}). Delay at or below
    [delay_target] (default 20 ms) additively grows the rate by
    [increase] bytes/s per feedback (default [pkt_size * 10]); above it,
    the rate halves. The rate stays within [min_rate, max_rate]. *)

val shaped : sigma:float -> rho:float -> t -> t
(** [shaped ~sigma ~rho src] — a token-bucket shaper in front of [src]:
    the output stream conforms to the arrival envelope
    [token_bucket sigma rho] (bytes, bytes/s), with non-conforming
    packets delayed (never dropped). A shaped source provably satisfies
    the [alpha] used by {!Analysis.Delay_bound}, closing the loop
    between the analysis and the simulation.

    @raise Invalid_argument if [sigma] is smaller than the source's
    packets (they could never conform) or [rho <= 0]. *)
