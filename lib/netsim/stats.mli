(** Measurement instruments for experiments: per-flow delay statistics
    and per-class throughput time series (the raw material of every
    figure in the evaluation), each attached to a {!Sim} before it runs,
    like the per-packet CSV trace. *)

module Delay : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val max : t -> float
  val min : t -> float
  val percentile : t -> float -> float
  (** [percentile t 0.99]; nearest-rank on the recorded samples.

      @raise Invalid_argument when empty or p outside [0, 1]. *)

  val samples : t -> float array
  (** All recorded values, in recording order. *)
end

(** One {!Delay.t} per flow. *)
module Flow_delay : sig
  type t

  val create : unit -> t
  val add : t -> flow:int -> float -> unit
  val find : t -> int -> Delay.t option

  val attach : Sim.t -> t
  (** Fed by every departure of the simulation, on any link: the
      packet's departure time minus its arrival. *)
end

module Throughput : sig
  type t

  val attach : bin:float -> Sim.t -> t
  (** Bytes accumulated into time bins of width [bin] seconds, dense
      from time 0, fed by every departure of the simulation, on any
      link: the packet's bytes, under the class that served it.

      @raise Invalid_argument unless [bin] is finite and positive. *)

  val series : t -> cls:string -> (float * float) list
  (** [(bin start time, average rate in bytes/s during the bin)] in
      time order, empty bins included up to the last nonempty one. *)

  val classes : t -> string list
end

module Csv_trace : sig
  type t

  val attach : out_channel -> Sim.t -> t
  (** Writes the header [time,flow,seq,size,class,criterion,delay] now,
      then one row per departure, on any link, as it happens (nothing is
      kept). The caller closes the channel. *)

  val rows : t -> int
end
