(** Measurement instruments for experiments: per-flow delay statistics
    and per-class throughput time series (the raw material of every
    figure in the evaluation). *)

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

module Throughput : sig
  type t

  val create : bin:float -> unit -> t
  (** Bytes accumulated into time bins of width [bin] seconds, keyed by
      class name. *)

  val add : t -> cls:string -> now:float -> int -> unit
  (** Bins are dense from time 0.

      @raise Invalid_argument if [now] is NaN or at or before [-bin]
      (a negative bin). *)

  val series : t -> cls:string -> (float * float) list
  (** [(bin start time, average rate in bytes/s during the bin)] in
      time order, empty bins included up to the last nonempty one. *)

  val classes : t -> string list
end
