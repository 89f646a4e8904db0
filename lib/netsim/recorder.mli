(** Per-packet trace recording and CSV export — the raw material for
    external plotting of the evaluation figures.

    Attach to a {!Sim}; every departure, on any link, becomes one
    row. *)

type t

type record = {
  time : float;  (** departure time (last bit out) *)
  flow : int;
  seq : int;
  size : int;
  cls : string;
  criterion : string;
  delay : float;
}

val create : ?capacity:int -> unit -> t
val attach : t -> Sim.t -> unit
(** Record every departure of the simulation. *)

val records : t -> record list
(** In departure order. *)

val length : t -> int

val save_csv : t -> string -> (unit, string) result
(** Write to a file path: a header and one row per record,
    [time,flow,seq,size,class,criterion,delay]. *)

val filter : t -> (record -> bool) -> record list

val load_csv : string -> (record list, string) result
(** Parse a file written by {!save_csv} back into records (so a captured
    trace can be replayed — see {!replay_source}). *)

val replay_source : flow:int -> record list -> Source.t
(** Replay a trace as an arrival stream: only the given flow's records
    are used, each packet re-arriving at its {e original} arrival time
    (departure minus recorded delay), sizes preserved. Combined with
    {!load_csv} this turns any captured run into a trace-driven
    workload.

    @raise Invalid_argument if the reconstructed arrivals are not
    nondecreasing (a per-flow trace from a FIFO-per-flow scheduler
    always is). *)
