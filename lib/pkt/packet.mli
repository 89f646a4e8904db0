(** Packets and flows.

    The shared vocabulary of every scheduler and of the simulator. A
    packet is immutable once created; schedulers queue packets, and the
    simulator hands each departed packet to the departure hooks its
    readers attach ([Netsim.Stats]: delay, throughput, CSV trace). *)

type t = private {
  flow : int;  (** flow (= leaf class) identifier *)
  size : int;  (** length in bytes; strictly positive *)
  seq : int;  (** per-flow sequence number, starting at 0 *)
  arrival : float;  (** wall-clock arrival time in seconds *)
}

val make : flow:int -> size:int -> seq:int -> arrival:float -> t
(** [make ~flow ~size ~seq ~arrival] builds a packet.

    @raise Invalid_argument if [size <= 0], [seq < 0] or [arrival] is
    not finite. *)

val compare : t -> t -> int
(** Total order: by flow, then sequence number. *)

val equal : t -> t -> bool
