(** Minimal IPv4/transport header — the fields packet classification
    keys on (the paper's classes group traffic "according to
    administrative affiliation, protocol, traffic type"; a classifier
    maps these headers to leaf classes). *)

type proto = Tcp | Udp | Icmp | Other of int

type t = {
  src : int32;  (** IPv4 source address, host byte order *)
  dst : int32;
  proto : proto;
  sport : int;  (** 0 for protocols without ports *)
  dport : int;
}

val make :
  src:string -> dst:string -> proto:proto -> ?sport:int -> ?dport:int ->
  unit -> t
(** Addresses in dotted-quad notation.

    @raise Invalid_argument on a malformed address or port outside
    0..65535. *)

val addr_of_string : string -> int32
(** [addr_of_string "10.1.2.3"].

    @raise Invalid_argument on malformed input. *)

val addr_to_string : int32 -> string

val proto_number : proto -> int
(** IANA protocol number (6, 17, 1, or the [Other] payload). *)

val equal : t -> t -> bool
