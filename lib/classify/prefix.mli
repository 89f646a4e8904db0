(** IPv4 prefixes in CIDR notation. *)

type t = private { addr : int32; len : int }

val make : addr:int32 -> len:int -> t
(** Host bits beyond [len] are cleared.

    @raise Invalid_argument unless [0 <= len <= 32]. *)

val of_string : string -> t
(** [of_string "10.0.0.0/8"]; a bare address means /32.

    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val matches : t -> int32 -> bool
(** Does the address fall inside the prefix? *)

val any : t
(** 0.0.0.0/0 — matches everything. *)
