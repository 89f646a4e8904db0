(** Rule-based packet classification: map headers to leaf-class flow
    ids, altq/tc-filter style. First matching rule in order wins; every
    criterion left unspecified matches anything. *)

type rule

val rule :
  ?src:string ->
  ?dst:string ->
  ?proto:Pkt.Header.proto ->
  ?sport:int * int ->
  ?dport:int * int ->
  flow:int ->
  unit ->
  rule
(** [src]/[dst] are CIDR prefixes; port ranges are inclusive [(lo, hi)].

    @raise Invalid_argument on malformed prefixes or empty/invalid port
    ranges. *)

val flow_of : rule -> int
(** The flow id a rule classifies to — lets a rule table be edited by
    flow (the control plane's [detach filter flow N]). *)

type t

val create : ?default:int -> rule list -> t
(** [default] is the flow for unmatched traffic (e.g. a best-effort
    class); without it unmatched headers classify to [None]. *)

val classify : t -> Pkt.Header.t -> int option
val length : t -> int

