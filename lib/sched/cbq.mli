(** Class-Based Queueing (Floyd & Jacobson, 1995) — the link-sharing
    mechanism Section VIII contrasts H-FSC against.

    CBQ polices each class with a rate {e estimator}: the exponentially
    weighted average of the idle time between its packets. A class whose
    average idle is negative is {e overlimit} and may only send by
    borrowing from an underlimit ancestor; otherwise it is regulated
    (suspended until the estimator recovers). Among sendable classes,
    packets are picked by weighted round-robin, highest priority band
    first.

    This is the classic algorithm with the usual simplifications of
    deployed variants (no top-level pointer optimization; borrowing may
    reach any underlimit ancestor). It exists here to reproduce the
    related-work comparison: CBQ's estimator-based policing gives only
    approximate bandwidth shares and couples a class's delay to its rate
    — the imprecision H-FSC's service-curve formulation removes.

    Build the tree with {!add_node}/{!add_leaf}, then drive it through
    {!to_scheduler}. The scheduler is non-work-conserving when every
    backlogged class is regulated; [next_ready] reports when the next
    estimator recovers. *)

type t
type node

val create : link_rate:float -> unit -> t
(** The estimator gain is 1/16, the classic value; a class may
    accumulate at most 16 packets' worth of unused idle time. *)

val root : t -> node

val add_node : t -> parent:node -> name:string -> rate:float -> node
(** Interior class with an allotted [rate] (bytes/s). *)

val add_leaf :
  t ->
  parent:node ->
  name:string ->
  rate:float ->
  flow:int ->
  ?priority:int ->
  ?borrow:bool ->
  ?qlimit:int ->
  unit ->
  node
(** Leaf receiving [flow]'s packets. [priority] 0 (highest) .. 7
    (default 1); [borrow] lets an overlimit class use underlimit
    ancestors' spare allotment (default true). *)

val to_scheduler : t -> Scheduler.t
