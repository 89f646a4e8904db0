(** The engine/backend interface: everything {!Engine} needs from a
    per-link packet scheduler, as a record of first-class operations —
    the same extraction move that turned {!Router_core} into a module
    parametric over per-port ops. A router holds heterogeneous links
    (H-FSC on premium links, round-robin on million-class bulk links),
    so the interface is a record, not a functor: two backends coexist
    in one list.

    {b Class handles are dense ids.} Every operation addresses classes
    by the scheduler's own dense [int] id (creation order, root = 0,
    never reused). The backend keeps the id→class mapping internally
    (a flat array, O(1), allocation-free on the packet path); callers
    never see a class value, which is what lets one {!Engine} drive
    either scheduler.

    {b Ownership.} A [Backend.t] wraps a single-domain scheduler and
    inherits its confinement: one owning domain at a time, moved
    wholesale between domains only while quiescent (see {!Engine} and
    {!Mc_router}). The record's closures share unsynchronised state
    with the scheduler they wrap.

    {b Admission contract.} [admit_add]/[admit_modify] are pure checks
    — they never mutate — and the control plane calls them before the
    corresponding mutation. For H-FSC they are the paper's SCED
    feasibility tests at every curve breakpoint (leaves' rsc vs the
    link, children's fsc vs the parent, ulimit vs own rsc); for
    round-robin the analogue is O(1) arithmetic: a quantum must lie in
    [[1, Sched.Hls.max_quantum]] and the quanta under any one parent
    must sum to at most {!Sched.Hls.max_round_bytes} (one round of a
    parent bounds a newly backlogged child's wait). Mutations
    themselves are transactional: [modify_class] rolls the class back
    to a snapshot on any mid-way refusal. *)

(** {2 Typed errors} — shared by every backend and re-exported by
    {!Engine}. *)

type error_code =
  | Parse_error
  | Unknown_class
  | Duplicate_class
  | Unknown_flow
  | Duplicate_flow
  | Admission_realtime
  | Admission_linkshare
  | Admission_ulimit
  | Class_active
  | Structural
  | Bad_value
  | Unknown_link
  | Duplicate_link
  | Cross_link_filter
  | Link_failed

type error = { code : error_code; message : string }

val error_code : error -> error_code
val error_message : error -> string

val error_code_name : error_code -> string
(** Stable kebab-case name, for logs and JSON. *)

val parse_error : string -> error
val errf : error_code -> ('a, unit, string, ('b, error) result) format4 -> 'a

val of_invalid : string -> ('a, error) result
(** Classify a scheduler's [Invalid_argument] message into a typed
    refusal: live/backlogged refusals are {!Class_active}, bad numeric
    arguments {!Bad_value}, the rest {!Structural}. *)

(** {2 The interface} *)

type kind = Hfsc_kind | Rr_kind

val kind_name : kind -> string
(** ["hfsc"] / ["rr"] — matches the config and command grammar. *)

type params = {
  rsc : Curve.Service_curve.t option;
  fsc : Curve.Service_curve.t option;
  usc : Curve.Service_curve.t option;
  quantum : int option;
}
(** Class parameters, the union over backends: curves for H-FSC, a
    quantum for round-robin. Each backend rejects the other family
    with {!Bad_value}. *)

type batch
(** Parallel result arrays for the batched dequeue, filled in place by
    [deq_fill]; a drained packet costs zero words of allocation. *)

val batch : ?capacity:int -> unit -> batch
val batch_capacity : batch -> int
val batch_count : batch -> int

val batch_pkt : batch -> int -> Pkt.Packet.t
(** @raise Invalid_argument outside [0 .. batch_count - 1]. *)

val batch_id : batch -> int -> int
val batch_realtime : batch -> int -> bool
(** Whether the packet was served under the real-time criterion
    (always [false] on a round-robin backend). *)

type out = {
  mutable o_pkt : Pkt.Packet.t;
  mutable o_id : int;
  mutable o_rt : bool;
}
(** Out-params of the last successful single [dequeue] — instance-held
    so the backend boundary never allocates an option. *)

type t = {
  kind : kind;
  link_rate : float;  (** bytes/second; the admission capacity *)
  raw_hfsc : Hfsc.t option;
      (** the wrapped scheduler when [kind = Hfsc_kind] — the escape
          hatch behind {!Engine.scheduler}. It stays because the
          differential oracle (the test suite's
          [Hfsc_gen.engine_fingerprint]) reads H-FSC internals through
          it; an rr backend has no such consumer, so it has no hatch. *)
  out : out;  (** filled by [dequeue] when it returns [true] *)
  class_ids : unit -> int list;  (** creation order, root first *)
  find_id : string -> int option;
  cls_name : int -> string;
  parent_id : int -> int option;  (** [None] for the root *)
  is_leaf : int -> bool;
  rsc : int -> Curve.Service_curve.t option;  (** [None] on rr *)
  fsc : int -> Curve.Service_curve.t option;
  usc : int -> Curve.Service_curve.t option;
  quantum : int -> int option;  (** [None] on hfsc and for the root *)
  queue_length : int -> int;
  queue_bytes : int -> int;
  queue_limit_pkts : int -> int;
  queue_limit_bytes : int -> int;
  admit_add : parent:int -> name:string -> params -> (unit, error) result;
      (** pure; the backend's admission test for a prospective child *)
  admit_modify : id:int -> name:string -> params -> (unit, error) result;
      (** pure; the same test with the change swapped in for [id] *)
  add_class :
    parent:int ->
    name:string ->
    params ->
    qlimit:int option ->
    qbytes:int option ->
    (int, error) result;
      (** returns the new class's dense id *)
  modify_class :
    id:int ->
    params ->
    qlimit:int option ->
    qbytes:int option ->
    (unit, error) result;
      (** transactional: rolls back to a snapshot on refusal *)
  remove_class : id:int -> (unit, error) result;
  set_aggregate : pkts:int option -> bytes:int option -> unit;
  aggregate_pkts : unit -> int;
  aggregate_bytes : unit -> int;
  set_policy : Hfsc.drop_policy -> unit;
      (** {!Hfsc.drop_policy} is the shared vocabulary; rr maps it onto
          its own identical policy type *)
  policy : unit -> Hfsc.drop_policy;
  set_drop_hook : (float -> int -> Pkt.Packet.t -> unit) -> unit;
      (** called for every lost packet with the losing class's id *)
  enqueue : now:float -> int -> Pkt.Packet.t -> bool;
      (** [false] when refused (counted, reported to the drop hook);
          allocation-free on the admit path *)
  dequeue : now:float -> bool;
      (** [true] = one packet served, result in [out]; [false] = the
          scheduler has nothing servable *)
  deq_fill : now:float -> batch -> int;
      (** fill up to [batch_capacity] slots, bit-identical in service
          order to that many single [dequeue] calls; returns the count.
          Zero allocation per packet in steady state. *)
  next_ready : now:float -> float option;
  backlog_pkts : unit -> int;
  backlog_bytes : unit -> int;
  audit : unit -> string list;  (** structural invariants; [] = healthy *)
}

(** {2 Constructors} *)

val of_hfsc : link_rate:float -> Hfsc.t -> t
(** The paper's engine over the record: SCED breakpoint admission,
    byte-identical behaviour to driving the {!Hfsc.t} directly (pinned
    by differential fuzz in the test suite). *)

val of_hls : link_rate:float -> Sched.Hls.t -> t
(** The O(1) hierarchical round-robin scale tier over the record:
    sum-of-quanta admission, every packet served as link-sharing. *)
