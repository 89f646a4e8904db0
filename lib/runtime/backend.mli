(** The engine/backend interface: everything {!Engine} needs from a
    per-link packet scheduler. A router holds heterogeneous links
    (H-FSC on premium links, round-robin on million-class bulk links),
    so the interface is a record, not a functor: two backends coexist
    in one list.

    {b What differs, and what is shared.} The record {!t} holds only
    what H-FSC and round-robin do differently: their class parameters
    ({!field-params}), admission, the class mutators and the data path
    ({!field-enqueue}, {!field-dequeue}, {!field-next_ready}), and the
    audit. Everything else the engine asks about a class is the same for
    both, because both schedulers keep those facts in one
    {!Ds.Class_table}: its name, parent, leafness and queue, the live
    ids, the name index, the aggregate bounds, the drop policy and hook,
    and the backlog. The record carries that table ({!field-table}),
    and the functions after it ({!class_ids} to {!backlog_bytes}) read
    it, each written once for both backends.

    {b Class handles are dense ids} (creation order, root = 0, never
    reused). Every id-taking function and field resolves its id in the
    class table (O(1), allocation-free on the packet path) and raises
    [Invalid_argument] on an out-of-range or removed id. Callers never
    see a class value, which is what lets one {!Engine} drive either
    scheduler.

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
    themselves are all-or-nothing: [modify_class] is one call to the
    scheduler's [modify_class], which checks the whole change before
    making any of it.

    {b Admission sums.} The H-FSC backend keeps each admission scope's
    curves as an {!Analysis.Admission.t} aggregate in the scheduler's
    integers — the link's leaf rscs, and each class's children's fscs —
    built from the tree it wraps and updated by every successful
    [add_class], [modify_class] and [remove_class]. Every check, refusal
    included, is one sweep over one aggregate: O(K) in the scope's
    distinct knee ticks, never a walk over the scope's classes, and its
    verdict and refusal text depend only on the scope's curves, not on
    the order they were added. Hence {b a wrapped [Hfsc.t] may be
    mutated only through its backend} once wrapped: a class added,
    changed or removed behind it leaves the sums out of step with the
    tree ([audit] reports it). Building the tree first and wrapping it
    after is fine. *)

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

type out = Pkt.Served.t = {
  mutable o_pkt : Pkt.Packet.t;
  mutable o_id : int;
  mutable o_rt : bool;
}
(** The last packet [dequeue] served — instance-held so the backend
    boundary never allocates an option. *)

type table = Table : 'c Ds.Class_table.t -> table
(** A scheduler's class table, whatever its class type. *)

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
  table : table;  (** the wrapped scheduler's, read by the functions below *)
  params : int -> params;  (** curves on hfsc; a quantum on rr, not the root *)
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
      (** all-or-nothing: a refusal changes nothing *)
  remove_class : id:int -> (unit, error) result;
  enqueue : now:float -> int -> Pkt.Packet.t -> bool;
      (** [false] when refused (counted, reported to the drop hook);
          allocation-free on the admit path *)
  dequeue : now:float -> bool;
      (** the scheduler's own [dequeue_into] on [out]: [true] = one
          packet served, the scheduler wrote it into [out] in place;
          [false] = nothing servable. Zero words of allocation. *)
  next_ready : now:float -> float option;
  audit : unit -> string list;
      (** structural invariants; [] = healthy. On hfsc this includes
          each admission sum, exactly equal to a rebuild from the
          scheduler. *)
}

(** {2 The shared class views} — one function each, over {!field-table}. *)

val class_ids : t -> int list
(** Creation order, root first. *)

val find_id : t -> string -> int option
val cls_name : t -> int -> string
val parent_id : t -> int -> int option
(** [None] for the root. *)

val is_leaf : t -> int -> bool
val queue_length : t -> int -> int
val queue_bytes : t -> int -> int
val queue_limit_pkts : t -> int -> int
val queue_limit_bytes : t -> int -> int

val set_aggregate : t -> pkts:int option -> bytes:int option -> unit
val aggregate_pkts : t -> int
val aggregate_bytes : t -> int

val set_policy : t -> Hfsc.drop_policy -> unit
(** {!Hfsc.drop_policy} and {!Sched.Hls.drop_policy} are the one type,
    [Ds.Fifo_queue.drop_policy]. *)

val policy : t -> Hfsc.drop_policy
val set_drop_hook : t -> (float -> int -> Pkt.Packet.t -> unit) -> unit
(** Called for every lost packet with the losing class's id: a refused
    arrival's class or the eviction victim. *)

val backlog_pkts : t -> int
val backlog_bytes : t -> int

(** {2 Constructors} *)

val of_hfsc : link_rate:float -> Hfsc.t -> t
(** The paper's engine over the record: SCED breakpoint admission,
    byte-identical behaviour to driving the {!Hfsc.t} directly (pinned
    by differential fuzz in the test suite). The scheduler may already
    hold classes; from here on it is mutated only through the record. *)

val of_hls : link_rate:float -> Sched.Hls.t -> t
(** The O(1) hierarchical round-robin scale tier over the record:
    sum-of-quanta admission, every packet served as link-sharing. *)
