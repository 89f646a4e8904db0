(** The class table under [Hfsc] and [Sched.Hls]: what they keep about
    their classes besides scheduling state. Dense ids (0 for the root,
    then creation order, never reused) index a slot array; parent,
    first-child and sibling links are int arrays, so {!remove} unlinks
    in O(1) and {!children} and {!classes} come out in creation order;
    a name index lists the live classes of each name, earliest first.
    The table also owns the aggregate backlog and bounds, the drop
    policy and hook, and the make-room loop.

    The [Drop_longest] victim is the top of an indexed max-heap over the
    queues holding two or more packets, keyed by (bytes descending, id
    ascending); interior queues stay empty, so it is a leaf. The heap
    exists only under [Drop_longest]: turning it on builds the heap in
    O(n), then the scheduler calls {!rekey} after each push or take, and
    an eviction costs O(log n). A class is the scheduler's own record,
    reached through the accessors given to {!create}. *)

type 'c store

(** What a scheduler's per-packet path reads without a call. It writes
    only [pkts] and [bytes], on enqueue and dequeue. *)
type 'c t = {
  mutable pkts : int;  (** aggregate backlog *)
  mutable bytes : int;
  mutable max_pkts : int;  (** aggregate bounds, [max_int] when none *)
  mutable max_bytes : int;
  mutable evicting : bool;  (** the policy is [Drop_longest] *)
  mutable on_drop : float -> 'c -> Pkt.Packet.t -> unit;
      (** per lost packet: a refused arrival's class or the victim *)
  mutable slots : 'c array;
      (** class [i] at index [i], for an id the scheduler itself holds
          live (a removed id's slot repeats the root); its length is the
          capacity, which {!add} doubles when full *)
  s : 'c store;
}

val create :
  what:string ->
  id:('c -> int) ->
  name:('c -> string) ->
  queue:('c -> Fifo_queue.t) ->
  ?on_evict:('c -> int -> unit) ->
  unit ->
  'c t
(** Empty, [Tail_drop], unbounded. [what] starts each [Invalid_argument]
    message; [on_evict c size] runs after each eviction, before
    [on_drop]. *)

val next_id : 'c t -> int
(** The id to build the next class with. *)

val add : 'c t -> ?parent:'c -> 'c -> unit
(** As the youngest child of [parent]; the root has none. *)

val remove : 'c t -> 'c -> active:bool -> unit
(** @raise Invalid_argument on the root, a class with children or
    queued packets, or an [active] one, checked in that order. *)

val class_of_id : 'c t -> int -> 'c
(** @raise Invalid_argument on an unknown or removed id. *)

(** {2 By id} Each id-taking reader raises as {!class_of_id} does. *)

val id : 'c t -> 'c -> int
val ids : 'c t -> int list
val find_id : 'c t -> string -> int option
val name_of_id : 'c t -> int -> string
val parent_of_id : 'c t -> int -> int option
val is_leaf_id : 'c t -> int -> bool
val queue_of_id : 'c t -> int -> Fifo_queue.t

(** {2 By class} Creation order; the earliest of a name. *)

val find : 'c t -> string -> 'c option
val classes : 'c t -> 'c list
val children : 'c t -> 'c -> 'c list
val is_leaf : 'c t -> 'c -> bool

val set_aggregate_limit : 'c t -> ?pkts:int -> ?bytes:int -> unit -> unit
(** @raise Invalid_argument on a non-positive bound. *)

val check_limits : 'c t -> 'c -> ?pkts:int -> ?bytes:int -> unit -> unit
(** [modify_class]'s refusal of given queue limits on the root, an
    interior class, or a non-positive value. *)

val set_drop_policy : 'c t -> Fifo_queue.drop_policy -> unit
val drop_policy : 'c t -> Fifo_queue.drop_policy

val make_room : 'c t -> now:float -> int -> bool
(** Under [evicting]: evict victims' newest packets until [size] more
    bytes fit; [false] once no queue holds two. A victim keeps its head
    packet, so its scheduling state needs no repair. *)

val rekey : 'c t -> int -> unit
(** Under [evicting]: that id's queue gained or lost a packet. *)

val victim : 'c t -> 'c option
(** The next eviction's class, under [evicting]. *)

val audit : 'c t -> string list
(** Slots, links, the name index, the backlog and the heap; one line
    per violation. *)
