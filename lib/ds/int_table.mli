(** Mutable map from [int] keys, for lookups on the per-packet path.

    Open addressing with linear probing: keys, values and slot
    occupancy sit in three flat arrays, and a removal shifts the rest
    of its probe run back instead of leaving a tombstone. A lookup
    hashes the key with one multiply and compares ints, so {!find} and
    {!mem} allocate nothing. Every [int] is a valid key, [min_int] and
    [max_int] included. The table keeps at most half its slots full
    and doubles when it would pass that.

    Iteration order is the slot order: deterministic for one sequence
    of operations, but unrelated to key or insertion order. Callers
    that print or compare keys sort them. *)

type 'a t

val create : int -> 'a t
(** [create n] is an empty table sized for [n] entries without
    growing. *)

val length : 'a t -> int

val find : 'a t -> int -> 'a
(** @raise Not_found if the key is absent. Allocates nothing. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any previous binding. *)

val remove : 'a t -> int -> unit
(** Unbind the key; no-op if absent. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** The table must not change during the iteration. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** The table must not change during the fold. *)
