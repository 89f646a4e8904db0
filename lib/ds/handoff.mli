(** Blocking hand-off between two domains: a reusable reply slot and a
    parker.

    The multicore router's one synchronisation primitive besides
    {!Spsc_ring}. Both halves pair an SC atomic, which carries the fast
    path, with a [Mutex] and a [Condition] that are touched only when a
    side actually sleeps. The lost-wakeup argument is the same for both
    and is written here once:

    - {b Dekker.} The sleeper publishes that it is about to sleep (an
      [Atomic.set]) and then re-checks for its wake-up condition; the
      waker publishes the condition and then reads the sleeper's flag.
      OCaml's atomics are sequentially consistent, so at least one of
      the two reads sees the other side's write: either the sleeper's
      re-check finds the condition and it never sleeps, or the waker
      sees the flag and signals.
    - {b Lock, then signal after unlock.} A waker that saw the flag
      takes and releases the mutex before it signals. The sleeper
      re-checks its condition under that mutex and
      [Condition.wait] releases it atomically, so the waker's critical
      section runs either before the re-check (which then sees the
      condition) or after the sleeper is queued on the condition
      variable (which the signal then wakes). Signalling after the
      unlock keeps the woken side from running straight into a mutex
      its waker still holds; on a host where both share one CPU, that
      would add a context switch per hand-off.

    {b Ownership.} A slot has one filler and one awaiter, and at most
    one value in flight: the next {!fill} comes only after {!await}
    returned the previous value. A parker has one parking domain and
    one waking domain. Any other use is undefined. *)

(** {2 Reply slot} *)

type 'a slot

val slot : unit -> 'a slot
(** An empty slot. *)

val fill : 'a slot -> 'a -> unit
(** Filler side: publish a value. It takes the mutex and signals only
    if the awaiter has announced that it sleeps. Everything the filler
    wrote before the call is visible to the awaiter once {!await}
    returns (the value is published by an SC [Atomic.set]). *)

val fail : 'a slot -> exn -> unit
(** Filler side: as {!fill}, but {!await} raises the exception. *)

val await : 'a slot -> 'a
(** Awaiter side: take the value, leaving the slot empty for the next
    one. A value already there is taken without the lock. Otherwise the
    awaiter announces it sleeps, re-checks the slot under the mutex and
    waits.

    @raise e if the filler called [fail slot e]. *)

(** {2 Parker} *)

type parker

val parker : unit -> parker
(** A parker nobody sleeps on. *)

val park : parker -> has_work:(unit -> bool) -> unit
(** Parking side: return once [has_work ()] holds or a {!wake} arrived
    (a wake that arrived while nobody slept may make one later [park]
    return at once). [has_work] must read, through atomics, whatever the
    waking side publishes before its {!wake}. *)

val wake : parker -> unit
(** Waking side, after publishing work: if the other side is parked or
    about to park, wake it. When nobody parks this is one atomic
    read. *)
