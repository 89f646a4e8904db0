(** The Hierarchical Fair Service Curve scheduler (Sections IV and V).

    One [t] schedules one link. Classes form a tree rooted at {!root};
    packets are enqueued at leaf classes and dequeued by the link. Two
    criteria drive dequeueing:

    - the {e real-time criterion} — among leaves whose eligible time has
      arrived, serve the smallest deadline; it alone guarantees every
      leaf's real-time service curve to within one maximum-size packet
      (Theorems 1–2);
    - the {e link-sharing criterion} — otherwise, descend from the root
      picking the active child with the smallest virtual time; it
      distributes all remaining capacity according to the fair service
      curve model, without ever punishing a class for excess service it
      received earlier (link-sharing service does not advance the
      deadline curve).

    The implementation mirrors the authors' BSD code: all curves are
    two-piece linear with O(1) updates (Fig. 8); the eligible set is an
    augmented tree giving O(log n) min-deadline-among-eligible; each
    interior class keeps its active children in a virtual-time tree
    giving O(log n) smallest-vt-that-fits.

    Time is the caller's wall clock, passed to every operation as [~now]
    in seconds and required to be nondecreasing across calls. *)

module type S = Hfsc_intf.S
(** The whole interface but {!table}, documented in hfsc_intf.mli: what
    the oracle {!Hfsc_ref} implements too. *)

include S

val table : t -> cls Ds.Class_table.t
(** The scheduler's class table, for a caller that reads classes by id
    ({!Runtime.Backend}). Read it only: every change goes through the
    functions above. *)
