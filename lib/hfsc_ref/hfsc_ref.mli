(** Reference H-FSC scheduler — the semantic oracle for the
    differential tests. Same API and, bit for bit, the same decisions
    as {!Hfsc}, but every selection is a linear scan with the paper's
    rule and the id tie-break written out; see
    lib/hfsc_ref/hfsc_ref.ml's header for why this copy exists. Its
    {!dequeue_into} copies the single-packet {!dequeue} into the same
    {!Pkt.Served} record, which {e defines} the outcome
    {!Hfsc.dequeue_into} must match. {!audit} checks the
    scheduler-level invariants only (membership flags, counters,
    deadline ordering, overflow); the oracle has no trees to
    validate. *)

include Hfsc.S
