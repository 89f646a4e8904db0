(** E7 — the measurement experiment: per-packet enqueue/dequeue
    overhead of H-FSC versus the number of classes (the overhead table
    of Section VII; Section V predicts O(log n)), plus the same loop
    over the hierarchical round-robin backend ({!Sched.Hls}) out to a
    million classes — the comparison arXiv:2108.09864 makes.

    Timing is plain CPU-time loop timing: 200 k enqueues filling the
    leaves round-robin from empty, then 200 k dequeues draining them. *)

type row = {
  classes : int;
  enqueue_ns : float;  (** mean ns per enqueue *)
  dequeue_ns : float;  (** mean ns per dequeue *)
}

type result = {
  rows : row list;
  depth_rows : row list;
  backend_rows : (string * row) list;
}
(** [rows]: flat hierarchies of n = 1, 10, 100 and 1000 leaves with
    an rsc+fsc of [link/n] each; [depth_rows]: binary hierarchies of
    the same leaf counts from 10 up, to
    show depth-independence of the per-packet cost; [backend_rows]:
    ["rr"] at 10k/100k/1M classes and ["hfsc"] at 10k/100k, both built
    as fsc-only leaves under interior aggregates of 1000 leaves. *)

val run : unit -> result

val print : result -> unit
