(* The multicore router. Structure:

   - each worker domain owns one inbound SPSC ring of [msg] (posted
     packets naming their link's port, calls — closures run on a
     link's engine, dequeues among them — and the stop) and one
     reusable reply slot;
   - a worker loops: pop a message and serve it; on an empty ring,
     spin briefly and then park (essential on few-core hosts, where a
     spinning worker starves the producer);
   - each link is wrapped in a [port]: its engine, its worker
     (round-robin assignment) and its failure and refusal cells;
   - the control plane is {!Router_core} instantiated with ring-backed
     calls, so routing rules and reply strings are the sequential
     router's by construction.

   Determinism: each worker's ring is FIFO and each port has one owning
   worker, so a link's engine observes operations in exactly the
   producer's issue order — the sequential router's order. Calls block
   on the worker's reply slot, and the producer waits for each reply
   before it issues anything else, so one slot per worker is all the
   router needs. Enqueues never wait: each is posted, and what the
   worker refuses is added to the port's refusal count, read back by a
   call that queues behind every post. A deleted link needs no detach:
   its queued posts drain in FIFO order onto an engine nobody reads.

   Memory model notes: ring publication is the SPSC ring's
   release/acquire pair (see {!Ds.Spsc_ring}); the same pair hands a
   new link's engine to its worker with the link's first message, so a
   link needs no attach step. Replies and parking are {!Ds.Handoff}:
   the worker fills its reply slot with an SC [Atomic.set] after a
   call's closure stored its result, so the producer's take of the
   reply orders the result cell before its read; the worker parks on
   its parker and the producer wakes it after each push. Both rest on
   the Dekker argument written once in handoff.mli; both signal only
   after unlocking, and neither takes a lock while the other side is
   awake. *)

module Ring = Ds.Spsc_ring
module Handoff = Ds.Handoff

exception Injected_failure

(* what every link of a stopped router is latched down with *)
exception Stopped

(* --- ports, workers and messages ---------------------------------------- *)

(* a worker's input ring *)
let ring_capacity = 1024

type port = {
  p_eng : Engine.t; (* worker-owned until [stop] *)
  p_worker : worker;
  (* failure of a posted enqueue, set by the worker (first wins),
     observed by the producer on its next touch of this port *)
  p_fail : exn option Atomic.t;
  (* producer-side latch: once a failure is observed the link is down —
     every subsequent operation short-circuits to a degraded reply
     (typed [Link_failed], empty lists, zero counts) instead of raising
     into — and tearing down — whoever drives the router *)
  mutable p_down : exn option;
  (* packets refused by posted enqueues (one whose engine call raised
     included); written by the worker only *)
  p_refused : int Atomic.t;
}

and worker = {
  w_in : msg Ring.t;
  (* one call is in flight at most *)
  w_reply : unit Handoff.slot;
  w_parker : Handoff.parker;
  (* async failure, reported later; [Stopped] once the router stops *)
  w_poison : exn option Atomic.t;
  mutable w_domain : unit Domain.t option;
}

and msg =
  | M_nop (* ring dummy; never delivered *)
  | M_enqueue of { e_port : port; e_now : float; e_pkt : Pkt.Packet.t }
      (* never awaited *)
  | M_call of (unit -> unit) (* stores its result before the reply *)
  | M_stop (* the last message a worker serves *)

(* --- the worker domain -------------------------------------------------- *)

(* the worker is the count's only writer *)
let refuse p = Atomic.set p.p_refused (Atomic.get p.p_refused + 1)

let serve w msg =
  match msg with
  | M_nop | M_stop -> ()
  | M_enqueue { e_port = p; e_now; e_pkt } -> (
      match Engine.enqueue_flow p.p_eng ~now:e_now e_pkt with
      | true -> ()
      | false -> refuse p
      | exception e ->
          (* count the packet refused and park the failure on the port;
             the producer latches it into [p_down] on its next touch *)
          refuse p;
          if Atomic.get p.p_fail = None then Atomic.set p.p_fail (Some e))
  | M_call f -> (
      match f () with
      | () -> Handoff.fill w.w_reply ()
      | exception e -> Handoff.fail w.w_reply e)

let worker_body w =
  let has_work () = not (Ring.is_empty w.w_in) in
  let rec loop () =
    match Ring.try_pop w.w_in with
    | Some M_stop -> ()
    | Some m ->
        serve w m;
        loop ()
    | None ->
        (* brief spin for sub-microsecond turnaround, then park *)
        let spins = ref 0 in
        while !spins < 64 && not (has_work ()) do
          incr spins;
          Domain.cpu_relax ()
        done;
        Handoff.park w.w_parker ~has_work;
        loop ()
  in
  loop ()

(* [serve] contains every engine call behind a per-message catch, so
   this outer net only fires on something catastrophic (OOM, a broken
   ring invariant). It must not let the domain die silently: a dead
   worker's ring never drains, so every port it owned is marked
   unreachable via [w_poison] and the producer degrades those links
   instead of blocking forever. *)
let worker_run w =
  try worker_body w with e -> Atomic.set w.w_poison (Some e)

(* --- the producer side -------------------------------------------------- *)

let rec post w m =
  if Ring.try_push w.w_in m then Handoff.wake w.w_parker
  else begin
    (* ring full: the worker may be parked with a full ring only
       transiently; wake it and retry *)
    Handoff.wake w.w_parker;
    Domain.cpu_relax ();
    post w m
  end

(* Has this link failed? Checks the producer-side latch first, then
   failures parked by the worker ([p_fail]) and worker death
   ([w_poison], which downs every port that worker owned — its ring
   will never drain again), latching what it finds into [p_down] so
   the verdict is sticky. *)
let port_failure p =
  match p.p_down with
  | Some _ as e -> e
  | None -> (
      let e =
        match Atomic.get p.p_fail with
        | Some _ as e -> e
        | None -> Atomic.get p.p_worker.w_poison
      in
      match e with
      | Some _ ->
          p.p_down <- e;
          e
      | None -> None)

(* Run [f] on the link's engine, on its worker's domain: the closure
   stores its result in a cell before the worker fills its reply slot,
   and [Handoff.fill] makes that store visible once [await] returns.
   Graceful degradation: a downed link answers [down] without touching
   the ring, and a failure raised by [f] (the worker failing the reply)
   downs the link and answers [down] — never raising into the caller,
   so one poisoned link cannot tear down the daemon serving the
   others. *)
let call p ~down f =
  match port_failure p with
  | Some e -> down e
  | None -> (
      let w = p.p_worker in
      let cell = ref None in
      post w (M_call (fun () -> cell := Some (f p.p_eng)));
      match Handoff.await w.w_reply with
      | () -> Option.get !cell
      | exception e ->
          p.p_down <- Some e;
          down e)

(* --- the data path: the simulator adapter ------------------------------ *)

(* [false] when the link is down (nothing was posted) *)
let post_enqueue p ~now pkt =
  match port_failure p with
  | Some _ -> false
  | None ->
      post p.p_worker (M_enqueue { e_port = p; e_now = now; e_pkt = pkt });
      true

let port_adapter p backend =
  (* the engine's sequential adapter, run only on the worker: a dequeue
     is one call of its [dequeue], so the class name is resolved there *)
  let seq = Engine.adapter p.p_eng in
  {
    Sched.Scheduler.name = Backend.kind_name backend;
    enqueue = (fun ~now pkt -> post_enqueue p ~now pkt);
    dequeue =
      (fun ~now ->
        call p ~down:(fun _ -> None) (fun _ ->
            seq.Sched.Scheduler.dequeue ~now));
    dequeue_many = None;
    next_ready =
      (fun ~now ->
        call p ~down:(fun _ -> None) (fun eng ->
            Engine.next_ready_time eng ~now));
    backlog_pkts = (fun () -> call p ~down:(fun _ -> 0) Engine.backlog_pkts);
    backlog_bytes = (fun () -> call p ~down:(fun _ -> 0) Engine.backlog_bytes);
    (* a downed link — every link of a stopped router among them — is
       not asked (its worker may be gone): the count is read as
       published *)
    deferred_drops =
      Some
        (fun () ->
          let refused _ = Atomic.get p.p_refused in
          call p ~down:refused refused);
  }

type t = {
  core : port Router_core.t;
  workers : worker array;
  mutable running : bool;
}

(* Spawn the workers; the links built later are assigned to them
   round-robin. *)
let create ?trace_capacity ?tracing ?audit_every ~domains () =
  if domains < 1 then invalid_arg "Mc_router.create: domains must be >= 1";
  let workers =
    Array.init domains (fun _ ->
        {
          w_in = Ring.create ~capacity:ring_capacity ~dummy:M_nop;
          w_reply = Handoff.slot ();
          w_parker = Handoff.parker ();
          w_poison = Atomic.make None;
          w_domain = None;
        })
  in
  Array.iter
    (fun w -> w.w_domain <- Some (Domain.spawn (fun () -> worker_run w)))
    workers;
  let next = ref 0 in
  (* a port for a freshly built engine; its first message publishes
     the engine to the worker. A stopped or dead worker downs it at
     once through [port_failure]. *)
  let port eng =
    let w = workers.(!next mod domains) in
    incr next;
    {
      p_eng = eng;
      p_worker = w;
      p_fail = Atomic.make None;
      p_down = None;
      p_refused = Atomic.make 0;
    }
  in
  {
    core =
      Router_core.create ?trace_capacity ?tracing ?audit_every
        ~ops:{ Router_core.call; adapter = port_adapter } ~port ();
    workers;
    running = true;
  }

let core t = t.core
let add_link ?(backend = Backend.Hfsc_kind) t ~name ~link_rate =
  Router_core.add_link t.core ~name ~link_rate ~backend
let link_names t = List.map fst t.core.Router_core.links
let link_count t = Router_core.link_count t.core
let link_of_flow t flow = Router_core.link_of_flow t.core flow
let exec t ~now cmd = Router_core.exec t.core ~now cmd
let audit t = Router_core.audit t.core

let adapter t ~link =
  Option.map
    (fun p -> port_adapter p (snd (Router_core.spec t.core link)))
    (Router_core.find_link t.core link)

let snapshot t ~link =
  match Router_core.find_link t.core link with
  | None -> None
  | Some p ->
      call p ~down:(fun _ -> None) (fun eng -> Some (Engine.snapshot eng))

(* --- fault injection & health ------------------------------------------- *)

let link_down t ~link =
  match Router_core.find_link t.core link with
  | None -> None
  | Some p -> Option.map Printexc.to_string (port_failure p)

let inject_failure t ~link =
  match Router_core.find_link t.core link with
  | None -> false
  | Some p ->
      (* the call raises on the worker, so the ordinary failure path — a
         failed reply, producer latch — is what downs the link *)
      call p ~down:ignore (fun _ -> raise Injected_failure);
      true

(* --- exporters ---------------------------------------------------------- *)

let stats_json t = Router_core.stats_json t.core
let stats_text t = Router_core.stats_text t.core
let checkpoint t = Router_core.checkpoint t.core
let config_fingerprint t = Router_core.config_fingerprint t.core

let stop t =
  if t.running then begin
    t.running <- false;
    (* a dead worker's ring never drains: post it nothing *)
    Array.iter
      (fun w -> if Atomic.get w.w_poison = None then post w M_stop)
      t.workers;
    Array.iter
      (fun w ->
        Option.iter Domain.join w.w_domain;
        w.w_domain <- None)
      t.workers;
    (* a worker that died catastrophically reports it now; so does a
       posted enqueue's failure the producer never observed (one it DID
       observe was already surfaced as a typed [Link_failed] reply and
       must not resurface as an exception at teardown) *)
    let unobserved =
      match Array.find_map (fun w -> Atomic.get w.w_poison) t.workers with
      | Some _ as e -> e
      | None ->
          List.find_map
            (fun (_, p) ->
              if p.p_down = None then Atomic.get p.p_fail else None)
            t.core.Router_core.links
    in
    (* no worker is left to serve a port: every link, and any link
       added from now on, is down, so later calls take the degraded
       answers instead of waiting on a ring nobody drains *)
    Array.iter (fun w -> Atomic.set w.w_poison (Some Stopped)) t.workers;
    Option.iter raise unobserved
  end;
  List.map (fun (name, p) -> (name, p.p_eng)) t.core.Router_core.links

(* A refused configuration stops the workers it spawned before the
   refusal is reported, so a caller that retries leaks no domain. *)
let of_config ?trace_capacity ?tracing ?audit_every ~domains cfg =
  let t = create ?trace_capacity ?tracing ?audit_every ~domains () in
  match Router_core.of_config t.core cfg with
  | Ok warnings -> Ok (t, warnings)
  | Error e ->
      ignore (stop t);
      Error e
