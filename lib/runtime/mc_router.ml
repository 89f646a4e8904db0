(* The multicore router. Structure:

   - each worker domain has one turn: a mutex, two conditions, a
     request cell, a reply cell, and the FIFO of packets posted to its
     links and not yet applied;
   - a posted packet is appended to its worker's FIFO without a lock,
     and the producer returns at once; every other engine access — a
     dequeue too — is one call: the producer hands the worker a
     closure and waits for the reply;
   - a worker waits for a request, applies every pending post in
     order, runs the call, replies, and waits again;
   - each link is wrapped in a [port]: its engine, its worker
     (round-robin assignment) and its failure and refusal cells;
   - the control plane is {!Router_core} instantiated with these calls,
     so routing rules and reply strings are the sequential router's by
     construction.

   Determinism: a worker applies its FIFO before each call, and each
   port has one owning worker, so a link's engine observes operations
   in exactly the producer's issue order — the sequential router's
   order. What the worker refuses is added to the port's refusal
   count, read back by a call, which applies every earlier post first.
   A deleted link needs no detach: its pending posts are applied in
   FIFO order onto an engine nobody reads.

   The turn is a monitor. Every wait loops on its predicate under
   [w_m]; every predicate changes under [w_m] and is signalled after
   the unlock, so no wakeup is lost. The producer waits for the reply
   of every request it hands over, so producer and worker never run at
   the same time: the FIFO, the engines and the port cells belong to
   whichever side holds the turn, and the mutex orders each hand-over.
   The same hand-over publishes a new link's engine to its worker, so
   a link needs no attach step. *)

exception Injected_failure

(* what every link of a stopped router is latched down with *)
exception Stopped

(* --- ports, workers and turns ------------------------------------------- *)

(* posts a worker's FIFO holds before the producer forces a flush *)
let pending_capacity = 1024

type port = {
  p_eng : Engine.t; (* worker-owned until [stop] *)
  p_worker : worker;
  (* failure of a posted enqueue, set by the worker (first wins),
     observed by the producer on its next touch of this port *)
  mutable p_fail : exn option;
  (* producer-side latch: once a failure is observed the link is down —
     every subsequent operation short-circuits to a degraded reply
     (typed [Link_failed], empty lists, zero counts) instead of raising
     into — and tearing down — whoever drives the router *)
  mutable p_down : exn option;
  (* packets refused by posted enqueues (one whose engine call raised
     included); written by the worker only *)
  mutable p_refused : int;
}

and worker = {
  w_m : Mutex.t;
  w_work : Condition.t; (* [w_req] is no longer [No_req] *)
  w_done : Condition.t; (* [w_reply] is no longer [Waiting] *)
  mutable w_req : req;
  mutable w_reply : reply;
  w_pending : posted Queue.t; (* posts not yet applied, oldest first *)
  (* why the worker died, set under [w_m]; [Stopped] once the router
     stops. Read without the lock on every post. *)
  w_poison : exn option Atomic.t;
  mutable w_domain : unit Domain.t option;
}

and posted = { port : port; now : float; pkt : Pkt.Packet.t }

and req =
  | No_req
  | Call of (unit -> unit) (* stores its result before the reply *)
  | Stop (* the last request a worker takes *)

and reply = Waiting | Done | Failed of exn

(* --- the worker domain -------------------------------------------------- *)

(* the worker is the count's only writer *)
let refuse p = p.p_refused <- p.p_refused + 1

let apply { port = p; now; pkt } =
  match Engine.enqueue_flow p.p_eng ~now pkt with
  | true -> ()
  | false -> refuse p
  | exception e ->
      (* count the packet refused and record the failure on the port;
         the producer latches it into [p_down] on its next touch *)
      refuse p;
      if p.p_fail = None then p.p_fail <- Some e

let reply w r =
  Mutex.lock w.w_m;
  w.w_reply <- r;
  Mutex.unlock w.w_m;
  Condition.signal w.w_done

let rec worker_body w =
  Mutex.lock w.w_m;
  while w.w_req == No_req do
    Condition.wait w.w_work w.w_m
  done;
  let req = w.w_req in
  w.w_req <- No_req;
  Mutex.unlock w.w_m;
  while not (Queue.is_empty w.w_pending) do
    apply (Queue.pop w.w_pending)
  done;
  match req with
  | Call f ->
      reply w (match f () with () -> Done | exception e -> Failed e);
      worker_body w
  | Stop | No_req -> ()

(* [apply] and [Call] catch every engine exception, so this net only
   fires on something catastrophic (OOM, a stack overflow), never while
   the body holds [w_m]. A dead worker takes no more turns: it poisons
   itself, which downs every port it owned, and fails the reply of the
   turn it held, so a producer waiting in [call] latches the link down
   instead of blocking. *)
let worker_run w =
  try worker_body w
  with e ->
    Mutex.lock w.w_m;
    Atomic.set w.w_poison (Some e);
    w.w_reply <- Failed e;
    Mutex.unlock w.w_m;
    Condition.signal w.w_done

(* --- the producer side -------------------------------------------------- *)

(* Hand the worker the turn. A dead worker takes none: its turn fails
   at once, even if it died after the caller last looked. *)
let hand w req =
  Mutex.lock w.w_m;
  (match Atomic.get w.w_poison with
  | None ->
      w.w_req <- req;
      w.w_reply <- Waiting
  | Some e -> w.w_reply <- Failed e);
  Mutex.unlock w.w_m;
  Condition.signal w.w_work

(* Wait for the turn back: [Some e] if it failed with [e]. *)
let await w =
  Mutex.lock w.w_m;
  while w.w_reply == Waiting do
    Condition.wait w.w_done w.w_m
  done;
  let r = w.w_reply in
  Mutex.unlock w.w_m;
  match r with Failed e -> Some e | Waiting | Done -> None

(* Has this link failed? Checks the producer-side latch first, then
   failures recorded by the worker ([p_fail]) and worker death
   ([w_poison], which downs every port that worker owned — it takes no
   more turns), latching what it finds into [p_down] so the verdict is
   sticky. *)
let port_failure p =
  match p.p_down with
  | Some _ as e -> e
  | None -> (
      let e =
        match p.p_fail with
        | Some _ as e -> e
        | None -> Atomic.get p.p_worker.w_poison
      in
      match e with
      | Some _ ->
          p.p_down <- e;
          e
      | None -> None)

(* Run [f] on the link's engine, on its worker's domain, after every
   pending post: the closure stores its result in a cell before the
   worker replies, and the reply, taken under [w_m], orders that store
   before the read. Graceful degradation: a downed link answers [down]
   without a turn, and a failure raised by [f] (or the worker's death)
   downs the link and answers [down] — never raising into the caller,
   so one poisoned link cannot tear down the daemon serving the
   others. *)
let call p ~down f =
  match port_failure p with
  | Some e -> down e
  | None -> (
      let w = p.p_worker in
      let cell = ref None in
      hand w (Call (fun () -> cell := Some (f p.p_eng)));
      match await w with
      | None -> Option.get !cell
      | Some e ->
          p.p_down <- Some e;
          down e)

(* --- the data path: the simulator adapter ------------------------------ *)

(* [false] when the link is down (nothing was posted). A full FIFO is
   flushed by an empty call, which also charges each refusal to its
   posting port. *)
let post_enqueue p ~now pkt =
  match port_failure p with
  | Some _ -> false
  | None ->
      let q = p.p_worker.w_pending in
      Queue.push { port = p; now; pkt } q;
      if Queue.length q >= pending_capacity then call p ~down:ignore ignore;
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
          let refused _ = p.p_refused in
          call p ~down:refused refused);
  }

type t = {
  core : port Router_core.t;
  workers : worker array;
  mutable running : bool;
}

(* Spawn the workers; the links built later are assigned to them
   round-robin. *)
let create ?trace_capacity ?audit_every ~domains () =
  if domains < 1 then invalid_arg "Mc_router.create: domains must be >= 1";
  let workers =
    Array.init domains (fun _ ->
        {
          w_m = Mutex.create ();
          w_work = Condition.create ();
          w_done = Condition.create ();
          w_req = No_req;
          w_reply = Done;
          w_pending = Queue.create ();
          w_poison = Atomic.make None;
          w_domain = None;
        })
  in
  Array.iter
    (fun w -> w.w_domain <- Some (Domain.spawn (fun () -> worker_run w)))
    workers;
  let next = ref 0 in
  (* a port for a freshly built engine; its first turn publishes the
     engine to the worker. A stopped or dead worker downs it at once
     through [port_failure]. *)
  let port eng =
    let w = workers.(!next mod domains) in
    incr next;
    { p_eng = eng; p_worker = w; p_fail = None; p_down = None; p_refused = 0 }
  in
  {
    core =
      Router_core.create ?trace_capacity ?audit_every
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
    (* each live worker applies its pending posts and exits; [hand]
       gives a dead one nothing *)
    Array.iter (fun w -> hand w Stop) t.workers;
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
            (fun (_, p) -> if p.p_down = None then p.p_fail else None)
            t.core.Router_core.links
    in
    (* no worker is left to serve a port: every link, and any link
       added from now on, is down, so later calls take the degraded
       answers instead of handing a turn nobody takes *)
    Array.iter (fun w -> Atomic.set w.w_poison (Some Stopped)) t.workers;
    Option.iter raise unobserved
  end;
  List.map (fun (name, p) -> (name, p.p_eng)) t.core.Router_core.links
