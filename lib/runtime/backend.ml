module Sc = Curve.Service_curve
module Pw = Curve.Piecewise
module Hls = Sched.Hls

(* --- typed errors (moved here from Engine so every backend speaks
   the same refusal language) ----------------------------------------- *)

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

let error_code e = e.code
let error_message e = e.message

let error_code_name = function
  | Parse_error -> "parse-error"
  | Unknown_class -> "unknown-class"
  | Duplicate_class -> "duplicate-class"
  | Unknown_flow -> "unknown-flow"
  | Duplicate_flow -> "duplicate-flow"
  | Admission_realtime -> "admission-realtime"
  | Admission_linkshare -> "admission-linkshare"
  | Admission_ulimit -> "admission-ulimit"
  | Class_active -> "class-active"
  | Structural -> "structural"
  | Bad_value -> "bad-value"
  | Unknown_link -> "unknown-link"
  | Duplicate_link -> "duplicate-link"
  | Cross_link_filter -> "cross-link-filter"
  | Link_failed -> "link-failed"

let parse_error message = { code = Parse_error; message }
let errf code fmt = Printf.ksprintf (fun message -> Error { code; message }) fmt

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Classify an [Invalid_argument] raised by the scheduler: refusals
   about live/backlogged classes are transient (retry once the class
   drains), bad numeric arguments are the caller's fault, the rest are
   structural (wrong place in the hierarchy). *)
let of_invalid message =
  let code =
    if contains message "active" || contains message "queued" then Class_active
    else if contains message "positive" then Bad_value
    else Structural
  in
  Error { code; message }

(* --- the backend surface -------------------------------------------- *)

type kind = Hfsc_kind | Rr_kind

let kind_name = function Hfsc_kind -> "hfsc" | Rr_kind -> "rr"

type params = {
  rsc : Sc.t option;
  fsc : Sc.t option;
  usc : Sc.t option;
  quantum : int option;
}

(* Parallel result arrays for the batched dequeue, filled in place by
   [deq_fill] — copies of the underlying scheduler's own batch so one
   shape serves every backend. A drained packet costs zero words. *)
type batch = {
  bb_pkts : Pkt.Packet.t array;
  bb_ids : int array;
  bb_rt : bool array;
  mutable bb_count : int;
}

let dummy_pkt = Pkt.Packet.make ~flow:0 ~size:1 ~seq:0 ~arrival:0.

let batch ?(capacity = 64) () =
  if capacity <= 0 then invalid_arg "Backend.batch: capacity must be positive";
  {
    bb_pkts = Array.make capacity dummy_pkt;
    bb_ids = Array.make capacity 0;
    bb_rt = Array.make capacity false;
    bb_count = 0;
  }

let batch_capacity b = Array.length b.bb_pkts
let batch_count b = b.bb_count

let check_idx b i =
  if i < 0 || i >= b.bb_count then invalid_arg "Backend.batch: index out of range"

let batch_pkt b i =
  check_idx b i;
  Array.unsafe_get b.bb_pkts i

let batch_id b i =
  check_idx b i;
  Array.unsafe_get b.bb_ids i

let batch_realtime b i =
  check_idx b i;
  Array.unsafe_get b.bb_rt i

(* Out-params of the last successful single [dequeue] — instance-held
   so the hot path never allocates an option on the backend boundary. *)
type out = {
  mutable o_pkt : Pkt.Packet.t;
  mutable o_id : int;
  mutable o_rt : bool;
}

type t = {
  kind : kind;
  link_rate : float;
  raw_hfsc : Hfsc.t option;
  out : out;
  (* views; class handles are the scheduler's dense ids *)
  class_ids : unit -> int list;
  find_id : string -> int option;
  cls_name : int -> string;
  parent_id : int -> int option;
  is_leaf : int -> bool;
  rsc : int -> Sc.t option;
  fsc : int -> Sc.t option;
  usc : int -> Sc.t option;
  quantum : int -> int option;
  queue_length : int -> int;
  queue_bytes : int -> int;
  queue_limit_pkts : int -> int;
  queue_limit_bytes : int -> int;
  (* admission + mutation *)
  admit_add : parent:int -> name:string -> params -> (unit, error) result;
  admit_modify : id:int -> name:string -> params -> (unit, error) result;
  add_class :
    parent:int ->
    name:string ->
    params ->
    qlimit:int option ->
    qbytes:int option ->
    (int, error) result;
  modify_class :
    id:int ->
    params ->
    qlimit:int option ->
    qbytes:int option ->
    (unit, error) result;
  remove_class : id:int -> (unit, error) result;
  (* aggregate bound + drop policy *)
  set_aggregate : pkts:int option -> bytes:int option -> unit;
  aggregate_pkts : unit -> int;
  aggregate_bytes : unit -> int;
  set_policy : Hfsc.drop_policy -> unit;
  policy : unit -> Hfsc.drop_policy;
  set_drop_hook : (float -> int -> Pkt.Packet.t -> unit) -> unit;
  (* the data path *)
  enqueue : now:float -> int -> Pkt.Packet.t -> bool;
  dequeue : now:float -> bool;
  deq_fill : now:float -> batch -> int;
  next_ready : now:float -> float option;
  backlog_pkts : unit -> int;
  backlog_bytes : unit -> int;
  audit : unit -> string list;
}

let dead_class op = Printf.sprintf "Backend.%s: unknown class id" op

(* --- H-FSC over the record ------------------------------------------ *)

let pp_violation ~what (at, demand, capacity) =
  if Float.is_finite at then
    Printf.sprintf
      "%s infeasible at breakpoint t=%.6gs: demand %.0f B > capacity %.0f B"
      what at demand capacity
  else
    Printf.sprintf
      "%s infeasible asymptotically: demand rate %.0f B/s > capacity %.0f B/s"
      what demand capacity

let of_hfsc ~link_rate sched =
  (* dense id -> class; ids are never reused so the array only grows *)
  let byid = ref (Array.make 16 None) in
  let put cls =
    let id = Hfsc.id cls in
    let n = Array.length !byid in
    if id >= n then begin
      let bigger = Array.make (max (id + 1) (2 * n)) None in
      Array.blit !byid 0 bigger 0 n;
      byid := bigger
    end;
    !byid.(id) <- Some cls
  in
  List.iter put (Hfsc.classes sched);
  let get op id =
    if id < 0 || id >= Array.length !byid then invalid_arg (dead_class op)
    else
      match Array.unsafe_get !byid id with
      | Some c -> c
      | None -> invalid_arg (dead_class op)
  in
  (* Sum of all leaves' rsc with [replace] swapped in for [target] (or
     appended when [target] is None) must fit under the link curve. *)
  let check_rsc ~target ~replace =
    let curves =
      List.filter_map
        (fun c ->
          match target with
          | Some tc when tc == c -> replace
          | _ -> if Hfsc.is_leaf c then Hfsc.rsc c else None)
        (Hfsc.classes sched)
    in
    let curves =
      match target with
      | None -> Option.to_list replace @ curves
      | Some _ -> curves
    in
    match
      Analysis.Admission.violating_breakpoint
        ~capacity:(Pw.linear ~slope:link_rate) curves
    with
    | None -> Ok ()
    | Some v ->
        errf Admission_realtime "%s"
          (pp_violation ~what:"real-time guarantees" v)
  in
  (* Children's fsc under [parent] — with [replace] for [target], or
     appended as a prospective new child — must fit under the parent's
     own fsc. A parent with no fsc of its own constrains nothing. *)
  let check_fsc_under ~parent ~target ~replace =
    match Hfsc.fsc parent with
    | None -> Ok ()
    | Some pfsc -> (
        let curves =
          List.filter_map
            (fun c ->
              match target with
              | Some tc when tc == c -> replace
              | _ -> Hfsc.fsc c)
            (Hfsc.children parent)
        in
        let curves =
          match target with
          | None -> Option.to_list replace @ curves
          | Some _ -> curves
        in
        match
          Analysis.Admission.violating_breakpoint
            ~capacity:(Pw.of_service_curve pfsc) curves
        with
        | None -> Ok ()
        | Some v ->
            errf Admission_linkshare "%s"
              (pp_violation
                 ~what:
                   (Printf.sprintf "link-sharing under class %S"
                      (Hfsc.name parent))
                 v))
  in
  (* An upper-limit curve below the class's own rsc would let the
     real-time criterion promise service the ulimit then forbids. *)
  let check_usc ~name ~rsc ~usc =
    match (rsc, usc) with
    | Some rsc, Some usc -> (
        match Analysis.Admission.usc_violating_breakpoint ~rsc ~usc with
        | None -> Ok ()
        | Some v ->
            errf Admission_ulimit "%s"
              (pp_violation
                 ~what:
                   (Printf.sprintf "upper limit of class %S against its rsc"
                      name)
                 v))
    | _ -> Ok ()
  in
  let ( let* ) = Result.bind in
  let admit_add ~parent ~name (p : params) =
    let* () =
      match p.quantum with
      | Some _ ->
          errf Bad_value
            "class %S: quantum applies to rr-backend links (hfsc classes \
             take curves)"
            name
      | None -> Ok ()
    in
    let parent_cls = get "admit_add" parent in
    let* () =
      match p.rsc with
      | Some _ -> check_rsc ~target:None ~replace:p.rsc
      | None -> Ok ()
    in
    (* Hfsc.add_class defaults a missing fsc to the rsc; admission must
       judge the same effective curve *)
    let eff_fsc = match p.fsc with Some _ as f -> f | None -> p.rsc in
    let* () = check_fsc_under ~parent:parent_cls ~target:None ~replace:eff_fsc in
    check_usc ~name ~rsc:p.rsc ~usc:p.usc
  in
  let admit_modify ~id ~name (p : params) =
    let* () =
      match p.quantum with
      | Some _ ->
          errf Bad_value
            "class %S: quantum applies to rr-backend links (hfsc classes \
             take curves)"
            name
      | None -> Ok ()
    in
    let cls = get "admit_modify" id in
    let* () =
      match p.rsc with
      | Some _ -> check_rsc ~target:(Some cls) ~replace:p.rsc
      | None -> Ok ()
    in
    let* () =
      match (p.fsc, Hfsc.parent cls) with
      | Some _, Some par ->
          check_fsc_under ~parent:par ~target:(Some cls) ~replace:p.fsc
      | _ -> Ok ()
    in
    (* an interior class's new fsc must still cover its own children *)
    let* () =
      match p.fsc with
      | Some nfsc when not (Hfsc.is_leaf cls) -> (
          match
            Analysis.Admission.violating_breakpoint
              ~capacity:(Pw.of_service_curve nfsc)
              (List.filter_map Hfsc.fsc (Hfsc.children cls))
          with
          | None -> Ok ()
          | Some v ->
              errf Admission_linkshare "%s"
                (pp_violation
                   ~what:
                     (Printf.sprintf "children of class %S against its new fsc"
                        name)
                   v))
      | _ -> Ok ()
    in
    let eff_rsc = match p.rsc with Some _ as r -> r | None -> Hfsc.rsc cls in
    let eff_usc = match p.usc with Some _ as u -> u | None -> Hfsc.usc cls in
    check_usc ~name ~rsc:eff_rsc ~usc:eff_usc
  in
  let add_class ~parent ~name (p : params) ~qlimit ~qbytes =
    let parent_cls = get "add_class" parent in
    match
      Hfsc.add_class sched ~parent:parent_cls ~name ?rsc:p.rsc ?fsc:p.fsc
        ?usc:p.usc ?qlimit ?qlimit_bytes:qbytes ()
    with
    | cls ->
        put cls;
        Ok (Hfsc.id cls)
    | exception Invalid_argument e -> of_invalid e
  in
  let modify_class ~id (p : params) ~qlimit ~qbytes =
    let cls = get "modify_class" id in
    (* apply transactionally: set_curves validates part-way through its
       mutations (e.g. the class going curveless), so roll the class
       back to the snapshot on any refusal *)
    let snap = Hfsc.snapshot_class cls in
    try
      if p.rsc <> None || p.fsc <> None || p.usc <> None then
        Hfsc.set_curves sched cls ?rsc:p.rsc ?fsc:p.fsc ?usc:p.usc ();
      (match (qlimit, qbytes) with
      | None, None -> ()
      | _ -> Hfsc.set_class_limits sched cls ?pkts:qlimit ?bytes:qbytes ());
      Ok ()
    with Invalid_argument e ->
      Hfsc.restore_class cls snap;
      of_invalid e
  in
  let remove_class ~id =
    let cls = get "remove_class" id in
    match Hfsc.remove_class sched cls with
    | () ->
        !byid.(id) <- None;
        Ok ()
    | exception Invalid_argument e -> of_invalid e
  in
  (* the underlying native batch, resized when the caller's grows *)
  let hb = ref (Hfsc.batch ~capacity:1 ()) in
  let deq_fill ~now b =
    let cap = batch_capacity b in
    if Hfsc.batch_capacity !hb <> cap then hb := Hfsc.batch ~capacity:cap ();
    let n = Hfsc.dequeue_batch sched ~now !hb in
    for i = 0 to n - 1 do
      Array.unsafe_set b.bb_pkts i (Hfsc.batch_pkt !hb i);
      Array.unsafe_set b.bb_ids i (Hfsc.id (Hfsc.batch_cls !hb i));
      Array.unsafe_set b.bb_rt i
        (match Hfsc.batch_crit !hb i with
        | Hfsc.Realtime -> true
        | Hfsc.Linkshare -> false)
    done;
    b.bb_count <- n;
    n
  in
  let out = { o_pkt = dummy_pkt; o_id = 0; o_rt = false } in
  (* single dequeue rides a held one-slot native batch: the option tuple
     [Hfsc.dequeue] would allocate is the only allocation the interface
     may add, and the engine already pays it for its own result *)
  let one = Hfsc.batch ~capacity:1 () in
  let dequeue ~now =
    if Hfsc.dequeue_batch sched ~now one = 0 then false
    else begin
      out.o_pkt <- Hfsc.batch_pkt one 0;
      out.o_id <- Hfsc.id (Hfsc.batch_cls one 0);
      out.o_rt <-
        (match Hfsc.batch_crit one 0 with
        | Hfsc.Realtime -> true
        | Hfsc.Linkshare -> false);
      true
    end
  in
  {
    kind = Hfsc_kind;
    link_rate;
    raw_hfsc = Some sched;
    out;
    class_ids = (fun () -> List.map Hfsc.id (Hfsc.classes sched));
    find_id =
      (fun name -> Option.map Hfsc.id (Hfsc.find_class sched name));
    cls_name = (fun id -> Hfsc.name (get "cls_name" id));
    parent_id =
      (fun id -> Option.map Hfsc.id (Hfsc.parent (get "parent_id" id)));
    is_leaf = (fun id -> Hfsc.is_leaf (get "is_leaf" id));
    rsc = (fun id -> Hfsc.rsc (get "rsc" id));
    fsc = (fun id -> Hfsc.fsc (get "fsc" id));
    usc = (fun id -> Hfsc.usc (get "usc" id));
    quantum = (fun _ -> None);
    queue_length = (fun id -> Hfsc.queue_length (get "queue_length" id));
    queue_bytes = (fun id -> Hfsc.queue_bytes (get "queue_bytes" id));
    queue_limit_pkts =
      (fun id -> Hfsc.queue_limit_pkts (get "queue_limit_pkts" id));
    queue_limit_bytes =
      (fun id -> Hfsc.queue_limit_bytes (get "queue_limit_bytes" id));
    admit_add;
    admit_modify;
    add_class;
    modify_class;
    remove_class;
    set_aggregate =
      (fun ~pkts ~bytes -> Hfsc.set_aggregate_limit sched ?pkts ?bytes ());
    aggregate_pkts = (fun () -> Hfsc.aggregate_limit_pkts sched);
    aggregate_bytes = (fun () -> Hfsc.aggregate_limit_bytes sched);
    set_policy = (fun p -> Hfsc.set_drop_policy sched p);
    policy = (fun () -> Hfsc.drop_policy sched);
    set_drop_hook =
      (fun hook ->
        Hfsc.set_drop_hook sched (fun now cls pkt -> hook now (Hfsc.id cls) pkt));
    enqueue =
      (fun ~now id pkt ->
        match !byid.(id) with
        | Some cls -> Hfsc.enqueue sched ~now cls pkt
        | None -> invalid_arg (dead_class "enqueue"));
    dequeue;
    deq_fill;
    next_ready = (fun ~now -> Hfsc.next_ready_time sched ~now);
    backlog_pkts = (fun () -> Hfsc.backlog_pkts sched);
    backlog_bytes = (fun () -> Hfsc.backlog_bytes sched);
    audit = (fun () -> Hfsc.audit sched);
  }

(* --- hierarchical round-robin over the record ------------------------ *)

let of_hls ~link_rate sched =
  let byid = ref (Array.make 16 None) in
  let put cls =
    let id = Hls.id cls in
    let n = Array.length !byid in
    if id >= n then begin
      let bigger = Array.make (max (id + 1) (2 * n)) None in
      Array.blit !byid 0 bigger 0 n;
      byid := bigger
    end;
    !byid.(id) <- Some cls
  in
  List.iter put (Hls.classes sched);
  let get op id =
    if id < 0 || id >= Array.length !byid then invalid_arg (dead_class op)
    else
      match Array.unsafe_get !byid id with
      | Some c -> c
      | None -> invalid_arg (dead_class op)
  in
  let ( let* ) = Result.bind in
  let no_curves ~name (p : params) =
    if p.rsc <> None || p.fsc <> None || p.usc <> None then
      errf Bad_value
        "class %S: service curves apply to hfsc-backend links (rr classes \
         take a quantum)"
        name
    else Ok ()
  in
  (* The rr admission rule (the round-robin analogue of the SCED
     breakpoint checks): a quantum must lie in [1, max_quantum], and
     the quanta under any one parent must sum to at most
     [max_round_bytes] — the worst-case wait of a newly backlogged
     child is one full round of its parent. O(1): the per-node sum is
     maintained incrementally by the scheduler. *)
  let check_round ~parent_cls ~name ~old_q q =
    if q < 1 || q > Hls.max_quantum then
      errf Bad_value "class %S: quantum must be positive and at most %d" name
        Hls.max_quantum
    else
      let sum = Hls.quantum_sum_under parent_cls - old_q + q in
      if sum > Hls.max_round_bytes then
        errf Admission_linkshare
          "round under class %S infeasible: quanta sum %d B > per-round \
           bound %d B"
          (Hls.name parent_cls) sum Hls.max_round_bytes
      else Ok ()
  in
  let admit_add ~parent ~name p =
    let* () = no_curves ~name p in
    let parent_cls = get "admit_add" parent in
    let q = Option.value p.quantum ~default:Hls.default_quantum in
    check_round ~parent_cls ~name ~old_q:0 q
  in
  let admit_modify ~id ~name p =
    let* () = no_curves ~name p in
    match p.quantum with
    | None -> Ok ()
    | Some q -> (
        let cls = get "admit_modify" id in
        match Hls.parent cls with
        | None -> errf Structural "class %S: the root has no quantum" name
        | Some parent_cls ->
            check_round ~parent_cls ~name ~old_q:(Hls.quantum cls) q)
  in
  let add_class ~parent ~name (p : params) ~qlimit ~qbytes =
    let parent_cls = get "add_class" parent in
    match
      Hls.add_class sched ~parent:parent_cls ~name ?quantum:p.quantum
        ?qlimit_pkts:qlimit ?qlimit_bytes:qbytes ()
    with
    | cls ->
        put cls;
        Ok (Hls.id cls)
    | exception Invalid_argument e -> of_invalid e
  in
  let modify_class ~id (p : params) ~qlimit ~qbytes =
    let cls = get "modify_class" id in
    let snap = Hls.snapshot_class cls in
    try
      (match p.quantum with
      | Some q -> Hls.set_quantum sched cls q
      | None -> ());
      (match (qlimit, qbytes) with
      | None, None -> ()
      | _ -> Hls.set_class_limits sched cls ?pkts:qlimit ?bytes:qbytes ());
      Ok ()
    with Invalid_argument e ->
      Hls.restore_class cls snap;
      of_invalid e
  in
  let remove_class ~id =
    let cls = get "remove_class" id in
    match Hls.remove_class sched cls with
    | () ->
        !byid.(id) <- None;
        Ok ()
    | exception Invalid_argument e -> of_invalid e
  in
  let hb = ref (Hls.batch ~capacity:1 ()) in
  let deq_fill ~now b =
    let cap = batch_capacity b in
    if Hls.batch_capacity !hb <> cap then hb := Hls.batch ~capacity:cap ();
    let n = Hls.dequeue_batch sched ~now !hb in
    for i = 0 to n - 1 do
      Array.unsafe_set b.bb_pkts i (Hls.batch_pkt !hb i);
      Array.unsafe_set b.bb_ids i (Hls.id (Hls.batch_cls !hb i))
      (* bb_rt stays false: round-robin serves everything as link-sharing *)
    done;
    b.bb_count <- n;
    n
  in
  let out = { o_pkt = dummy_pkt; o_id = 0; o_rt = false } in
  (* same zero-allocation single-dequeue trick as the hfsc backend *)
  let one = Hls.batch ~capacity:1 () in
  let dequeue ~now =
    if Hls.dequeue_batch sched ~now one = 0 then false
    else begin
      out.o_pkt <- Hls.batch_pkt one 0;
      out.o_id <- Hls.id (Hls.batch_cls one 0);
      out.o_rt <- false;
      true
    end
  in
  {
    kind = Rr_kind;
    link_rate;
    raw_hfsc = None;
    out;
    class_ids = (fun () -> List.map Hls.id (Hls.classes sched));
    find_id = (fun name -> Option.map Hls.id (Hls.find_class sched name));
    cls_name = (fun id -> Hls.name (get "cls_name" id));
    parent_id =
      (fun id -> Option.map Hls.id (Hls.parent (get "parent_id" id)));
    is_leaf = (fun id -> Hls.is_leaf (get "is_leaf" id));
    rsc = (fun _ -> None);
    fsc = (fun _ -> None);
    usc = (fun _ -> None);
    quantum =
      (fun id ->
        let cls = get "quantum" id in
        if Hls.parent cls = None then None else Some (Hls.quantum cls));
    queue_length = (fun id -> Hls.queue_length (get "queue_length" id));
    queue_bytes = (fun id -> Hls.queue_bytes (get "queue_bytes" id));
    queue_limit_pkts =
      (fun id -> Hls.queue_limit_pkts (get "queue_limit_pkts" id));
    queue_limit_bytes =
      (fun id -> Hls.queue_limit_bytes (get "queue_limit_bytes" id));
    admit_add;
    admit_modify;
    add_class;
    modify_class;
    remove_class;
    set_aggregate =
      (fun ~pkts ~bytes -> Hls.set_aggregate_limit sched ?pkts ?bytes ());
    aggregate_pkts = (fun () -> Hls.aggregate_limit_pkts sched);
    aggregate_bytes = (fun () -> Hls.aggregate_limit_bytes sched);
    set_policy =
      (fun p ->
        Hls.set_drop_policy sched
          (match p with
          | Hfsc.Tail_drop -> Hls.Tail_drop
          | Hfsc.Drop_longest -> Hls.Drop_longest));
    policy =
      (fun () ->
        match Hls.drop_policy sched with
        | Hls.Tail_drop -> Hfsc.Tail_drop
        | Hls.Drop_longest -> Hfsc.Drop_longest);
    set_drop_hook =
      (fun hook ->
        Hls.set_drop_hook sched (fun now cls pkt -> hook now (Hls.id cls) pkt));
    enqueue =
      (fun ~now id pkt ->
        match !byid.(id) with
        | Some cls -> Hls.enqueue sched ~now cls pkt
        | None -> invalid_arg (dead_class "enqueue"));
    dequeue;
    deq_fill;
    next_ready = (fun ~now -> Hls.next_ready_time sched ~now);
    backlog_pkts = (fun () -> Hls.backlog_pkts sched);
    backlog_bytes = (fun () -> Hls.backlog_bytes sched);
    audit = (fun () -> Hls.audit sched);
  }
