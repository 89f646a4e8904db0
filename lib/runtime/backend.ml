module Sc = Curve.Service_curve
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
   drains), bad numeric arguments (a limit that is not positive, a
   curve the fixed-point arithmetic cannot represent) are the caller's
   fault, the rest are structural (wrong place in the hierarchy). *)
let of_invalid message =
  let code =
    if contains message "active" || contains message "queued" then Class_active
    else if contains message "positive" || contains message "out of range"
    then Bad_value
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

let no_params = { rsc = None; fsc = None; usc = None; quantum = None }

(* The last served packet — instance-held so the hot path never
   allocates an option on the backend boundary. *)
type out = Pkt.Served.t = {
  mutable o_pkt : Pkt.Packet.t;
  mutable o_id : int;
  mutable o_rt : bool;
}

(* A scheduler's class table, whatever its class type: what both
   backends share, read by the functions below. *)
type table = Table : 'c Ds.Class_table.t -> table

type t = {
  kind : kind;
  link_rate : float;
  raw_hfsc : Hfsc.t option;
  out : out;
  table : table;
  params : int -> params;
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
  (* the data path *)
  enqueue : now:float -> int -> Pkt.Packet.t -> bool;
  dequeue : now:float -> bool;
  next_ready : now:float -> float option;
  audit : unit -> string list;
}

(* --- the class views both backends share ---------------------------- *)

module Ct = Ds.Class_table
module Fq = Ds.Fifo_queue

let class_ids { table = Table tab; _ } = Ct.ids tab
let find_id { table = Table tab; _ } name = Ct.find_id tab name
let cls_name { table = Table tab; _ } id = Ct.name_of_id tab id
let parent_id { table = Table tab; _ } id = Ct.parent_of_id tab id
let is_leaf { table = Table tab; _ } id = Ct.is_leaf_id tab id
let[@inline] queue { table = Table tab; _ } id = Ct.queue_of_id tab id
let queue_length t id = Fq.length (queue t id)
let queue_bytes t id = Fq.bytes (queue t id)
let queue_limit_pkts t id = Fq.limit_pkts (queue t id)
let queue_limit_bytes t id = Fq.limit_bytes (queue t id)

let set_aggregate { table = Table tab; _ } ~pkts ~bytes =
  Ct.set_aggregate_limit tab ?pkts ?bytes ()

let aggregate_pkts { table = Table tab; _ } = tab.max_pkts
let aggregate_bytes { table = Table tab; _ } = tab.max_bytes
let set_policy { table = Table tab; _ } p = Ct.set_drop_policy tab p
let policy { table = Table tab; _ } = Ct.drop_policy tab

let set_drop_hook { table = Table tab; _ } hook =
  tab.on_drop <- (fun now c pkt -> hook now (Ct.id tab c) pkt)

let backlog_pkts { table = Table tab; _ } = tab.pkts
let backlog_bytes { table = Table tab; _ } = tab.bytes

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

module Adm = Analysis.Admission

let of_hfsc ~link_rate sched =
  (* The admission scopes' aggregates: [link_sum] holds every leaf's
     rsc, [child_sums] each class's children's fsc (a class without
     children has no entry). Every successful class op keeps them; every
     check is one sweep over one of them. *)
  let link_curve = Sc.linear link_rate in
  let leaf_rscs () =
    List.filter_map
      (fun c -> if Hfsc.is_leaf c then Hfsc.rsc c else None)
      (Hfsc.classes sched)
  in
  let child_fscs cls = List.filter_map Hfsc.fsc (Hfsc.children cls) in
  let link_sum = Adm.of_list (leaf_rscs ()) in
  let child_sums = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if not (Hfsc.is_leaf c) then
        Hashtbl.replace child_sums (Hfsc.id c) (Adm.of_list (child_fscs c)))
    (Hfsc.classes sched);
  let empty = Adm.create () in
  let children_sum cls =
    Option.value ~default:empty (Hashtbl.find_opt child_sums (Hfsc.id cls))
  in
  (* After a successful class op: [old] out of a sum and [by] in. A
     class left without children drops its sum. *)
  let swap r ~old ~by =
    Option.iter (Adm.remove r) old;
    Option.iter (Adm.add r) by
  in
  let update_children parent ~old ~by =
    let id = Hfsc.id parent in
    if Hfsc.is_leaf parent then Hashtbl.remove child_sums id
    else
      let r =
        match Hashtbl.find_opt child_sums id with
        | Some r -> r
        | None ->
            let r = Adm.create () in
            Hashtbl.replace child_sums id r;
            r
      in
      swap r ~old ~by
  in
  (* One sweep over [r] with the change applied; [what] words a refusal
     and is built only for one. *)
  let check code what r ~capacity ~remove ~add =
    match Adm.fits r ~capacity ~remove ~add with
    | Ok () -> Ok ()
    | Error v -> Error { code; message = pp_violation ~what:(what ()) v }
  in
  (* Every leaf's rsc, with [replace] in place of [target]'s (or added
     for a new class), must fit under the link curve. *)
  let check_rsc ~target ~replace =
    let remove =
      match target with Some c when Hfsc.is_leaf c -> Hfsc.rsc c | _ -> None
    in
    check Admission_realtime
      (fun () -> "real-time guarantees")
      link_sum ~capacity:link_curve ~remove ~add:replace
  in
  (* Children's fsc under [parent] — with [replace] for [target], or
     added as a prospective new child — must fit under the parent's own
     fsc. A parent with no fsc of its own constrains nothing. *)
  let check_fsc_under ~parent ~target ~replace =
    match Hfsc.fsc parent with
    | None -> Ok ()
    | Some pfsc ->
        check Admission_linkshare
          (fun () ->
            Printf.sprintf "link-sharing under class %S" (Hfsc.name parent))
          (children_sum parent) ~capacity:pfsc
          ~remove:(Option.bind target Hfsc.fsc) ~add:replace
  in
  (* An upper-limit curve below the class's own rsc would let the
     real-time criterion promise service the ulimit then forbids. *)
  let check_usc ~name ~rsc ~usc =
    match (rsc, usc) with
    | Some rsc, Some usc ->
        check Admission_ulimit
          (fun () ->
            Printf.sprintf "upper limit of class %S against its rsc" name)
          empty ~capacity:usc ~remove:None ~add:(Some rsc)
    | _ -> Ok ()
  in
  (* What every class op checks first: no quantum, and no curve the
     fixed-point arithmetic cannot represent — refused as such
     (bad-value) before admission weighs it against the link. The
     refusal names the class, so [of_invalid] must not sniff it: a
     class named "interactive" would read as class-active. The name is
     formatted only for a refusal: the check is pure, so it is asked
     again to word one. *)
  let check_params ~name (p : params) =
    match p.quantum with
    | Some _ ->
        errf Bad_value
          "class %S: quantum applies to rr-backend links (hfsc classes take \
           curves)"
          name
    | None -> (
        let check what =
          Hfsc.check_curves what ~rsc:p.rsc ~fsc:p.fsc ~usc:p.usc
        in
        match check "class" with
        | () -> Ok ()
        | exception Invalid_argument _ -> (
            match check (Printf.sprintf "class %S" name) with
            | () -> Ok ()
            | exception Invalid_argument message ->
                Error { code = Bad_value; message }))
  in
  let ( let* ) = Result.bind in
  let admit_add ~parent ~name (p : params) =
    let* () = check_params ~name p in
    let* () =
      if p.rsc = None && p.fsc = None then
        errf Bad_value "class %S needs an rsc or an fsc" name
      else Ok ()
    in
    let parent_cls = Hfsc.class_of_id sched parent in
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
    let* () = check_params ~name p in
    let cls = Hfsc.class_of_id sched id in
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
      | Some nfsc when not (Hfsc.is_leaf cls) ->
          check Admission_linkshare
            (fun () ->
              Printf.sprintf "children of class %S against its new fsc" name)
            (children_sum cls) ~capacity:nfsc ~remove:None ~add:None
      | _ -> Ok ()
    in
    let eff_rsc = match p.rsc with Some _ as r -> r | None -> Hfsc.rsc cls in
    let eff_usc = match p.usc with Some _ as u -> u | None -> Hfsc.usc cls in
    check_usc ~name ~rsc:eff_rsc ~usc:eff_usc
  in
  let add_class ~parent ~name (p : params) ~qlimit ~qbytes =
    let parent_cls = Hfsc.class_of_id sched parent in
    match
      Hfsc.add_class sched ~parent:parent_cls ~name ?rsc:p.rsc ?fsc:p.fsc
        ?usc:p.usc ?qlimit ?qlimit_bytes:qbytes ()
    with
    | cls ->
        (* a new class is a leaf, and its parent had no rsc to lose *)
        swap link_sum ~old:None ~by:(Hfsc.rsc cls);
        update_children parent_cls ~old:None ~by:(Hfsc.fsc cls);
        Ok (Hfsc.id cls)
    | exception Invalid_argument e -> of_invalid e
  in
  let modify_class ~id (p : params) ~qlimit ~qbytes =
    let cls = Hfsc.class_of_id sched id in
    let old_rsc = Hfsc.rsc cls and old_fsc = Hfsc.fsc cls in
    match
      Hfsc.modify_class sched cls ?rsc:p.rsc ?fsc:p.fsc ?usc:p.usc ?qlimit
        ?qlimit_bytes:qbytes ()
    with
    | () ->
        (* an rsc change succeeds on leaves only *)
        if p.rsc <> None then swap link_sum ~old:old_rsc ~by:p.rsc;
        (match (p.fsc, Hfsc.parent cls) with
        | Some _, Some par -> update_children par ~old:old_fsc ~by:p.fsc
        | _ -> ());
        Ok ()
    | exception Invalid_argument e -> of_invalid e
  in
  let remove_class ~id =
    let cls = Hfsc.class_of_id sched id in
    match Hfsc.remove_class sched cls with
    | () ->
        (* only a leaf can go *)
        swap link_sum ~old:(Hfsc.rsc cls) ~by:None;
        Option.iter
          (fun par -> update_children par ~old:(Hfsc.fsc cls) ~by:None)
          (Hfsc.parent cls);
        Ok ()
    | exception Invalid_argument e -> of_invalid e
  in
  (* Each aggregate against a rebuild from the scheduler: an op the
     upkeep missed shows here. *)
  let audit_sums () =
    let check what r curves =
      if Adm.equal r (Adm.of_list curves) then []
      else [ Printf.sprintf "admission sum of %s: a rebuild differs" what ]
    in
    let classes = Hfsc.classes sched in
    check "the link's real-time curves" link_sum (leaf_rscs ())
    @ List.concat_map
        (fun c ->
          let what =
            Printf.sprintf "the fair curves under class %S" (Hfsc.name c)
          in
          match Hashtbl.find_opt child_sums (Hfsc.id c) with
          | None when Hfsc.is_leaf c -> []
          | Some _ when Hfsc.is_leaf c -> [ what ^ " kept for a leaf" ]
          | None -> [ what ^ " missing" ]
          | Some r -> check what r (child_fscs c))
        classes
  in
  let out = Pkt.Served.create () in
  {
    kind = Hfsc_kind;
    link_rate;
    raw_hfsc = Some sched;
    out;
    table = Table (Hfsc.table sched);
    params =
      (fun id ->
        let c = Hfsc.class_of_id sched id in
        let rsc = Hfsc.rsc c and fsc = Hfsc.fsc c and usc = Hfsc.usc c in
        { rsc; fsc; usc; quantum = None });
    admit_add;
    admit_modify;
    add_class;
    modify_class;
    remove_class;
    enqueue =
      (fun ~now id pkt ->
        Hfsc.enqueue sched ~now (Hfsc.class_of_id sched id) pkt);
    dequeue = (fun ~now -> Hfsc.dequeue_into sched ~now out);
    next_ready = (fun ~now -> Hfsc.next_ready_time sched ~now);
    audit = (fun () -> Hfsc.audit sched @ audit_sums ());
  }

(* --- hierarchical round-robin over the record ------------------------ *)

let of_hls ~link_rate sched =
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
    let parent_cls = Hls.class_of_id sched parent in
    let q = Option.value p.quantum ~default:Hls.default_quantum in
    check_round ~parent_cls ~name ~old_q:0 q
  in
  let admit_modify ~id ~name p =
    let cls = Hls.class_of_id sched id in
    let* () = no_curves ~name p in
    match p.quantum with
    | None -> Ok ()
    | Some q -> (
        match Hls.parent cls with
        | None -> errf Structural "class %S: the root has no quantum" name
        | Some parent_cls ->
            check_round ~parent_cls ~name ~old_q:(Hls.quantum cls) q)
  in
  let add_class ~parent ~name (p : params) ~qlimit ~qbytes =
    let parent_cls = Hls.class_of_id sched parent in
    match
      Hls.add_class sched ~parent:parent_cls ~name ?quantum:p.quantum
        ?qlimit_pkts:qlimit ?qlimit_bytes:qbytes ()
    with
    | cls -> Ok (Hls.id cls)
    | exception Invalid_argument e -> of_invalid e
  in
  let modify_class ~id (p : params) ~qlimit ~qbytes =
    let cls = Hls.class_of_id sched id in
    match
      Hls.modify_class sched cls ?quantum:p.quantum ?qlimit_pkts:qlimit
        ?qlimit_bytes:qbytes ()
    with
    | () -> Ok ()
    | exception Invalid_argument e -> of_invalid e
  in
  let remove_class ~id =
    let cls = Hls.class_of_id sched id in
    match Hls.remove_class sched cls with
    | () -> Ok ()
    | exception Invalid_argument e -> of_invalid e
  in
  let out = Pkt.Served.create () in
  {
    kind = Rr_kind;
    link_rate;
    raw_hfsc = None;
    out;
    table = Table (Hls.table sched);
    params =
      (fun id ->
        let cls = Hls.class_of_id sched id in
        if Hls.parent cls = None then no_params
        else { no_params with quantum = Some (Hls.quantum cls) });
    admit_add;
    admit_modify;
    add_class;
    modify_class;
    remove_class;
    enqueue =
      (fun ~now id pkt ->
        Hls.enqueue sched ~now (Hls.class_of_id sched id) pkt);
    dequeue = (fun ~now -> Hls.dequeue_into sched ~now out);
    next_ready = (fun ~now -> Hls.next_ready_time sched ~now);
    audit = (fun () -> Hls.audit sched);
  }
