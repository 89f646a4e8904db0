type counters = {
  mutable enq_pkts : int;
  mutable enq_bytes : int;
  mutable rt_pkts : int;
  mutable rt_bytes : int;
  mutable ls_pkts : int;
  mutable ls_bytes : int;
  mutable drop_pkts : int;
  mutable deadline_misses : int;
  mutable hiwater_pkts : int;
  mutable hiwater_bytes : int;
}

type kind = Enq | Deq_rt | Deq_ls | Drop

type event = {
  ts : float;
  kind : kind;
  cls_id : int;
  flow : int;
  size : int;
  seq : int;
}

(* The ring. Struct-of-arrays: [ts] is a flat float array (stores write
   the raw double), the int columns never box. [total] counts every
   event ever recorded; the write position is [total mod cap]. *)
type trace = {
  cap : int;
  ts : float array;
  kind : int array;
  cls : int array;
  flow : int array;
  size : int array;
  seq : int array;
  mutable total : int;
}

type t = {
  trace : trace;
  mutable tracing : bool;
  mutable tbl : counters array; (* index: Hfsc.id *)
  mutable known : int; (* ids < known are valid *)
  (* deadline-miss parameters of each class's rsc, kept out of
     [counters] so that record stays all-int and its stores unboxed:
     class [id]'s [dy] (= m1*d), [m1], [d] and [m2] at [4*id] to
     [4*id+3] of one flat float array, so a real-time dequeue's check
     reads 32 adjacent bytes, not one float from each of four arrays. *)
  mutable has_rsc : bool array;
  mutable rsc : float array;
}

let fresh_counters () =
  {
    enq_pkts = 0;
    enq_bytes = 0;
    rt_pkts = 0;
    rt_bytes = 0;
    ls_pkts = 0;
    ls_bytes = 0;
    drop_pkts = 0;
    deadline_misses = 0;
    hiwater_pkts = 0;
    hiwater_bytes = 0;
  }

let create ?(trace_capacity = 4096) ?(tracing = true) () =
  if trace_capacity <= 0 then
    invalid_arg "Telemetry.create: trace_capacity must be positive";
  {
    trace =
      {
        cap = trace_capacity;
        ts = Array.make trace_capacity 0.;
        kind = Array.make trace_capacity 0;
        cls = Array.make trace_capacity 0;
        flow = Array.make trace_capacity 0;
        size = Array.make trace_capacity 0;
        seq = Array.make trace_capacity 0;
        total = 0;
      };
    tracing;
    tbl = [||];
    known = 0;
    has_rsc = [||];
    rsc = [||];
  }

let grow_array a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Fills the unannounced tail of a grown table. Only ids below [known]
   are ever read or written, so this record is never touched. *)
let unannounced = fresh_counters ()

let ensure_class t ~id =
  if id < 0 then invalid_arg "Telemetry.ensure_class: negative id";
  if id >= t.known then begin
    if id >= Array.length t.tbl then begin
      let n = max 8 (max (id + 1) (2 * Array.length t.tbl)) in
      t.tbl <- grow_array t.tbl n unannounced;
      t.has_rsc <- grow_array t.has_rsc n false;
      t.rsc <- grow_array t.rsc (4 * n) 0.
    end;
    for i = t.known to id do
      t.tbl.(i) <- fresh_counters ()
    done;
    t.known <- id + 1
  end

let check_id t id =
  if id < 0 || id >= t.known then
    invalid_arg "Telemetry: unknown class id (ensure_class first)"

let counters t ~id =
  check_id t id;
  t.tbl.(id)

let set_rsc t ~id sc =
  check_id t id;
  match sc with
  | None -> t.has_rsc.(id) <- false
  | Some { Curve.Service_curve.m1; d; m2 } ->
      t.has_rsc.(id) <- true;
      let i = 4 * id in
      t.rsc.(i) <- m1 *. d;
      t.rsc.(i + 1) <- m1;
      t.rsc.(i + 2) <- d;
      t.rsc.(i + 3) <- m2

let set_tracing t v = t.tracing <- v

(* --- hot path ------------------------------------------------------ *)

(* All ids reaching these hooks were announced by the control plane
   (ensure_class runs at class creation), so the stores use unsafe_set:
   a bounds-check branch is cheap but the raise path would drag a
   closure/exception constructor into the hot function. *)

let[@inline] record tr k ~now ~id ~size ~flow ~seq =
  let i = tr.total mod tr.cap in
  Array.unsafe_set tr.ts i now;
  Array.unsafe_set tr.kind i k;
  Array.unsafe_set tr.cls i id;
  Array.unsafe_set tr.flow i flow;
  Array.unsafe_set tr.size i size;
  Array.unsafe_set tr.seq i seq;
  tr.total <- tr.total + 1

let note_enqueue t ~id ~now ~size ~flow ~seq ~qlen ~qbytes =
  let c = Array.unsafe_get t.tbl id in
  c.enq_pkts <- c.enq_pkts + 1;
  c.enq_bytes <- c.enq_bytes + size;
  if qlen > c.hiwater_pkts then c.hiwater_pkts <- qlen;
  if qbytes > c.hiwater_bytes then c.hiwater_bytes <- qbytes;
  if t.tracing then record t.trace 0 ~now ~id ~size ~flow ~seq

let note_drop t ~id ~now ~size ~flow ~seq =
  let c = Array.unsafe_get t.tbl id in
  c.drop_pkts <- c.drop_pkts + 1;
  if t.tracing then record t.trace 3 ~now ~id ~size ~flow ~seq

let note_dequeue t ~id ~now ~size ~flow ~seq ~arrival ~realtime =
  let c = Array.unsafe_get t.tbl id in
  if realtime then begin
    c.rt_pkts <- c.rt_pkts + 1;
    c.rt_bytes <- c.rt_bytes + size;
    if Array.unsafe_get t.has_rsc id then begin
      (* S^-1(size) for the two-piece rsc, inline so every float stays
         in registers (a call into Service_curve would box the fresh
         argument in classic mode) *)
      let sz = float_of_int size in
      let rsc = t.rsc and i = 4 * id in
      let dy = Array.unsafe_get rsc i in
      let allowed =
        if sz <= dy then sz /. Array.unsafe_get rsc (i + 1)
        else
          Array.unsafe_get rsc (i + 2)
          +. ((sz -. dy) /. Array.unsafe_get rsc (i + 3))
      in
      if now -. arrival > allowed +. 1e-9 then
        c.deadline_misses <- c.deadline_misses + 1
    end
  end
  else begin
    c.ls_pkts <- c.ls_pkts + 1;
    c.ls_bytes <- c.ls_bytes + size
  end;
  if t.tracing then
    record t.trace (if realtime then 1 else 2) ~now ~id ~size ~flow ~seq

(* --- decoder and exporters ----------------------------------------- *)

let trace_capacity t = t.trace.cap
let recorded_total t = t.trace.total

(* Events that fell off the ring: recorded but no longer replayable. *)
let dropped_events t = t.trace.total - min t.trace.total t.trace.cap

let kind_of_code = function
  | 0 -> Some Enq
  | 1 -> Some Deq_rt
  | 2 -> Some Deq_ls
  | 3 -> Some Drop
  | _ -> None

(* Raw-column replay for the binary spill sink: no event record, no
   closure result, just six scalars per surviving event at index >=
   [since] in recorded order. *)
let iter_since t ~since ~f =
  let tr = t.trace in
  let n = min tr.total tr.cap in
  let window_start = tr.total - n in
  let first = max since window_start in
  for idx = first to tr.total - 1 do
    let i = idx mod tr.cap in
    f ~ts:(Array.unsafe_get tr.ts i) ~kind:(Array.unsafe_get tr.kind i)
      ~cls:(Array.unsafe_get tr.cls i) ~flow:(Array.unsafe_get tr.flow i)
      ~size:(Array.unsafe_get tr.size i) ~seq:(Array.unsafe_get tr.seq i)
  done;
  tr.total

let kind_name = function
  | Enq -> "enq"
  | Deq_rt -> "deq-rt"
  | Deq_ls -> "deq-ls"
  | Drop -> "drop"

let fold_events t f acc =
  let tr = t.trace in
  let n = min tr.total tr.cap in
  let first = tr.total - n in
  let acc = ref acc in
  for j = 0 to n - 1 do
    let i = (first + j) mod tr.cap in
    let e : event =
      {
        ts = tr.ts.(i);
        kind = Option.get (kind_of_code tr.kind.(i));
        cls_id = tr.cls.(i);
        flow = tr.flow.(i);
        size = tr.size.(i);
        seq = tr.seq.(i);
      }
    in
    acc := f !acc e
  done;
  !acc

let events t = List.rev (fold_events t (fun acc e -> e :: acc) [])

let event_to_string (e : event) =
  Printf.sprintf "%.6f %-6s cls=%d flow=%d size=%d seq=%d" e.ts
    (kind_name e.kind) e.cls_id e.flow e.size e.seq

let counters_fields c =
  [
    ("enq_pkts", Json_lite.Num (float_of_int c.enq_pkts));
    ("enq_bytes", Json_lite.Num (float_of_int c.enq_bytes));
    ("rt_pkts", Json_lite.Num (float_of_int c.rt_pkts));
    ("rt_bytes", Json_lite.Num (float_of_int c.rt_bytes));
    ("ls_pkts", Json_lite.Num (float_of_int c.ls_pkts));
    ("ls_bytes", Json_lite.Num (float_of_int c.ls_bytes));
    ("drop_pkts", Json_lite.Num (float_of_int c.drop_pkts));
    ("deadline_misses", Json_lite.Num (float_of_int c.deadline_misses));
    ("backlog_hiwater_pkts", Json_lite.Num (float_of_int c.hiwater_pkts));
    ("backlog_hiwater_bytes", Json_lite.Num (float_of_int c.hiwater_bytes));
  ]

type snapshot = {
  per_class : (int * counters) list;
  snap_tracing : bool;
  snap_capacity : int;
  snap_recorded : int;
  snap_dropped : int;
  snap_events : event list;
}

let copy_counters c =
  {
    enq_pkts = c.enq_pkts;
    enq_bytes = c.enq_bytes;
    rt_pkts = c.rt_pkts;
    rt_bytes = c.rt_bytes;
    ls_pkts = c.ls_pkts;
    ls_bytes = c.ls_bytes;
    drop_pkts = c.drop_pkts;
    deadline_misses = c.deadline_misses;
    hiwater_pkts = c.hiwater_pkts;
    hiwater_bytes = c.hiwater_bytes;
  }

let snapshot t =
  {
    per_class = List.init t.known (fun id -> (id, copy_counters t.tbl.(id)));
    snap_tracing = t.tracing;
    snap_capacity = t.trace.cap;
    snap_recorded = t.trace.total;
    snap_dropped = dropped_events t;
    snap_events = events t;
  }

let snapshot_counters s ~id = List.assoc_opt id s.per_class

let trace_text t =
  let b = Buffer.create 1024 in
  let dropped = dropped_events t in
  if dropped > 0 then
    Buffer.add_string b
      (Printf.sprintf "# %d event%s dropped (ring capacity %d)\n" dropped
         (if dropped = 1 then "" else "s")
         t.trace.cap);
  ignore
    (fold_events t
       (fun () e ->
         Buffer.add_string b (event_to_string e);
         Buffer.add_char b '\n')
       ());
  Buffer.contents b
